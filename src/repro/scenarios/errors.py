"""Typed failures of the scenario DSL.

Every error carries its *source* (the config file path, or a synthetic
label like ``"<dict>"`` for in-memory configs) and renders it into the
message, so a failing ``python -m repro run`` names the file the user has
to fix — never a bare traceback.  Schema errors additionally carry the
offending key.
"""

from __future__ import annotations


class ScenarioError(Exception):
    """Base of every scenario-DSL failure (file or schema)."""

    def __init__(self, source, message: str):
        self.source = str(source)
        super().__init__(f"{self.source}: {message}")


class ScenarioFileError(ScenarioError):
    """The config file cannot be read or parsed (malformed JSON/TOML,
    unsupported format, missing file, TOML on a Python without tomllib)."""


class ScenarioSchemaError(ScenarioError):
    """The parsed config violates the scenario schema.

    ``key`` names the offending config key (dotted / indexed for nested
    locations, e.g. ``"engine.quotient"`` or ``"graphs[1].sizes"``;
    ``"<root>"`` when the document as a whole is the problem).
    """

    def __init__(self, source, key: str, message: str):
        self.key = key
        super().__init__(source, f"config key {key!r}: {message}")
