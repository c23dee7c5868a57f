"""Loading scenario configs from disk: JSON always, TOML when available.

Parsing failures never escape as parser tracebacks: a missing file, an
unsupported suffix, malformed JSON/TOML, and TOML-on-Python-3.10-or-older
all raise :class:`~repro.scenarios.errors.ScenarioFileError` with the
file path in the message, which ``python -m repro run`` turns into a
one-line stderr diagnostic.

TOML support rides the standard library's ``tomllib`` (Python 3.11+).
The repository supports 3.9, so the import is gated — JSON configs work
everywhere, TOML configs fail with a clear message rather than an
``ImportError`` on older interpreters.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.scenarios.errors import ScenarioFileError
from repro.scenarios.schema import Scenario, validate_scenario


def parse_scenario_text(text: str, fmt: str, source: str) -> Any:
    """Parse raw config text (``fmt`` is ``"json"`` or ``"toml"``) into
    the document the schema validates; typed errors on malformed input."""
    if fmt == "json":
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioFileError(source, f"malformed JSON: {exc}") from None
    if fmt == "toml":
        try:  # Python 3.11+; imported here so JSON runs never load it
            import tomllib
        except ImportError:  # pragma: no cover - exercised on 3.9/3.10 CI legs
            raise ScenarioFileError(
                source,
                "TOML configs need Python 3.11+ (tomllib is unavailable); "
                "rewrite the config as JSON",
            ) from None
        try:
            return tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ScenarioFileError(source, f"malformed TOML: {exc}") from None
    raise ScenarioFileError(source, f"unsupported config format {fmt!r}")


def load_scenario(path) -> Scenario:
    """Read, parse, and validate one scenario config file.

    The format comes from the suffix (``.json`` / ``.toml``); everything
    else is rejected up front.  Returns the normalized
    :class:`~repro.scenarios.schema.Scenario`.
    """
    source = os.fspath(path)
    suffix = os.path.splitext(source)[1].lower()
    if suffix not in (".json", ".toml"):
        raise ScenarioFileError(
            source, f"unsupported config suffix {suffix or '(none)'!r}; use .json or .toml"
        )
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioFileError(source, f"cannot read config: {exc.strerror or exc}") from None
    raw = parse_scenario_text(text, suffix[1:], source)
    return validate_scenario(raw, source=source)
