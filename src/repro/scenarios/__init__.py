"""``repro.scenarios`` — the declarative scenario DSL.

Experiments as config files instead of bespoke Python glue: a JSON/TOML
document names a workload (one of the paper's tables, or a grid of graph
families × sizes × seeds × probes under one communication model), a
validating loader normalizes it into a :class:`~repro.scenarios.schema.Scenario`,
and the runner compiles it onto the existing engine — ``BatchJob`` /
``run_batch``, the plan cache, the quotient/vector backends,
and the PR-5 durable store.

Entry points::

    python -m repro run configs/table1.json           # CLI
    python -m repro store --root exp submit scenario --config cfg.json

    from repro.scenarios import load_scenario, run_scenario, document_bytes
    doc = run_scenario(load_scenario("configs/onebit_counting.json"))

Every failure mode is typed (:class:`ScenarioError` and subclasses) and
names the offending file — and, for schema violations, the offending key.
Documents are deterministic byte-for-byte across engine modes;
``configs/table1.json`` / ``table2.json`` reproduce the hard-coded paths
exactly (asserted by the golden-config tests).
"""

from repro.scenarios.errors import (
    ScenarioError,
    ScenarioFileError,
    ScenarioSchemaError,
)
from repro.scenarios.registry import GRAPH_FAMILIES, INPUT_PATTERNS, PROBES
from repro.scenarios.schema import (
    EngineFlags,
    GraphSpec,
    Scenario,
    validate_scenario,
)
from repro.scenarios.loader import load_scenario, parse_scenario_text
from repro.scenarios.runner import (
    compute_grid_row,
    document_bytes,
    format_scenario_document,
    grid_units,
    run_scenario,
    scenario_document,
)

__all__ = [
    "EngineFlags",
    "GRAPH_FAMILIES",
    "GraphSpec",
    "INPUT_PATTERNS",
    "PROBES",
    "Scenario",
    "ScenarioError",
    "ScenarioFileError",
    "ScenarioSchemaError",
    "compute_grid_row",
    "document_bytes",
    "format_scenario_document",
    "grid_units",
    "load_scenario",
    "parse_scenario_text",
    "run_scenario",
    "scenario_document",
    "validate_scenario",
]
