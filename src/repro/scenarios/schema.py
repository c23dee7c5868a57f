"""The scenario schema: validation and the normalized :class:`Scenario`.

A scenario config is a JSON/TOML document describing one declarative
workload.  Two kinds exist:

* ``"table"`` — reproduce one of the paper's tables through the existing
  cell machinery.  Keys: ``table`` (1 or 2), ``seed`` (required), ``n``
  (optional, paper defaults 6/5).
* ``"grid"`` — a (graph family × size × seed × probe) grid under one
  communication model.  Keys: ``model``, ``rounds``, ``seeds``,
  ``graphs`` (list of ``{family, sizes}``), ``probes``, ``inputs``,
  optional ``knowledge`` (centralized-help level, recorded in the
  document) and ``output.title``.

Both kinds take an optional ``engine`` block (``quotient`` /
``vector``, validated into :class:`~repro.core.engine.batch.EngineFlags`)
selecting *how* the scenario runs, never what it computes: engine flags
are excluded from :meth:`Scenario.identity` — and hence from store keys
and emitted documents — so every engine mode produces byte-identical
output.

Validation is strict and total: unknown keys, wrong types, out-of-range
values, unknown registry names, and incoherent engine-flag combinations
each raise a :class:`~repro.scenarios.errors.ScenarioSchemaError` naming
the offending key and the source file.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional, Tuple

from repro.core.engine import EngineFlags
from repro.core.models import CommunicationModel
from repro.core.network_class import Knowledge
from repro.scenarios.errors import ScenarioSchemaError
from repro.scenarios.registry import GRAPH_FAMILIES, INPUT_PATTERNS, PROBES

_COMMON_KEYS = frozenset({"scenario", "kind", "engine", "output"})
_TABLE_KEYS = frozenset({"table", "n", "seed"})
_GRID_KEYS = frozenset(
    {"model", "knowledge", "rounds", "seeds", "graphs", "probes", "inputs"}
)
_ENGINE_KEYS = frozenset({"quotient", "vector"})
_OUTPUT_KEYS = frozenset({"title"})


@dataclass(frozen=True)
class GraphSpec:
    """One validated ``graphs`` entry: a family and its sizes."""

    family: str
    sizes: Tuple[int, ...]


@dataclass(frozen=True)
class Scenario:
    """A validated, normalized scenario — what the runner executes."""

    name: str
    kind: str
    source: str
    engine: EngineFlags
    # table kind
    table: Optional[int] = None
    n: Optional[int] = None
    seed: Optional[int] = None
    # grid kind
    model: Optional[CommunicationModel] = None
    knowledge: Optional[Knowledge] = None
    rounds: Optional[int] = None
    seeds: Tuple[int, ...] = ()
    graphs: Tuple[GraphSpec, ...] = ()
    probes: Tuple[str, ...] = ()
    inputs: Optional[str] = None
    title: Optional[str] = None

    def identity(self) -> Dict[str, Any]:
        """The canonical parameter dict — everything that determines the
        scenario's *results*, nothing that only picks an engine mode.
        This is what store keys and emitted documents are built from, so
        object, vector-fallback and quotient runs of the same config
        share one cache and one byte-exact document."""
        if self.kind == "table":
            return {
                "kind": "table",
                "scenario": self.name,
                "table": self.table,
                "n": self.n,
                "seed": self.seed,
            }
        return {
            "kind": "grid",
            "scenario": self.name,
            "model": self.model.value,
            "knowledge": None if self.knowledge is None else self.knowledge.value,
            "rounds": self.rounds,
            "seeds": list(self.seeds),
            "graphs": [
                {"family": g.family, "sizes": list(g.sizes)} for g in self.graphs
            ],
            "probes": list(self.probes),
            "inputs": self.inputs,
            "title": self.title,
        }

    def normalized(self) -> Dict[str, Any]:
        """The full canonical config, engine flags included — the form a
        scenario job carries in its queue parameters.  Round-trips
        through :func:`validate_scenario` (the title moves back under
        ``output``, where the schema wants it)."""
        out = self.identity()
        out.pop("title", None)
        if self.title is not None:
            out["output"] = {"title": self.title}
        engine = {k: v for k, v in asdict(self.engine).items() if v is not None}
        if engine:
            out["engine"] = engine
        return out


# ---------------------------------------------------------------------- #
# validation helpers
# ---------------------------------------------------------------------- #

def _fail(source, key: str, message: str) -> None:
    raise ScenarioSchemaError(source, key, message)


def _plain_int(value: Any) -> bool:
    """True for ints that are not booleans (JSON/TOML ``true`` is a bool
    in Python and must not pass where a number is required)."""
    return type(value) is int


def _required(raw: Dict[str, Any], key: str, source) -> Any:
    if key not in raw:
        _fail(source, key, "required key is missing")
    return raw[key]


def _int_in(source, key: str, value: Any, minimum: int) -> int:
    if not _plain_int(value):
        _fail(source, key, f"expected an integer, got {value!r}")
    if value < minimum:
        _fail(source, key, f"must be an integer >= {minimum}, got {value}")
    return value


def _validate_engine(raw: Any, source) -> EngineFlags:
    if raw is None:
        return EngineFlags()
    if not isinstance(raw, dict):
        _fail(source, "engine", f"expected a table/object, got {raw!r}")
    for key in sorted(raw):
        if key not in _ENGINE_KEYS:
            _fail(
                source,
                f"engine.{key}",
                f"unknown engine flag; known flags: {', '.join(sorted(_ENGINE_KEYS))}",
            )
    flags: Dict[str, Any] = {}
    for name in ("quotient", "vector"):
        if name in raw:
            value = raw[name]
            if not isinstance(value, bool):
                _fail(source, f"engine.{name}", f"expected true or false, got {value!r}")
            flags[name] = value
    if flags.get("quotient") and flags.get("vector"):
        _fail(
            source,
            "engine",
            "engine.quotient and engine.vector cannot both be forced on — "
            "a quotient-active run already simulates only the base; pick one",
        )
    return EngineFlags(**flags)


def _validate_title(raw: Any, source) -> Optional[str]:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        _fail(source, "output", f"expected a table/object, got {raw!r}")
    for key in sorted(raw):
        if key not in _OUTPUT_KEYS:
            _fail(source, f"output.{key}", "unknown output key; known keys: title")
    title = raw.get("title")
    if title is not None and not isinstance(title, str):
        _fail(source, "output.title", f"expected a string, got {title!r}")
    return title


def _validate_graphs(raw: Any, source) -> Tuple[GraphSpec, ...]:
    if not isinstance(raw, list) or not raw:
        _fail(source, "graphs", "expected a non-empty list of {family, sizes} entries")
    specs = []
    for i, entry in enumerate(raw):
        where = f"graphs[{i}]"
        if not isinstance(entry, dict):
            _fail(source, where, f"expected a {{family, sizes}} entry, got {entry!r}")
        for key in sorted(entry):
            if key not in ("family", "sizes"):
                _fail(source, f"{where}.{key}", "unknown key; known keys: family, sizes")
        if "family" not in entry:
            _fail(source, f"{where}.family", "required key is missing")
        family = entry["family"]
        if not isinstance(family, str) or family not in GRAPH_FAMILIES:
            _fail(
                source,
                f"{where}.family",
                f"unknown graph family {family!r}; known families: "
                f"{', '.join(sorted(GRAPH_FAMILIES))}",
            )
        sizes = entry.get("sizes")
        if not isinstance(sizes, list) or not sizes:
            _fail(source, f"{where}.sizes", "expected a non-empty list of sizes >= 2")
        checked = []
        check = GRAPH_FAMILIES[family].check_size
        for j, size in enumerate(sizes):
            size = _int_in(source, f"{where}.sizes[{j}]", size, 2)
            if check is not None:
                problem = check(size)
                if problem:
                    _fail(source, f"{where}.sizes[{j}]", problem)
            checked.append(size)
        specs.append(GraphSpec(family, tuple(checked)))
    return tuple(specs)


# ---------------------------------------------------------------------- #
# the validator
# ---------------------------------------------------------------------- #

def validate_scenario(raw: Any, source: str = "<dict>") -> Scenario:
    """Validate a parsed config document into a :class:`Scenario`.

    Raises :class:`~repro.scenarios.errors.ScenarioSchemaError` — whose
    message names ``source`` and the offending key — on the first
    violation found.
    """
    if not isinstance(raw, dict):
        _fail(source, "<root>", f"a scenario config must be a table/object, got {raw!r}")

    name = _required(raw, "scenario", source)
    if not isinstance(name, str) or not name.strip():
        _fail(source, "scenario", f"expected a non-empty string, got {name!r}")
    kind = _required(raw, "kind", source)
    if kind not in ("table", "grid"):
        _fail(source, "kind", f"unknown scenario kind {kind!r}; pick 'table' or 'grid'")

    allowed = _COMMON_KEYS | (_TABLE_KEYS if kind == "table" else _GRID_KEYS)
    for key in sorted(raw):
        if key not in allowed:
            other = _GRID_KEYS if kind == "table" else _TABLE_KEYS
            if key in other:
                _fail(source, key, f"not a {kind!r}-kind key")
            _fail(source, key, "unknown key; not part of the scenario schema")

    engine = _validate_engine(raw.get("engine"), source)
    title = _validate_title(raw.get("output"), source)

    if kind == "table":
        table = _required(raw, "table", source)
        if not _plain_int(table) or table not in (1, 2):
            _fail(source, "table", f"expected 1 or 2, got {table!r}")
        seed = _int_in(source, "seed", _required(raw, "seed", source), 0)
        n = raw.get("n")
        if n is None:
            n = 6 if table == 1 else 5
        else:
            n = _int_in(source, "n", n, 2)
        return Scenario(
            name=name, kind="table", source=str(source), engine=engine,
            table=table, n=n, seed=seed, title=title,
        )

    model_raw = _required(raw, "model", source)
    try:
        model = CommunicationModel(model_raw)
    except ValueError:
        known = ", ".join(sorted(m.value for m in CommunicationModel))
        _fail(source, "model", f"unknown communication model {model_raw!r}; known models: {known}")
    knowledge = None
    if raw.get("knowledge") is not None:
        try:
            knowledge = Knowledge(raw["knowledge"])
        except ValueError:
            known = ", ".join(sorted(k.value for k in Knowledge))
            _fail(
                source,
                "knowledge",
                f"unknown help level {raw['knowledge']!r}; known levels: {known}",
            )
    rounds = _required(raw, "rounds", source)
    if not _plain_int(rounds) or rounds < 1:
        _fail(source, "rounds", f"must be a positive integer, got {rounds!r}")
    seeds_raw = _required(raw, "seeds", source)
    if not isinstance(seeds_raw, list) or not seeds_raw:
        _fail(source, "seeds", f"expected a non-empty list of seeds, got {seeds_raw!r}")
    seeds = tuple(
        _int_in(source, f"seeds[{i}]", s, 0) for i, s in enumerate(seeds_raw)
    )
    graphs = _validate_graphs(_required(raw, "graphs", source), source)
    probes_raw = _required(raw, "probes", source)
    if not isinstance(probes_raw, list) or not probes_raw:
        _fail(source, "probes", f"expected a non-empty list of probes, got {probes_raw!r}")
    for i, probe in enumerate(probes_raw):
        if not isinstance(probe, str) or probe not in PROBES:
            _fail(
                source,
                f"probes[{i}]",
                f"unknown probe {probe!r}; known probes: {', '.join(sorted(PROBES))}",
            )
        if PROBES[probe].model is not model:
            _fail(
                source,
                f"probes[{i}]",
                f"probe {probe!r} runs under {PROBES[probe].model.value!r}, "
                f"not {model.value!r}",
            )
    inputs = _required(raw, "inputs", source)
    if not isinstance(inputs, str) or inputs not in INPUT_PATTERNS:
        _fail(
            source,
            "inputs",
            f"unknown input pattern {inputs!r}; known patterns: "
            f"{', '.join(sorted(INPUT_PATTERNS))}",
        )
    return Scenario(
        name=name, kind="grid", source=str(source), engine=engine,
        model=model, knowledge=knowledge, rounds=rounds, seeds=seeds,
        graphs=graphs, probes=tuple(probes_raw), inputs=inputs, title=title,
    )
