"""Compiling validated scenarios onto the engine and running them.

A ``"table"`` scenario compiles to the existing cell machinery
(:func:`repro.analysis.tables.paper_table_document`), so its document is
byte-identical to the hard-coded ``reproduce_table1/2`` paths and to the
durable table jobs — the golden-config tests pin exactly that.

A ``"grid"`` scenario compiles each (graph family × size × seed × probe)
unit to one :class:`~repro.core.engine.batch.BatchJob` driven by the δ0
detector.  The grid shares one
:class:`~repro.core.engine.plan.PlanCache`, one graph per distinct
network and one run per distinct network, input vector and probe.
Rows are served from the durable
:class:`~repro.store.cache.ResultStore` when one is configured — row
keys bind the unit parameters, the engine generation and
:data:`~repro.scenarios.registry.SCENARIO_VERSION`, never the engine
flags, so accelerated and direct runs share one cache.

Documents are pure functions of the rows (no timestamps, no hostnames);
:func:`document_bytes` is the single canonical serialization everything
— CLI, tests, CI artifacts — emits.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.engine import ENGINE_VERSION, BatchJob, EngineFlags, PlanCache, run_batch
from repro.scenarios.registry import GRAPH_FAMILIES, INPUT_PATTERNS, PROBES, SCENARIO_VERSION
from repro.scenarios.schema import Scenario


def document_bytes(document: Dict[str, Any]) -> bytes:
    """The canonical byte serialization of a scenario document (sorted
    keys, two-space indent, trailing newline) — what ``python -m repro
    run`` writes and the golden tests compare."""
    return (json.dumps(document, indent=2, sort_keys=True) + "\n").encode("utf-8")


def grid_units(scenario: Scenario) -> List[Tuple[str, int, int, str]]:
    """The (family, n, seed, probe) units of a grid scenario, in document
    order — the unit list both the runner and the durable job iterate."""
    return [
        (graph.family, n, seed, probe)
        for graph in scenario.graphs
        for n in graph.sizes
        for seed in scenario.seeds
        for probe in scenario.probes
    ]


def _json_safe(value: Any) -> Any:
    """Tuples become lists so computed rows match their store round-trip."""
    if isinstance(value, tuple):
        return [_json_safe(v) for v in value]
    return value


def _row_params(scenario: Scenario, family: str, n: int, seed: int, probe: str) -> Dict[str, Any]:
    """The store-key parameters of one grid row: everything that
    determines the row's content, nothing that only picks an engine mode
    (and not the scenario name — configs sharing units share cache).
    ``scenario_version`` stands for what the names mean: the probe's
    factory, target and oracle."""
    return {
        "scenario_version": SCENARIO_VERSION,
        "model": scenario.model.value,
        "knowledge": None if scenario.knowledge is None else scenario.knowledge.value,
        "rounds": scenario.rounds,
        "inputs": scenario.inputs,
        "graph": family,
        "n": n,
        "seed": seed,
        "probe": probe,
    }


def compute_grid_row(
    scenario: Scenario,
    family: str,
    n: int,
    seed: int,
    probe_name: str,
    plan_cache: Optional[PlanCache] = None,
    store=None,
    engine: EngineFlags = EngineFlags(),
    on_trace: Optional[Callable[[Dict[str, Any], List[Dict[str, Any]]], None]] = None,
    memo: Optional[Dict[Tuple[Any, ...], Any]] = None,
) -> Dict[str, Any]:
    """One grid unit: build the graph and inputs, run the probe under the
    δ0 detector, compare the verdict with the probe's oracle.  Served
    from ``store`` when warm (same fetch-or-compute contract as table
    cells).

    ``memo`` — when given — is one grid run's dict of what its units
    share, keyed by tuples led by a tag.  ``("graph", network)`` holds
    the graph built for :meth:`GraphFamily.network_key
    <repro.scenarios.registry.GraphFamily.network_key>`; graphs are
    immutable, so a shared one runs exactly like a fresh build.
    ``("run", network, bits, probe)`` holds the outcome of the δ0 run on
    that graph from that input vector, plus its round snapshots when
    tracing.  A run reads only the graph, the inputs, the probe and the
    round budget, so a later unit with the same key — another seed that
    the family and the input pattern both ignore — takes the recorded
    outcome under its own ``seed`` instead of running again.  The run
    entries assume one scenario, one engine setting and one ``on_trace``
    for every unit that reads them, as inside :func:`run_scenario`.
    Without ``memo`` every unit builds its graph and runs.

    ``on_trace(unit, snapshots)`` — when given — receives the unit's
    round-level :class:`~repro.core.engine.trace.Tracer` metric snapshots
    (one dict per round, wall-clock fields dropped) after the unit runs;
    a unit that reuses a recorded run receives that run's snapshots
    under its own unit.  Tracing rides the tracer's no-interference
    contract, so the row — and hence the document and its store key — is
    byte-identical with or without it.  Units served from the store run
    no rounds and report no snapshots.
    """
    probe = PROBES[probe_name]

    def run(graph, bits: List[int], target: Any) -> Tuple[Dict[str, Any], Any]:
        job = BatchJob(
            probe.factory(),
            graph,
            inputs=bits,
            runner="stable",
            rounds=scenario.rounds,
            patience=2,
            target=target,
            label=f"{probe_name}@{family}/n={n}/seed={seed}",
        )
        tracer = None
        if on_trace is not None:
            from repro.core.engine.trace import Tracer

            tracer = Tracer()
            job.observers.append(tracer)
        (result,) = run_batch([job], plan_cache=plan_cache, engine=engine)
        snapshots = None
        if tracer is not None:
            snapshots = [
                {"round": event.round, **event.deterministic_fields()}
                for event in tracer.events
                if event.kind == "round"
            ]
        report = result.report
        expected = probe.oracle(graph)
        outcome = {
            "converged": report.converged,
            "stabilization_round": report.stabilization_round,
            "rounds_run": report.rounds_run,
            "expected_convergence": expected,
            "consistent": report.converged == expected,
        }
        return outcome, snapshots

    def compute() -> Dict[str, Any]:
        spec = GRAPH_FAMILIES[family]
        shared = {} if memo is None else memo
        network = spec.network_key(n, seed)
        graph = shared.get(("graph", network))
        if graph is None:
            graph = shared[("graph", network)] = spec.build(n, seed)
        bits = INPUT_PATTERNS[scenario.inputs](n, seed)
        target = probe.target(bits, n)
        key = ("run", network, tuple(bits), probe_name)
        recorded = shared.get(key)
        if recorded is None:
            recorded = shared[key] = run(graph, bits, target)
        outcome, snapshots = recorded
        if on_trace is not None:
            on_trace(
                {"graph": family, "n": n, "seed": seed, "probe": probe_name},
                [dict(snapshot) for snapshot in snapshots],
            )
        return {
            "probe": probe_name,
            "graph": family,
            "n": n,
            "seed": seed,
            "inputs": scenario.inputs,
            "target": _json_safe(target),
            **outcome,
        }

    if store is None:
        return compute()
    from repro.store.cache import fetch_or_compute

    return fetch_or_compute(
        store,
        "scenario-row",
        _row_params(scenario, family, n, seed, probe_name),
        compute,
        lambda row: row,
        lambda payload: payload,
    )


def scenario_document(scenario: Scenario, rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Assemble the deterministic document of one grid scenario — same
    discipline as :func:`repro.analysis.tables.table_document`: a pure
    function of the rows, so interrupted-and-resumed runs emit the same
    bytes as clean ones."""
    consistent = sum(1 for row in rows if row["consistent"])
    return {
        "kind": "scenario",
        "engine_version": ENGINE_VERSION,
        "scenario": scenario.name,
        "parameters": scenario.identity(),
        "rows": rows,
        "summary": {
            "rows": len(rows),
            "consistent": consistent,
            "verdict": "PASS" if consistent == len(rows) else "FAIL",
        },
    }


def run_scenario(
    scenario: Scenario,
    store=None,
    progress: Optional[Callable[[int, int], None]] = None,
    on_trace: Optional[Callable[[Dict[str, Any], List[Dict[str, Any]]], None]] = None,
) -> Dict[str, Any]:
    """Execute a validated scenario; returns its deterministic document.

    ``store`` follows the harness convention (``None`` defers to
    ``REPRO_STORE``; a path or :class:`~repro.store.cache.ResultStore`
    makes units durable).  ``progress(done, total)`` is called after each
    finished unit — the durable scenario job heartbeats its lease there.
    ``on_trace`` forwards each computed grid unit's round-level tracer
    snapshots (see :func:`compute_grid_row`); it is ignored for table
    scenarios (their cells ride the table machinery, which reports unit
    progress only).

    A grid run builds each distinct network once per call —
    keyed by family and size, plus the seed for families that read it —
    so every later unit on it reuses the graph, its compiled plan and
    CSR, and its fingerprint.  It also runs each distinct (network,
    input vector, probe) once: a later unit with the same three takes
    the recorded row under its own seed, and its tracer snapshots are
    replayed to ``on_trace``.  Every unit still has its own store entry
    and ``progress`` call.  Nothing is shared across calls.
    """
    from repro.store.cache import resolve_store

    store = resolve_store(store)
    if scenario.kind == "table":
        from repro.analysis.tables import paper_table_document

        return paper_table_document(
            scenario.table,
            n=scenario.n,
            seed=scenario.seed,
            store=store,
            engine=scenario.engine,
            progress=progress,
        )

    units = grid_units(scenario)
    plan_cache = PlanCache()
    memo: Dict[Tuple[Any, ...], Any] = {}
    rows = []
    for done, (family, n, seed, probe) in enumerate(units, start=1):
        rows.append(
            compute_grid_row(
                scenario, family, n, seed, probe, plan_cache=plan_cache,
                store=store, engine=scenario.engine, on_trace=on_trace, memo=memo,
            )
        )
        if progress is not None:
            progress(done, len(units))
    return scenario_document(scenario, rows)


def format_scenario_document(document: Dict[str, Any]) -> str:
    """Render a scenario document for humans (``python -m repro run
    --pretty``): the paper-table grid for table documents, one row per
    grid unit otherwise."""
    if document["kind"] in ("table1", "table2"):
        from repro.analysis.tables import cell_from_payload, format_results

        titles = {
            "table1": "Table 1 — static strongly connected networks",
            "table2": "Table 2 — dynamic networks with finite dynamic diameter",
        }
        results = [cell_from_payload(cell) for cell in document["cells"]]
        return format_results(results, titles[document["kind"]])
    from repro.analysis.reporting import render_table

    headers = ["probe", "graph", "n", "seed", "converged", "expected", "verdict"]
    rows = [
        [
            row["probe"],
            row["graph"],
            str(row["n"]),
            str(row["seed"]),
            "yes" if row["converged"] else "no",
            "yes" if row["expected_convergence"] else "no",
            "✓" if row["consistent"] else "✗",
        ]
        for row in document["rows"]
    ]
    title = document["parameters"].get("title") or document["scenario"]
    return render_table(headers, rows, title=title)
