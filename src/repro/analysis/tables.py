"""Cell-by-cell reproduction of Tables 1 and 2.

For every (communication model × help level) cell the harness runs:

* a **set-based probe** (the maximum) — must succeed everywhere;
* a **frequency-based probe** (the average) — must succeed exactly in the
  enriched models, and be refuted under simple broadcast by the
  shared-base cover pairs of :func:`~repro.analysis.impossibility.two_fibre_cover`;
* a **multiset-based probe** (the sum) — must succeed exactly with known
  ``n`` or a leader in the enriched models, and be refuted otherwise by
  the ring collapse of §4.1.

The *measured class* of a cell is the largest probe class that both
succeeded positively and whose next class up was experimentally refuted
(or is the top).  ``CellResult.consistent`` compares it against the
paper's Table 1/2 entry (:mod:`repro.core.computability`); open cells
("?" in Table 2) are consistent when the measurement is a sound lower
bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.algorithms.constant_weight import ConstantWeightFrequency
from repro.algorithms.gossip import GossipAlgorithm
from repro.algorithms.history_tree import HistoryTreeAlgorithm
from repro.algorithms.push_sum_frequency import PushSumFrequencyAlgorithm
from repro.algorithms.frequency_static import StaticFunctionAlgorithm
from repro.analysis.impossibility import (
    demonstrate_collapse,
    outputs_match,
    two_fibre_cover,
    verify_lifting_on_outputs,
)
from repro.analysis.provenance import Manifest, network_fingerprint
from repro.analysis.reporting import render_table
from repro.core.computability import (
    CellCharacterization,
    ROW_ORDER,
    TABLE1_MODELS,
    TABLE2_MODELS,
    computable_class,
)
from repro.algorithms.push_sum import PushSumAlgorithm
from repro.core.engine import ENGINE_VERSION, BatchJob, EngineFlags, PlanCache, run_batch
from repro.core.models import CommunicationModel
from repro.core.network_class import Knowledge
from repro.core.memo import memoized, memoized_minimum_base
from repro.dynamics.generators import random_dynamic_strongly_connected, random_dynamic_symmetric
from repro.functions.classes import FunctionClass
from repro.functions.library import AVERAGE, MAXIMUM, SUM
from repro.graphs.builders import random_strongly_connected, random_symmetric_connected
from repro.graphs.digraph import DiGraph
from repro.graphs.views import ViewBuilder


@dataclass
class CellResult:
    """Outcome of reproducing one table cell."""

    model: CommunicationModel
    knowledge: Knowledge
    dynamic: bool
    expected: CellCharacterization
    measured: Optional[FunctionClass]
    consistent: bool
    details: List[str] = field(default_factory=list)
    #: Provenance of the cell's probes (seed, network fingerprint, model,
    #: help level, engine generation) — deterministic fields only, so
    #: every run of the cell carries the same manifest.
    manifest: Optional[Manifest] = None

    def label(self) -> str:
        if self.measured is None:
            return "(none measured)"
        return self.measured.label


def cell_to_payload(result: CellResult) -> Dict[str, Any]:
    """The JSON-safe record of one cell — the shape certificates embed
    and the durable :mod:`repro.store` persists.  Everything in it is
    deterministic, so two processes that compute the same cell write the
    same bytes."""
    return {
        "model": result.model.value,
        "knowledge": result.knowledge.value,
        "dynamic": result.dynamic,
        "measured_class": None if result.measured is None else result.measured.label,
        "paper_class": result.expected.label(),
        "paper_note": result.expected.note,
        "open_question": result.expected.open_question,
        "consistent": result.consistent,
        "details": list(result.details),
        "manifest": None if result.manifest is None else result.manifest.to_dict(),
    }


def cell_from_payload(payload: Dict[str, Any]) -> CellResult:
    """Rebuild a :class:`CellResult` from :func:`cell_to_payload` output.

    The paper-side expectation is re-derived from the computability
    oracle (not trusted from disk), mirroring ``verify_certificate``;
    a payload with unknown enum values or a missing field raises, which
    the store layer treats as a corrupt entry and recomputes.
    """
    model = CommunicationModel(payload["model"])
    knowledge = Knowledge(payload["knowledge"])
    dynamic = bool(payload["dynamic"])
    expected = computable_class(model, knowledge, dynamic=dynamic)
    measured_label = payload["measured_class"]
    if measured_label is None:
        measured = None
    else:
        measured = next(fc for fc in FunctionClass if fc.label == measured_label)
    manifest = payload.get("manifest")
    return CellResult(
        model,
        knowledge,
        dynamic,
        expected,
        measured,
        bool(payload["consistent"]),
        list(payload["details"]),
        None if manifest is None else Manifest.from_dict(manifest),
    )


# ---------------------------------------------------------------------- #
# probes
# ---------------------------------------------------------------------- #

_INPUTS = [3, 1, 1, 4, 1, 4]  # multiplicities 1:3, 4:2, 3:1 — all classes distinct


def _probe_inputs(n: int) -> List[Any]:
    """A length-``n`` input vector with unequal value multiplicities."""
    return [_INPUTS[i % len(_INPUTS)] for i in range(n)]


_STATIC_ROUNDS = 60
_DYNAMIC_ROUNDS = 500
_PATIENCE = 5


def _with_leader(inputs: List[Any]) -> List[Any]:
    return [(v, i == 0) for i, v in enumerate(inputs)]


def _static_graph(model: CommunicationModel, n: int, seed: int) -> DiGraph:
    if model is CommunicationModel.SYMMETRIC:
        return random_symmetric_connected(n, seed=seed)
    return random_strongly_connected(n, seed=seed)


def _exact_job(algorithm, network, inputs, target, rounds, label="") -> BatchJob:
    """A δ0 probe as a batch job (the shape ``run_batch`` consumes)."""
    return BatchJob(
        algorithm,
        network,
        inputs=inputs,
        runner="stable",
        rounds=rounds,
        patience=_PATIENCE,
        target=target,
        label=label,
    )


def _run_exact(
    algorithm, network, inputs, target, rounds, plan_cache=None, engine=EngineFlags(),
) -> bool:
    (result,) = run_batch(
        [_exact_job(algorithm, network, inputs, target, rounds)],
        plan_cache=plan_cache,
        engine=engine,
    )
    return result.converged


def _broadcast_refutation(f: Callable, knowledge: Knowledge, rounds: int = 24) -> bool:
    """True iff the cover pair refutes computing ``f`` under broadcast.

    Picks cover cardinalities legal for the help level, checks ``f``
    differs across the pair, and verifies (Lifting lemma) that gossip-class
    executions on both covers track the shared base — hence any algorithm's
    outputs coincide while ``f``'s values differ.
    """
    if knowledge is Knowledge.EXACT_N:
        pair = ((1, 3), (2, 2))  # same n = 4
    else:
        pair = ((1, 2), (1, 3))
    leader = knowledge is Knowledge.LEADER

    def build(z):
        value_a = (9, True) if leader else 9
        value_c = (1, False) if leader else 1
        return two_fibre_cover(*z, value_a=value_a, value_c=value_c)

    g1, g2 = build(pair[0]), build(pair[1])
    raw = (lambda vec: f([v[0] if isinstance(v, tuple) else v for v in vec])) if leader else f
    v1 = list(g1.values)
    v2 = list(g2.values)
    # Tolerance comparison, not exact repr: float rounding noise between
    # the two covers must not masquerade as a refutation.
    if outputs_match(raw(v1), raw(v2)):
        return False
    # Content-memoized: many cells refute with the same cover pair, and
    # the whole document computes each distinct cover's base once.
    mb1, mb2 = memoized_minimum_base(g1), memoized_minimum_base(g2)
    ok1 = verify_lifting_on_outputs(mb1.fibration, GossipAlgorithm, list(mb1.base.values), rounds)
    ok2 = verify_lifting_on_outputs(mb2.fibration, GossipAlgorithm, list(mb2.base.values), rounds)
    return ok1 and ok2


def _cell_manifest(
    dynamic: bool,
    model: CommunicationModel,
    knowledge: Knowledge,
    network,
    n: int,
    seed: int,
    rounds: int,
) -> Manifest:
    """The provenance record for one table cell's probes.

    Static cells additionally record the quotient geometry — minimum-base
    size versus full size.  The sizes are pure content of the probe graph
    (computed via the memo layer whether or not the cell actually ran on
    the quotient), so the manifest — and hence the cell's stored payload —
    stays byte-identical across quotient-on and quotient-off runs.
    """
    extra: Dict[str, Any] = {}
    if isinstance(network, DiGraph):
        mb = memoized_minimum_base(network)
        extra["quotient"] = {"base_n": mb.base.n, "full_n": network.n}
    return Manifest(
        kind="table2-cell" if dynamic else "table1-cell",
        seed=seed,
        n=n,
        rounds=rounds,
        graph_hash=network_fingerprint(network),
        model=model.value,
        knowledge=knowledge.value,
        extra=extra,
    )


def _sum_refutation(model: CommunicationModel, rounds: int = 24) -> bool:
    """§4.1 ring collapse: the sum differs across ``R_4`` and ``R_8`` with
    frequency-equal inputs, while outputs are forced equal.

    Pure in its arguments, so it is memoized by them (``sum_refutation``
    in :mod:`repro.core.memo`): a table computes each distinct model's
    refutation once."""

    def refute() -> bool:
        base_values = [1, 2]
        outcome = demonstrate_collapse(
            GossipAlgorithm, n=4, m=8, base_values=base_values, rounds=rounds, model=model
        )
        sums = (sum(base_values) * 2, sum(base_values) * 4)
        return outcome.lifted and sums[0] != sums[1]

    return memoized("sum_refutation", (model, rounds), refute)


# ---------------------------------------------------------------------- #
# static cells
# ---------------------------------------------------------------------- #

def run_static_cell(
    model: CommunicationModel,
    knowledge: Knowledge,
    n: int = 6,
    seed: int = 0,
    plan_cache: Optional[PlanCache] = None,
    engine: EngineFlags = EngineFlags(),
) -> CellResult:
    """Reproduce one Table 1 cell experimentally.

    All positive probes of the cell go through :func:`run_batch` on a
    shared ``plan_cache``, so the cell's graph is compiled into a
    delivery plan once for every probe that runs on it, on the backend
    :func:`~repro.core.engine.batch.select_backend` picks for
    ``engine``.  Cell results and manifests are identical on every
    backend.
    """
    expected = computable_class(model, knowledge, dynamic=False)
    details: List[str] = []
    inputs = _probe_inputs(n)
    leader = knowledge is Knowledge.LEADER
    run_inputs = _with_leader(inputs) if leader else inputs
    graph = _static_graph(model, n, seed)
    manifest = _cell_manifest(False, model, knowledge, graph, n, seed, _STATIC_ROUNDS)

    if model is CommunicationModel.SIMPLE_BROADCAST:
        got_max = _run_exact(
            GossipAlgorithm(max),
            graph,
            [v[0] if leader else v for v in run_inputs] if leader else run_inputs,
            MAXIMUM(inputs),
            _STATIC_ROUNDS,
            plan_cache=plan_cache,
            engine=engine,
        )
        details.append(f"max via gossip: {'ok' if got_max else 'FAILED'}")
        refuted_freq = _broadcast_refutation(AVERAGE, knowledge)
        details.append(
            "average refuted by shared-base covers" if refuted_freq else "average refutation FAILED"
        )
        measured = FunctionClass.SET_BASED if (got_max and refuted_freq) else None
        return CellResult(
            model, knowledge, False, expected, measured,
            measured is expected.function_class, details, manifest,
        )

    # Enriched models: the static pipeline, probes batched on one cache
    # and run on one view builder, so the probes exchange the same views
    # and share their extracted bases and fibre solves.
    builder = ViewBuilder()

    def alg(f):
        if leader:
            return StaticFunctionAlgorithm(
                f, model, knowledge=knowledge, leader_count=1, builder=builder
            )
        return StaticFunctionAlgorithm(f, model, knowledge=knowledge, n=n, builder=builder)

    multiset_cell = knowledge in (Knowledge.EXACT_N, Knowledge.LEADER)
    probes = [(MAXIMUM, "max"), (AVERAGE, "average")]
    if multiset_cell:
        probes.append((SUM, "sum"))
    results = run_batch(
        [
            _exact_job(alg(f), graph, run_inputs, f(inputs), _STATIC_ROUNDS, label=name)
            for f, name in probes
        ],
        plan_cache=plan_cache,
        engine=engine,
    )
    verdicts = {r.label: r.converged for r in results}
    got_max, got_avg = verdicts["max"], verdicts["average"]
    details.append(f"max: {'ok' if got_max else 'FAILED'}; average: {'ok' if got_avg else 'FAILED'}")

    if multiset_cell:
        got_sum = verdicts["sum"]
        details.append(f"sum: {'ok' if got_sum else 'FAILED'}")
        measured = FunctionClass.MULTISET_BASED if (got_max and got_avg and got_sum) else None
    else:
        refuted_sum = _sum_refutation(model)
        details.append(
            "sum refuted by ring collapse" if refuted_sum else "sum refutation FAILED"
        )
        measured = (
            FunctionClass.FREQUENCY_BASED if (got_max and got_avg and refuted_sum) else None
        )
    return CellResult(
        model, knowledge, False, expected, measured,
        measured is expected.function_class, details, manifest,
    )


# ---------------------------------------------------------------------- #
# dynamic cells
# ---------------------------------------------------------------------- #

def run_dynamic_cell(
    model: CommunicationModel,
    knowledge: Knowledge,
    n: int = 5,
    seed: int = 0,
    plan_cache: Optional[PlanCache] = None,
    engine: EngineFlags = EngineFlags(),
) -> CellResult:
    """Reproduce one Table 2 cell experimentally.

    For the open cells ("?") the measurement is a demonstrated *lower
    bound* (Corollary 5.5 / §5.5) and consistency means not contradicting
    the impossibility side.  As in :func:`run_static_cell`, every
    positive probe goes through :func:`run_batch` on a shared plan cache.
    """
    expected = computable_class(model, knowledge, dynamic=True)
    details: List[str] = []
    inputs = _probe_inputs(n)
    leader = knowledge is Knowledge.LEADER
    run_inputs = _with_leader(inputs) if leader else inputs

    if model is CommunicationModel.SIMPLE_BROADCAST:
        dyn = random_dynamic_strongly_connected(n, seed=seed)
        got_max = _run_exact(GossipAlgorithm(max), dyn,
                             [v[0] for v in run_inputs] if leader else run_inputs,
                             MAXIMUM(inputs), _STATIC_ROUNDS, plan_cache=plan_cache,
                             engine=engine)
        refuted_freq = _broadcast_refutation(AVERAGE, knowledge)
        details.append(f"max via gossip: {'ok' if got_max else 'FAILED'}")
        details.append(
            "average refuted by shared-base covers (static ⊂ dynamic)"
            if refuted_freq else "average refutation FAILED"
        )
        measured = FunctionClass.SET_BASED if (got_max and refuted_freq) else None
        manifest = _cell_manifest(True, model, knowledge, dyn, n, seed, _STATIC_ROUNDS)
        return CellResult(
            model, knowledge, True, expected, measured,
            measured is expected.function_class, details, manifest,
        )

    if model is CommunicationModel.OUTDEGREE_AWARE and knowledge is Knowledge.NONE:
        # Open cell: demonstrate the Corollary 5.5 lower bound — set-based
        # exactly (gossip) plus continuous-in-frequency asymptotically
        # (Push-Sum average), with the sum refuted.
        dyn = random_dynamic_strongly_connected(n, seed=seed)
        max_result, avg_result = run_batch(
            [
                _exact_job(GossipAlgorithm(max), dyn, run_inputs, MAXIMUM(inputs),
                           _STATIC_ROUNDS, label="max"),
                BatchJob(
                    PushSumAlgorithm(),
                    dyn,
                    inputs=[float(v) for v in run_inputs],
                    runner="asymptotic",
                    rounds=_DYNAMIC_ROUNDS,
                    tolerance=1e-6,
                    target=float(AVERAGE(inputs)),
                    label="average",
                ),
            ],
            plan_cache=plan_cache,
            engine=engine,
        )
        got_max, avg_report = max_result.converged, avg_result.report
        refuted_sum = _sum_refutation(model)
        details.append(f"max via gossip: {'ok' if got_max else 'FAILED'}")
        details.append(
            "average asymptotically via Push-Sum (Corollary 5.5): "
            + ("ok" if avg_report.converged else "FAILED")
        )
        details.append("sum refuted by ring collapse" if refuted_sum else "sum refutation FAILED")
        details.append("paper leaves this cell open; measurement is a lower bound")
        measured = (
            FunctionClass.FREQUENCY_BASED
            if (got_max and avg_report.converged and refuted_sum)
            else None
        )
        manifest = _cell_manifest(True, model, knowledge, dyn, n, seed, _DYNAMIC_ROUNDS)
        return CellResult(
            model, knowledge, True, expected, measured, measured is not None,
            details, manifest,
        )

    if model is CommunicationModel.OUTDEGREE_AWARE:
        dyn = random_dynamic_strongly_connected(n, seed=seed)

        def make(f):
            if leader:
                return PushSumFrequencyAlgorithm(mode="multiset", f=f, leader_count=1)
            if knowledge is Knowledge.EXACT_N:
                return PushSumFrequencyAlgorithm(mode="multiset", f=f, n=n)
            return PushSumFrequencyAlgorithm(mode="exact", f=f, n_bound=n + 2)
    else:  # SYMMETRIC — algorithms matched to the paper's citations:
        # no help / leader -> history trees (Di Luna & Viglietta [26, 25]);
        # bound / exact n -> degree-blind constant-weight averaging of the
        # per-value indicators (CB & LM [11]).  The history-tree probes
        # share one view builder, hence their class solves.
        dyn = random_dynamic_symmetric(n, seed=seed)
        builder = ViewBuilder()

        def make(f):
            if leader:
                return HistoryTreeAlgorithm(
                    knowledge=Knowledge.LEADER, leader_count=1, f=f, builder=builder
                )
            if knowledge is Knowledge.EXACT_N:
                return ConstantWeightFrequency(mode="multiset", n=n, f=f)
            if knowledge is Knowledge.BOUND_N:
                return ConstantWeightFrequency(mode="exact", n_bound=n + 2, f=f)
            return HistoryTreeAlgorithm(knowledge=Knowledge.NONE, f=f, builder=builder)

    rounds = (
        _DYNAMIC_ROUNDS
        if model is CommunicationModel.OUTDEGREE_AWARE
        or knowledge in (Knowledge.BOUND_N, Knowledge.EXACT_N)
        else 30
    )
    multiset_cell = knowledge in (Knowledge.EXACT_N, Knowledge.LEADER)
    probes = [(MAXIMUM, "max"), (AVERAGE, "average")]
    if multiset_cell:
        probes.append((SUM, "sum"))
    results = run_batch(
        [
            _exact_job(make(f), dyn, run_inputs, f(inputs), rounds, label=name)
            for f, name in probes
        ],
        plan_cache=plan_cache,
        engine=engine,
    )
    verdicts = {r.label: r.converged for r in results}
    got_max, got_avg = verdicts["max"], verdicts["average"]
    details.append(f"max: {'ok' if got_max else 'FAILED'}; average: {'ok' if got_avg else 'FAILED'}")

    if multiset_cell:
        got_sum = verdicts["sum"]
        details.append(f"sum: {'ok' if got_sum else 'FAILED'}")
        measured = FunctionClass.MULTISET_BASED if (got_max and got_avg and got_sum) else None
    else:
        refuted_sum = _sum_refutation(
            CommunicationModel.SIMPLE_BROADCAST
            if model is CommunicationModel.SYMMETRIC
            else model
        )
        details.append("sum refuted by ring collapse" if refuted_sum else "sum refutation FAILED")
        measured = FunctionClass.FREQUENCY_BASED if (got_max and got_avg and refuted_sum) else None

    if expected.open_question:
        consistent = measured is not None  # sound lower bound demonstrated
        details.append("paper leaves this cell open; measurement is a lower bound")
    else:
        consistent = measured is expected.function_class
    manifest = _cell_manifest(True, model, knowledge, dyn, n, seed, rounds)
    return CellResult(model, knowledge, True, expected, measured, consistent, details, manifest)


# ---------------------------------------------------------------------- #
# whole tables
# ---------------------------------------------------------------------- #

def table_specs(dynamic: bool, n: int, seed: int) -> List[Tuple]:
    """The cell specs of one table, in document order — the unit list
    both the reproduce functions and the durable job runners iterate."""
    models = TABLE2_MODELS if dynamic else TABLE1_MODELS
    return [
        (dynamic, model, knowledge, n, seed)
        for knowledge in ROW_ORDER
        for model in models
    ]


def compute_cell(
    dynamic: bool,
    model: CommunicationModel,
    knowledge: Knowledge,
    n: int,
    seed: int,
    plan_cache: Optional[PlanCache] = None,
    store=None,
    engine: EngineFlags = EngineFlags(),
) -> CellResult:
    """One table cell, served from the durable result store when warm.

    ``store`` is a :class:`repro.store.cache.ResultStore` (or ``None``
    for compute-always).  Store keys bind the cell parameters *and* the
    engine generation; a corrupted entry is quarantined and recomputed,
    never served.  ``engine`` is deliberately *not* part of the store
    key: accelerated and direct probes produce byte-identical payloads
    (the Lifting lemma's contract and the vector backend's faithfulness
    contract, both pinned by the property suite), so any mode may serve
    another's cache.
    """
    def compute() -> CellResult:
        runner = run_dynamic_cell if dynamic else run_static_cell
        return runner(
            model, knowledge, n=n, seed=seed, plan_cache=plan_cache, engine=engine,
        )

    if store is None:
        return compute()
    from repro.store.cache import fetch_or_compute

    return fetch_or_compute(
        store,
        "table2-cell" if dynamic else "table1-cell",
        {
            "dynamic": dynamic,
            "model": model.value,
            "knowledge": knowledge.value,
            "n": n,
            "seed": seed,
        },
        compute,
        cell_to_payload,
        cell_from_payload,
    )


def _run_cells(
    specs,
    store=None,
    engine: EngineFlags = EngineFlags(),
    progress: Optional[Callable[[int, int], None]] = None,
) -> List[CellResult]:
    """Run table cells in spec order on one shared plan cache; ``store``
    short-circuits already-computed cells from disk, and
    ``progress(done, total)`` — when given — is invoked after every
    finished cell."""
    plan_cache = PlanCache()
    results = []
    for done, (dynamic, model, knowledge, n, seed) in enumerate(specs, start=1):
        results.append(
            compute_cell(
                dynamic, model, knowledge, n, seed, plan_cache=plan_cache,
                store=store, engine=engine,
            )
        )
        if progress is not None:
            progress(done, len(specs))
    return results


def reproduce_table1(
    n: int = 6,
    seed: int = 0,
    store=None,
    engine: EngineFlags = EngineFlags(),
) -> List[CellResult]:
    """Run all 16 static cells.

    The cells share one plan cache, so cells probing the same graph
    reuse its compiled delivery schedule.

    ``store`` makes the table durable: pass a
    :class:`repro.store.cache.ResultStore` (or a path) and every cell is
    served from disk when already computed, persisted when not —
    ``store=None`` defers to the ``REPRO_STORE`` environment variable
    (no store when unset).

    ``engine`` picks the backend every probe runs on
    (:func:`~repro.core.engine.batch.select_backend`): the quotient
    backend gives identical cells with faster rounds on symmetric probe
    graphs, the vector backend runs kernel-backed probes as numpy
    rounds."""
    from repro.store.cache import resolve_store

    return _run_cells(
        table_specs(False, n, seed), store=resolve_store(store), engine=engine,
    )


def reproduce_table2(
    n: int = 5,
    seed: int = 0,
    store=None,
    engine: EngineFlags = EngineFlags(),
) -> List[CellResult]:
    """Run all 12 dynamic cells; same ``store``/``engine`` contract as
    :func:`reproduce_table1` (quotient probes fall back to direct
    execution on dynamic graphs; the vector backend still runs the
    kernel-backed dynamic probes)."""
    from repro.store.cache import resolve_store

    return _run_cells(
        table_specs(True, n, seed), store=resolve_store(store), engine=engine,
    )


def table_document(
    kind: str, n: int, seed: int, cells: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Assemble the deterministic document of one reproduced table.

    Pure function of the cell payloads — no timestamps, no hostnames —
    so interrupted-and-resumed runs emit the same bytes as clean ones.
    """
    return {
        "kind": kind,
        "engine_version": ENGINE_VERSION,
        "parameters": {"n": n, "seed": seed},
        "cells": cells,
        "summary": {
            "cells": len(cells),
            "consistent": sum(1 for c in cells if c["consistent"]),
            "verdict": "PASS" if all(c["consistent"] for c in cells) else "FAIL",
        },
    }


def paper_table_document(
    table: int,
    n: Optional[int] = None,
    seed: int = 0,
    store=None,
    engine: EngineFlags = EngineFlags(),
    progress: Optional[Callable[[int, int], None]] = None,
) -> Dict[str, Any]:
    """The deterministic document of one paper table — the one builder
    behind ``configs/table1.json`` / ``table2.json``, the durable scenario
    jobs and the ``table1`` / ``table2`` jobs.

    Assembles :func:`table_document` over the
    :func:`cell_to_payload` records, in :func:`table_specs` order — so a
    scenario config, a ``store submit table1`` job, and a direct
    ``reproduce_table1`` call all emit byte-identical documents (on every
    backend: ``engine`` changes how cells are computed, never their
    payloads).

    ``progress(done, total)`` — when given — is invoked after every
    finished cell; the durable job runners heartbeat their queue lease
    there.
    """
    from repro.store.cache import resolve_store

    if table not in (1, 2):
        raise ValueError(f"table must be 1 or 2, got {table!r}")
    dynamic = table == 2
    if n is None:
        n = 5 if dynamic else 6
    results = _run_cells(
        table_specs(dynamic, n, seed), store=resolve_store(store),
        engine=engine, progress=progress,
    )
    return table_document(
        f"table{table}", n, seed, [cell_to_payload(r) for r in results]
    )


def format_results(results: List[CellResult], title: str) -> str:
    models = TABLE2_MODELS if results[0].dynamic else TABLE1_MODELS
    headers = ["help \\ model"] + [m.value for m in models]
    rows = []
    for knowledge in ROW_ORDER:
        row = [knowledge.value]
        for model in models:
            cell = next(r for r in results if r.model is model and r.knowledge is knowledge)
            mark = "✓" if cell.consistent else "✗"
            row.append(f"{cell.label()} {mark} (paper: {cell.expected.label()})")
        rows.append(row)
    return render_table(headers, rows, title=title)
