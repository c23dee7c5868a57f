"""Per-layer metrics from the spans of a traced run.

Spans are attributed to *operations* — iterations of an in-process
workload, or the jobs and warm revalidations of the serve workload.  A
span belongs to the job it names, else to the job of its nearest
ancestor, else to the operation whose time window contains its start
(the load is one closed-loop client, so windows never overlap).

Each time or count metric is the median, over operations of one kind, of
that operation's total; a layer's time counts only its outermost spans,
so recursion is not counted twice.  A metric whose layer the workload
never reached is ``None`` — absent, not zero.
"""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional

from perfbench.metrics import PER_LAYER, QUOTIENT_FALLBACK_REASONS
from perfbench.spans import END, JOB, NAME, OUTER, PARENT, SID, START, TAG, VALUE


class OpSpans:
    """The spans attributed to one operation."""

    def __init__(self, op: Dict[str, Any], spans: List[tuple]):
        self.op = op
        self.spans = spans
        self._outer: Dict[str, List[tuple]] = defaultdict(list)
        for s in spans:
            if s[OUTER]:
                self._outer[s[NAME]].append(s)

    def outer(self, name: str, tag: Optional[str] = None) -> List[tuple]:
        found = self._outer.get(name, [])
        return found if tag is None else [s for s in found if s[TAG] == tag]

    def time(self, name: str, tag: Optional[str] = None) -> float:
        return sum(s[END] - s[START] for s in self.outer(name, tag))

    def count(self, name: str, tag: Optional[str] = None) -> int:
        return len(self.outer(name, tag))

    def first(self, name: str) -> Optional[tuple]:
        found = self.outer(name)
        return min(found, key=lambda s: s[START]) if found else None


def attribute(spans: List[tuple], ops: List[Dict[str, Any]]) -> Dict[Any, OpSpans]:
    """Group ``spans`` by operation (see the module docstring)."""
    by_sid = {s[SID]: s for s in spans}
    job_ops = {op["job"]: op["id"] for op in ops if op.get("job")}
    windows = sorted((op["start"], op["end"], op["id"]) for op in ops)
    starts = [w[0] for w in windows]
    grouped: Dict[Any, List[tuple]] = defaultdict(list)

    def job_of(span: tuple) -> Optional[str]:
        while span is not None:
            job = span[JOB]
            if isinstance(job, tuple):
                job = job[0] if len(job) == 1 else None
            if job is not None:
                return job
            span = by_sid.get(span[PARENT])
        return None

    for span in spans:
        op_id = job_ops.get(job_of(span))
        if op_id is None:
            i = bisect.bisect_right(starts, span[START]) - 1
            if i >= 0 and span[START] <= windows[i][1]:
                op_id = windows[i][2]
        if op_id is not None:
            grouped[op_id].append(span)
    return {op["id"]: OpSpans(op, grouped.get(op["id"], [])) for op in ops}


def _median(values: Iterable[Optional[float]]) -> Optional[float]:
    kept = [v for v in values if v is not None]
    return statistics.median(kept) if kept else None


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


def _stepper_self(op: OpSpans, children: Dict[Any, float]) -> float:
    return sum(
        (s[END] - s[START]) - children.get(s[SID], 0.0)
        for s in op.outer("engine.stepper")
    )


def engine_metrics(
    ops: List[OpSpans],
    all_spans: List[tuple],
    quotient: Optional[List[Dict[str, Any]]] = None,
    memo: Optional[Dict[str, int]] = None,
) -> Dict[str, Optional[float]]:
    """Engine-path layers.  ``quotient`` holds per-operation deltas of
    ``quotient_stats()`` and ``memo`` the minimum-base hit/miss totals,
    where the workload could read them (in-process only)."""
    children: Dict[Any, float] = defaultdict(float)
    by_sid = {s[SID]: s for s in all_spans}
    plan_lookups = compiles = 0
    for s in all_spans:
        parent = by_sid.get(s[PARENT])
        if parent is not None and parent[NAME] == "engine.stepper":
            children[s[PARENT]] += s[END] - s[START]
        if s[NAME] == "engine.plan" and s[OUTER]:
            plan_lookups += 1
        if s[NAME] == "engine.plan.compile" and parent is not None and parent[NAME] == "engine.plan":
            compiles += 1

    def reached(name: str, tag: Optional[str] = None) -> bool:
        return any(op.count(name, tag) for op in ops)

    def per_op(fn: Callable[[OpSpans], float], present: bool) -> Optional[float]:
        return _median(fn(op) for op in ops) if present and ops else None

    def compiled(op: OpSpans) -> List[tuple]:
        lookups = {s[SID] for s in op.spans if s[NAME] == "engine.plan"}
        return [s for s in op.spans if s[NAME] == "engine.plan.compile" and s[PARENT] in lookups]

    vector = reached("engine.construct", "VectorExecution")
    quotient_built = sum(op.count("engine.construct", "QuotientExecution") for op in ops)
    out: Dict[str, Optional[float]] = {
        "tables.static_cell_s": per_op(lambda op: op.time("tables.cell", "static"), reached("tables.cell", "static")),
        "tables.dynamic_cell_s": per_op(lambda op: op.time("tables.cell", "dynamic"), reached("tables.cell", "dynamic")),
        "convergence.outputs_s": per_op(lambda op: op.time("convergence.outputs"), reached("convergence.outputs")),
        "convergence.outputs_calls": per_op(lambda op: op.count("convergence.outputs"), reached("convergence.outputs")),
        "linalg.kernel_basis_s": per_op(lambda op: op.time("linalg.kernel_basis"), reached("linalg.kernel_basis")),
        "linalg.kernel_basis_calls": per_op(lambda op: op.count("linalg.kernel_basis"), reached("linalg.kernel_basis")),
        "memo.minimum_base_s": per_op(lambda op: op.time("memo.minimum_base"), reached("memo.minimum_base")),
        "memo.minimum_base_hit_ratio": (
            _ratio(memo["hits"], memo["hits"] + memo["misses"]) if memo else None
        ),
        "scenarios.graph_build_s": per_op(lambda op: op.time("scenarios.graph_build"), reached("scenarios.graph_build")),
        "scenarios.validate_calls_per_job": per_op(lambda op: op.count("scenarios.validate"), reached("scenarios.validate")),
        "scenarios.validate_s": per_op(lambda op: op.time("scenarios.validate"), reached("scenarios.validate")),
        "engine.construct_s": per_op(lambda op: op.time("engine.construct"), reached("engine.construct")),
        "engine.rounds": per_op(lambda op: op.count("engine.step"), reached("engine.step")),
        "engine.step_s": per_op(lambda op: op.time("engine.step"), reached("engine.step")),
        "engine.plan.compiles": per_op(lambda op: len(compiled(op)), reached("engine.plan")),
        "engine.plan.compile_s": per_op(
            lambda op: sum(s[END] - s[START] for s in compiled(op)), reached("engine.plan")
        ),
        "engine.plan.hit_ratio": _ratio(plan_lookups - compiles, plan_lookups),
        "engine.transport_s": per_op(lambda op: op.time("engine.transport"), reached("engine.transport")),
        "engine.stepper.self_s": per_op(lambda op: _stepper_self(op, children), reached("engine.stepper")),
        "engine.vector.csr_s": per_op(lambda op: op.time("engine.vector.csr"), vector),
        "engine.vector.kernel_step_s": per_op(lambda op: op.time("engine.vector.kernel_step"), vector),
        "engine.vector.unpack_calls": per_op(lambda op: op.count("engine.vector.unpack"), vector),
        "engine.vector.unpack_s": per_op(lambda op: op.time("engine.vector.unpack"), vector),
    }
    present = bool(quotient) and quotient_built > 0
    out["engine.quotient.activations"] = (
        _median(q["activations"] for q in quotient) if present else None
    )
    for reason in QUOTIENT_FALLBACK_REASONS:
        out[f"engine.quotient.fallbacks.{reason}"] = (
            _median(q["fallback_reasons"].get(reason, 0) for q in quotient) if present else None
        )
    out["engine.quotient.useful_ratio"] = (
        _ratio(sum(q["activations"] for q in quotient), quotient_built) if present else None
    )
    return out


def service_metrics(
    cold: List[OpSpans], traced: List[OpSpans], all_spans: List[tuple]
) -> Dict[str, Optional[float]]:
    """Service-path layers of the serve workload.  Each job operation
    carries the client's timestamps (``post_start``/``post_end``,
    ``end_recv``, ``get_start``/``get_end``)."""
    claims = [s for s in all_spans if s[NAME] == "queue.claim" and s[OUTER]]
    empty = sum(1 for s in claims if not s[VALUE])

    def job_split(op: OpSpans) -> Optional[Dict[str, float]]:
        job = op.op
        submit, run, complete = op.first("queue.submit"), op.first("jobs.run"), op.first("queue.complete")
        claim = next((s for s in claims if s[JOB] and job["job"] in s[JOB]), None)
        if None in (submit, run, complete, claim):
            return None
        return {
            "post": job["post_end"] - job["post_start"],
            "wait": claim[END] - submit[END],
            "dispatch": run[START] - claim[END],
            "run": run[END] - run[START],
            "notify": job["end_recv"] - complete[START],
            "get": job["get_end"] - job["get_start"],
        }

    splits = [job_split(op) for op in cold]
    unexplained = 0
    for op in cold + traced:
        split = job_split(op)
        latency = op.op["get_end"] - op.op["post_start"]
        if split is None or abs(sum(split.values()) - latency) > 0.1 * latency:
            unexplained += 1

    def split_median(part: str) -> Optional[float]:
        return _median(s[part] if s else None for s in splits)

    def med(ops: List[OpSpans], fn: Callable[[OpSpans], float]) -> Optional[float]:
        return _median(fn(op) for op in ops) if ops else None

    return {
        "service.post_s": split_median("post"),
        "service.get_result_s": split_median("get"),
        "scenarios.validate_calls_per_job": med(cold, lambda op: op.count("scenarios.validate")),
        "scenarios.validate_s": med(cold, lambda op: op.time("scenarios.validate")),
        "queue.submit_s": med(cold, lambda op: op.time("queue.submit")),
        "queue.wait_s": split_median("wait"),
        "queue.empty_claim_ratio": _ratio(empty, len(claims)),
        "orchestrator.dispatch_s": split_median("dispatch"),
        "jobs.run_s": split_median("run"),
        "atomic.fsyncs_per_job": med(cold, lambda op: op.count("atomic.write")),
        "atomic.write_s": med(cold, lambda op: op.time("atomic.write")),
        "store.put_s": med(cold, lambda op: op.time("store.put")),
        "store.contains_s": med(cold, lambda op: op.time("store.contains")),
        "events.appends_per_job": med(traced, lambda op: op.count("events.append")),
        "events.reads_per_job": med(traced, lambda op: op.count("events.read")),
        "events.bytes_read_per_job": med(
            traced, lambda op: sum(s[VALUE] or 0 for s in op.outer("events.read"))
        ),
        "service.notify_lag_s": split_median("notify"),
        "trace.unexplained_jobs": unexplained if cold or traced else None,
    }


def complete(values: Dict[str, Optional[float]]) -> Dict[str, Optional[float]]:
    """Every per-layer metric name, ``None`` where ``values`` lacks it."""
    return {name: values.get(name) for name, _unit in PER_LAYER}
