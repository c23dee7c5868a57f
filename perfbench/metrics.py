"""The metric catalogue: every name the benchmark reports, with its unit.

``BENCHMARK.json`` at the repository root mirrors these tables (the
self-tests check that the two agree), so this module is the one place a
metric is defined.

End-to-end metrics are reported by every workload, measured with
tracing off.  The three *lanes* are the three kinds of request a
workload repeats:

==============  ===================  ===================  ======================
workload        lane1                lane2                lane3
==============  ===================  ===================  ======================
paper_tables    Table 1 document     Table 2 document     both tables (one
                                                          iteration)
grid_sweep      object-engine doc    vector-engine doc    quotient-engine doc
serve_onebit    cold job             ``?trace=1`` job     warm 303 + 304 pair
==============  ===================  ===================  ======================

``laneN_s`` is the lane's typical latency: the median for serve_onebit,
the mean for the in-process workloads.  A served job's latency is
quantized by the service's 150 ms SSE poll; its median stays in the
first tick, while its mean and p90 move with the share of jobs that
miss it, which follows host load (the p90 flips between ~0.16 and
~0.32 s).  An in-process lane has ~20 samples a run from a host that
switches between speed states, where the mean is steadier than the
median.  The p50, p90 and mean of every lane, with its sample count,
are in each run's record; tail percentiles are not gates.

``units_per_s`` counts table cells (paper_tables), grid rows over all
three engines (grid_sweep), or scenario units delivered by cold and
``?trace=1`` jobs (serve_onebit), per second of the program time that
produced them — a mean, so it also moves with the share of served jobs
that miss the first SSE poll.

CPU-bound timings (the in-process lanes, their set-up and the warm
lane) are scaled to a reference host speed measured by a calibration
loop run between iterations (:class:`perfbench.common.SpeedScale`);
the cold and ``?trace=1`` lanes are set by the SSE poll and stay raw.

Per-layer metrics come from the traced run.  Time and count metrics are
medians, over the traced run's operations, of one operation's total.
An operation is one iteration for paper_tables and grid_sweep, and one
cold job for serve_onebit (``events.*`` use the ``?trace=1`` jobs).
Ratios are taken over the whole traced run.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (name, unit, better, bound) — bound is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("units_per_s", "1/s", "higher", 0.25),
    ("lane1_s", "s", "lower", 0.25),
    ("lane2_s", "s", "lower", 0.25),
    ("lane3_s", "s", "lower", 0.25),
]

#: What each lane is, per workload (the names the run record uses).
LANES: Dict[str, Dict[str, str]] = {
    "paper_tables": {"lane1": "table1_doc", "lane2": "table2_doc", "lane3": "both_tables"},
    "grid_sweep": {"lane1": "object", "lane2": "vector", "lane3": "quotient"},
    "serve_onebit": {"lane1": "cold", "lane2": "traced", "lane3": "warm"},
}

#: Every reason :mod:`repro.core.engine.quotient` records for a fallback.
QUOTIENT_FALLBACK_REASONS = (
    "base-too-large",
    "disabled",
    "dynamic-network",
    "inputs-not-fibrewise-constant",
    "model-not-message-preserving",
    "model-violation",
    "outdegree-not-preserved",
    "output-port-model",
    "trivial-base",
)

#: (name, unit) of every per-layer metric.
PER_LAYER: List[Tuple[str, str]] = [
    ("tables.static_cell_s", "s"),
    ("tables.dynamic_cell_s", "s"),
    ("convergence.outputs_s", "s"),
    ("convergence.outputs_calls", "count"),
    ("linalg.kernel_basis_s", "s"),
    ("linalg.kernel_basis_calls", "count"),
    ("memo.minimum_base_s", "s"),
    ("memo.minimum_base_hit_ratio", "ratio"),
    ("scenarios.graph_build_s", "s"),
    ("engine.construct_s", "s"),
    ("engine.rounds", "count"),
    ("engine.step_s", "s"),
    ("engine.plan.compiles", "count"),
    ("engine.plan.compile_s", "s"),
    ("engine.plan.hit_ratio", "ratio"),
    ("engine.transport_s", "s"),
    ("engine.stepper.self_s", "s"),
    ("engine.vector.csr_s", "s"),
    ("engine.vector.kernel_step_s", "s"),
    ("engine.vector.unpack_calls", "count"),
    ("engine.vector.unpack_s", "s"),
    ("engine.quotient.activations", "count"),
    *[(f"engine.quotient.fallbacks.{reason}", "count") for reason in QUOTIENT_FALLBACK_REASONS],
    ("engine.quotient.useful_ratio", "ratio"),
    ("service.post_s", "s"),
    ("service.get_result_s", "s"),
    ("scenarios.validate_calls_per_job", "count"),
    ("scenarios.validate_s", "s"),
    ("queue.submit_s", "s"),
    ("queue.wait_s", "s"),
    ("queue.empty_claim_ratio", "ratio"),
    ("orchestrator.dispatch_s", "s"),
    ("jobs.run_s", "s"),
    ("atomic.fsyncs_per_job", "count"),
    ("atomic.write_s", "s"),
    ("store.put_s", "s"),
    ("store.contains_s", "s"),
    ("events.appends_per_job", "count"),
    ("events.reads_per_job", "count"),
    ("events.bytes_read_per_job", "B"),
    ("service.notify_lag_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unexplained_jobs", "count"),
]

WORKLOADS: Dict[str, str] = {
    "paper_tables": (
        "Tables 1 and 2 cold through run_scenario: exact-Fraction kernels "
        "under the detectors; lanes = Table 1 doc, Table 2 doc, both"
    ),
    "grid_sweep": (
        "60-row gossip-max grid, byte-identical under three engines: "
        "graph builds, set-up, plans, scrambling; lanes = object, vector, quotient"
    ),
    "serve_onebit": (
        "one-seed onebit job cold through a serve subprocess: queue, fsyncs, "
        "SSE polling; lanes = cold job, ?trace=1 job, warm 303+304 pair"
    ),
}

#: How long one run measures, in seconds.  The serve workload needs
#: about 0.33 s per iteration, so this yields >= 100 cold samples.
RUN_SECONDS = 36


def units(mode: str) -> Dict[str, str]:
    """Metric name -> unit for ``mode`` ``"end_to_end"`` or ``"per_layer"``."""
    if mode == "end_to_end":
        return {name: unit for name, unit, _better, _bound in END_TO_END}
    return dict(PER_LAYER)


def benchmark_spec() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": _better(name)}
            for name, unit in PER_LAYER
        ],
    }


def _better(name: str) -> str:
    """Direction of improvement for a per-layer metric."""
    if name.endswith("hit_ratio") or name.endswith("useful_ratio"):
        return "higher"
    if name.endswith(".activations"):
        return "higher"
    return "lower"
