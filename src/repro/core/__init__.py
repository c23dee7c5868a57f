"""The computing model of Section 2: agents, models, executions.

:mod:`.models` — the four communication models; :mod:`.agent` — algorithms
as automata (state set, sending function, transition function);
:mod:`.execution` — the synchronous round executor over static and dynamic
graphs (a façade over the layered engine of :mod:`.engine`: compiled
delivery plans, flavor-resolved transports, the batch runner, and
round-level instrumentation); :mod:`.metrics` and :mod:`.convergence` —
δ-computation in metric spaces; :mod:`.network_class` — network classes
and centralized-help levels; :mod:`.computability` — the machine-readable
form of Tables 1 & 2.

Names resolve on first access (PEP 562): an untraced run never loads
the tracer, and a grid run never loads the tables of :mod:`.computability`.
"""

from repro import _lazy

_EXPORTS = {
    "repro.core.models": ("CommunicationModel",),
    "repro.core.agent": (
        "Algorithm", "BroadcastAlgorithm", "OneBitAlgorithm", "OutdegreeAlgorithm",
        "OutputPortAlgorithm",
    ),
    "repro.core.execution": ("Execution",),
    "repro.core.engine": ("ENGINE_VERSION",),
    "repro.core.engine.batch": ("BatchJob", "BatchResult", "run_batch"),
    "repro.core.engine.plan": ("PlanCache",),
    "repro.core.engine.trace": (
        "MetricsRegistry", "TraceEvent", "Tracer", "attach_tracers",
        "events_from_jsonl", "events_to_jsonl", "merged_metrics", "read_jsonl",
        "trace_execution", "write_jsonl",
    ),
    "repro.core.memo": (
        "MemoCache", "clear_memos", "memo_disabled", "memo_enabled", "memo_stats",
        "memoized_minimum_base", "publish_memo_metrics",
    ),
    "repro.core.metrics": ("canonical_repr", "discrete_metric", "euclidean_metric"),
    "repro.core.convergence": (
        "ConvergenceReport", "run_until_asymptotic", "run_until_stable",
    ),
    "repro.core.network_class": ("Knowledge", "NetworkClassSpec"),
    "repro.core.computability": (
        "CellCharacterization", "computable_class", "table1", "table2",
    ),
}

__all__ = [
    "ENGINE_VERSION",
    "Algorithm",
    "BatchJob",
    "BatchResult",
    "BroadcastAlgorithm",
    "CellCharacterization",
    "CommunicationModel",
    "ConvergenceReport",
    "Execution",
    "Knowledge",
    "MemoCache",
    "MetricsRegistry",
    "NetworkClassSpec",
    "OneBitAlgorithm",
    "OutdegreeAlgorithm",
    "OutputPortAlgorithm",
    "PlanCache",
    "TraceEvent",
    "Tracer",
    "attach_tracers",
    "canonical_repr",
    "clear_memos",
    "computable_class",
    "discrete_metric",
    "euclidean_metric",
    "events_from_jsonl",
    "events_to_jsonl",
    "memo_disabled",
    "memo_enabled",
    "memo_stats",
    "memoized_minimum_base",
    "merged_metrics",
    "publish_memo_metrics",
    "read_jsonl",
    "run_batch",
    "run_until_asymptotic",
    "run_until_stable",
    "trace_execution",
    "table1",
    "table2",
    "write_jsonl",
]

__getattr__, __dir__ = _lazy.lazy_exports(globals(), _EXPORTS)
