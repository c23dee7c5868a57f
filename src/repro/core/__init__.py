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
"""

from repro.core.models import CommunicationModel
from repro.core.agent import (
    Algorithm,
    BroadcastAlgorithm,
    OneBitAlgorithm,
    OutdegreeAlgorithm,
    OutputPortAlgorithm,
)
from repro.core.execution import Execution
from repro.core.engine import (
    ENGINE_VERSION,
    BatchJob,
    BatchResult,
    MetricsRegistry,
    PlanCache,
    TraceEvent,
    Tracer,
    attach_tracers,
    events_from_jsonl,
    events_to_jsonl,
    merged_metrics,
    read_jsonl,
    run_batch,
    trace_execution,
    write_jsonl,
)
from repro.core.memo import (
    MemoCache,
    clear_memos,
    intern_graph,
    memo_disabled,
    memo_enabled,
    memo_stats,
    memoized_equitable_partition,
    memoized_minimum_base,
    publish_memo_metrics,
)
from repro.core.metrics import canonical_repr, discrete_metric, euclidean_metric
from repro.core.convergence import (
    ConvergenceReport,
    run_until_asymptotic,
    run_until_stable,
)
from repro.core.network_class import Knowledge, NetworkClassSpec
from repro.core.computability import (
    CellCharacterization,
    computable_class,
    table1,
    table2,
)

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
    "intern_graph",
    "memo_disabled",
    "memo_enabled",
    "memo_stats",
    "memoized_equitable_partition",
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
