"""The layered execution engine.

The synchronous round executor of §2.2 is the hot path under every table
job and benchmark: each positive cell of Tables 1 and 2 is regenerated by
actually running algorithms round by round.  This package splits the old
monolithic interpreter into four independently swappable, independently
measurable layers:

1. **Plan** (:mod:`.plan`) — compiles one round's communication graph
   into a flat :class:`DeliveryPlan` (per-receiver source lists, port
   indices, outdegrees, model-precondition flags) and caches it in a
   :class:`PlanCache`.  A static network is compiled exactly once; a
   dynamic network compiles one plan per distinct round graph, bounded
   by the cache's LRU capacity and invalidated via
   :attr:`repro.dynamics.dynamic_graph.DynamicGraph.plan_epoch`.
2. **Transport** (:mod:`.transport`) — applies a plan to the current
   state vector for one communication-model flavor.  The
   ``isinstance`` dispatch on the algorithm flavor happens once per
   execution (:func:`transport_for`), not once per vertex per round,
   and delivery-order scrambling draws from a single per-execution RNG
   stream instead of constructing a fresh ``random.Random`` per agent
   per round.
3. **Stepper / batch** (:mod:`.stepper`, :mod:`.batch`) — the
   round-loop driver.  :class:`EngineStepper` backs the public
   :class:`repro.core.execution.Execution` façade; :func:`run_batch`
   executes many (algorithm, network, inputs) triples in process — the
   shape the table harness actually needs — sharing compiled plans
   across cells on the same graph.  :class:`EngineFlags` is the one
   backend setting every harness layer passes through, and
   :func:`select_backend` the one place that resolves it.
4. **Instrumentation** (:mod:`.instrumentation`) — round-level observer
   hooks (messages sent, payload units, state digests, wall time)
   feeding :mod:`repro.core.metrics` and
   :mod:`repro.analysis.bandwidth`, with zero overhead when no observer
   is attached.

:mod:`.reference` keeps a deliberately naive single-layer interpreter —
the executable specification the property tests compare the fast path
against, and the "old executor" baseline of ``benchmarks/bench_engine.py``.

Names resolve on first access (PEP 562), so importing one layer loads
none of the others; the quotient and vector layers subclass the
:class:`~repro.core.execution.Execution` façade, which itself imports
this package.
"""

#: Engine generation, stamped into provenance manifests: "1" was the
#: layered-engine refactor, "2" added the process-parallel backend, "3"
#: added the tracing/metrics/provenance layer, "4" the quotient execution
#: layer (manifests gained base-vs-full sizes; snapshot codec moved to
#: "2"), "5" the vectorized numpy backend and the ring-buffer tracer.
ENGINE_VERSION = "5"

from repro import _lazy

__getattr__, __dir__ = _lazy.lazy_exports(
    globals(),
    {
        "repro.core.engine.plan": ("DeliveryPlan", "PlanCache", "compile_plan"),
        "repro.core.engine.transport": (
            "BroadcastTransport", "OneBitTransport", "OutdegreeTransport",
            "OutputPortTransport", "Transport", "transport_for", "validate_bit",
        ),
        "repro.core.engine.instrumentation": (
            "BandwidthObserver", "MessageCountObserver", "RoundObserver", "RoundRecord",
            "SpreadObserver", "StateDigestObserver", "WallTimeObserver", "state_digest",
        ),
        "repro.core.engine.stepper": ("EngineStepper",),
        "repro.core.engine.reference": ("ReferenceExecution",),
        "repro.core.engine.batch": (
            "BatchJob", "BatchResult", "EngineFlags", "run_batch", "select_backend",
        ),
        "repro.core.engine.quotient": (
            "QuotientExecution", "QUOTIENT_RATIO", "clear_quotient_stats",
            "publish_quotient_metrics", "quotient_stats",
        ),
        "repro.core.engine.vector": (
            "VectorExecution", "CSRPlan", "VectorKernel", "clear_vector_stats",
            "csr_for", "kernel_for", "numpy_available", "publish_vector_metrics",
            "register_kernel", "vector_stats",
        ),
        "repro.core.engine.trace": (
            "Counter", "Gauge", "Histogram", "MetricsRegistry", "TraceEvent", "Tracer",
            "attach_tracers", "events_from_jsonl", "events_to_jsonl", "merged_metrics",
            "read_jsonl", "trace_execution", "write_jsonl",
        ),
    },
)

__all__ = [
    "Counter",
    "ENGINE_VERSION",
    "EngineFlags",
    "QUOTIENT_RATIO",
    "QuotientExecution",
    "clear_quotient_stats",
    "publish_quotient_metrics",
    "quotient_stats",
    "select_backend",
    "CSRPlan",
    "VectorExecution",
    "VectorKernel",
    "clear_vector_stats",
    "csr_for",
    "kernel_for",
    "numpy_available",
    "publish_vector_metrics",
    "register_kernel",
    "vector_stats",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceEvent",
    "Tracer",
    "attach_tracers",
    "events_from_jsonl",
    "events_to_jsonl",
    "merged_metrics",
    "read_jsonl",
    "trace_execution",
    "write_jsonl",
    "BandwidthObserver",
    "BatchJob",
    "BatchResult",
    "BroadcastTransport",
    "DeliveryPlan",
    "EngineStepper",
    "MessageCountObserver",
    "OneBitTransport",
    "OutdegreeTransport",
    "OutputPortTransport",
    "PlanCache",
    "ReferenceExecution",
    "RoundObserver",
    "RoundRecord",
    "SpreadObserver",
    "StateDigestObserver",
    "Transport",
    "WallTimeObserver",
    "compile_plan",
    "run_batch",
    "state_digest",
    "transport_for",
    "validate_bit",
]
