"""Property tests for the tracing layer's no-interference contract.

Two families of properties:

1. **Bit-identity.**  Tracing must be a pure read: an execution with a
   :class:`~repro.core.engine.trace.Tracer` attached takes exactly the
   trajectory of its untraced twin — same states, outputs, convergence
   reports, and scramble schedule — in all four communication models, on
   static and dynamic networks, alone and in batches.  Order-sensitive
   recording algorithms are used so any extra RNG draw or delivery-order
   change is fatal, not forgiven.

2. **Byte-accounting agreement.**  The tracer charges delivered payloads
   with :func:`repro.analysis.bandwidth.payload_units` from the *inbox*
   side; :class:`~repro.core.engine.instrumentation.BandwidthObserver`
   and a sender-side re-derivation from the delivery plan charge the
   same units along independent code paths.  Pinning them elementwise
   keeps the two accountings from drifting apart.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.gossip import GossipAlgorithm
from repro.algorithms.push_sum import PushSumAlgorithm
from repro.analysis.bandwidth import payload_units, traced_bytes_curve
from repro.core.convergence import run_until_stable
from repro.core.engine.batch import BatchJob, run_batch
from repro.core.engine.instrumentation import BandwidthObserver, StateDigestObserver
from repro.core.engine.trace import Tracer, attach_tracers, merged_metrics, trace_execution
from repro.core.execution import Execution
from repro.dynamics.dynamic_graph import PeriodicDynamicGraph
from repro.graphs.builders import random_strongly_connected, random_symmetric_connected
from tests.property.test_engine_equivalence import (
    RecordBroadcast,
    RecordOutdegree,
    RecordPorts,
    RecordSymmetric,
)

params = st.tuples(
    st.integers(min_value=2, max_value=7),  # n
    st.integers(min_value=0, max_value=10_000),  # graph seed
    st.one_of(st.none(), st.integers(min_value=0, max_value=2**31 - 1)),  # scramble
)

ROUNDS = 4

MODELS = [
    (RecordBroadcast, random_strongly_connected),
    (RecordSymmetric, random_symmetric_connected),
    (RecordOutdegree, random_strongly_connected),
    (RecordPorts, random_strongly_connected),
]


def assert_traced_is_untraced(algorithm_factory, network, inputs, scramble_seed):
    plain = Execution(
        algorithm_factory(), network, inputs=inputs, scramble_seed=scramble_seed
    )
    traced = Execution(
        algorithm_factory(), network, inputs=inputs, scramble_seed=scramble_seed
    )
    digests = StateDigestObserver()
    plain.attach(digests)  # digests only read the record: the reference run
    tracer = trace_execution(traced)
    for _ in range(ROUNDS):
        plain.step()
        traced.step()
        assert plain.states == traced.states
    assert plain.outputs() == traced.outputs()
    assert [e.fields["digest"] for e in tracer.round_events()] == digests.digests


class TestTracingIsInvisibleStatic:
    @settings(max_examples=12, deadline=None)
    @given(params, st.sampled_from(range(len(MODELS))))
    def test_all_models(self, p, model_index):
        n, seed, scramble = p
        algorithm_factory, builder = MODELS[model_index]
        g = builder(n, seed=seed)
        assert_traced_is_untraced(algorithm_factory, g, list(range(n)), scramble)


class TestTracingIsInvisibleDynamic:
    @settings(max_examples=10, deadline=None)
    @given(params)
    def test_broadcast_on_periodic_graphs(self, p):
        n, seed, scramble = p
        dyn = PeriodicDynamicGraph(
            [random_strongly_connected(n, seed=seed + k) for k in range(3)]
        )
        assert_traced_is_untraced(RecordBroadcast, dyn, list(range(n)), scramble)

    @settings(max_examples=10, deadline=None)
    @given(params)
    def test_outdegree_on_periodic_graphs(self, p):
        n, seed, scramble = p
        dyn = PeriodicDynamicGraph(
            [random_strongly_connected(n, seed=seed + k) for k in range(3)]
        )
        assert_traced_is_untraced(RecordOutdegree, dyn, list(range(n)), scramble)


class TestTracingIsInvisibleToDetectors:
    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=3, max_value=7),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_run_until_stable_report_identical(self, n, seed):
        def report(traced):
            execution = Execution(
                GossipAlgorithm(max),
                random_strongly_connected(n, seed=seed),
                inputs=[(v * 31 + seed) % 17 for v in range(n)],
            )
            if traced:
                trace_execution(execution)
            return run_until_stable(execution, 3 * n, patience=3)

        plain, traced = report(False), report(True)
        assert plain == traced  # dataclass equality: every field, incl. trace


def _record_jobs(n, seed):
    """One job per communication model, order-sensitive, scrambled."""
    jobs = []
    for k, (algorithm_factory, builder) in enumerate(MODELS):
        jobs.append(
            BatchJob(
                algorithm_factory(),
                builder(n, seed=seed + k),
                inputs=list(range(n)),
                scramble_seed=seed,
                rounds=ROUNDS,
                label=f"model-{k}",
            )
        )
    return jobs


class TestTracingIsInvisibleInBatches:
    @settings(max_examples=5, deadline=None)
    @given(
        st.integers(min_value=3, max_value=6),
        st.integers(min_value=0, max_value=1_000),
    )
    def test_traced_batch_matches_untraced(self, n, seed):
        untraced = run_batch(_record_jobs(n, seed))

        jobs = _record_jobs(n, seed)
        tracers = attach_tracers(jobs)
        traced = run_batch(jobs)

        for plain, result in zip(untraced, traced):
            assert plain.outputs == result.outputs
        # The tracers recorded ROUNDS rounds per job…
        for tracer in tracers:
            assert len(tracer.deterministic_rounds()) == ROUNDS
        # …and their deterministic projections match a re-run.
        jobs_again = _record_jobs(n, seed)
        tracers_again = attach_tracers(jobs_again)
        run_batch(jobs_again)
        assert [t.deterministic_rounds() for t in tracers] == [
            t.deterministic_rounds() for t in tracers_again
        ]
        assert merged_metrics(tracers).as_dict(deterministic_only=True) == (
            merged_metrics(tracers_again).as_dict(deterministic_only=True)
        )


# --------------------------------------------------------------------- #
# byte accounting
# --------------------------------------------------------------------- #

class SenderSideBytes:
    """Re-derives delivered bytes from the *sender's* side of the plan —
    an independent accounting the tracer's inbox-side totals must match."""

    def __init__(self) -> None:
        self.totals = []
        self.peaks = []

    def on_round(self, record) -> None:
        outgoing = record.outgoing
        total = 0
        peak = 0
        if outgoing and isinstance(outgoing[0], list):  # port model
            for sources, ports in zip(record.plan.sources, record.plan.source_ports):
                for s, p in zip(sources, ports):
                    u = payload_units(outgoing[s][p])
                    total += u
                    peak = max(peak, u)
        else:
            for sources in record.plan.sources:
                for s in sources:
                    u = payload_units(outgoing[s])
                    total += u
                    peak = max(peak, u)
        self.totals.append(total)
        self.peaks.append(peak)


class TestByteAccountingAgrees:
    @settings(max_examples=12, deadline=None)
    @given(params, st.sampled_from(range(len(MODELS))))
    def test_tracer_matches_sender_side_accounting(self, p, model_index):
        n, seed, scramble = p
        algorithm_factory, builder = MODELS[model_index]
        execution = Execution(
            algorithm_factory(),
            builder(n, seed=seed),
            inputs=list(range(n)),
            scramble_seed=scramble,
        )
        sender_side = SenderSideBytes()
        execution.attach(sender_side)
        tracer = trace_execution(execution, rounds=ROUNDS)
        events = tracer.round_events()
        assert [e.fields["bytes_delivered"] for e in events] == sender_side.totals
        assert [e.fields["bytes_peak"] for e in events] == sender_side.peaks

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=2, max_value=7),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_peak_matches_bandwidth_observer(self, n, seed):
        """Every vertex has a self-loop, so the largest *sent* payload
        (BandwidthObserver) is also the largest *delivered* one (Tracer)."""
        def execution():
            return Execution(
                GossipAlgorithm(),
                random_strongly_connected(n, seed=seed),
                inputs=[(v * 13 + seed) % 5 for v in range(n)],
            )

        ex = execution()
        observer = BandwidthObserver()
        ex.attach(observer)
        ex.run(ROUNDS)
        curve = traced_bytes_curve(execution(), ROUNDS)
        assert [peak for (_total, peak) in curve] == observer.peaks

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=2, max_value=7),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_registry_total_is_curve_sum(self, n, seed):
        execution = Execution(
            PushSumAlgorithm(),
            random_strongly_connected(n, seed=seed),
            inputs=[float(v + 1) for v in range(n)],
        )
        tracer = trace_execution(execution, rounds=ROUNDS)
        per_round = [e.fields["bytes_delivered"] for e in tracer.round_events()]
        assert tracer.registry.counter("bytes_delivered").value == sum(per_round)
