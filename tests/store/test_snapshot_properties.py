"""The checkpoint/resume equivalence property.

For every communication model, on static and dynamic networks, with and
without delivery scrambling: running straight to round ``T`` is
bit-identical — states, canonical forms, trace digests — to running to
round ``k``, snapshotting, serializing the snapshot to bytes, restoring
it into a *fresh* execution, and running on to ``T``.  The recording
algorithms are order-sensitive on purpose (any drift in delivery order or
scramble-stream position changes their states).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.execution import Execution
from repro.core.metrics import canonical_repr
from repro.dynamics.dynamic_graph import PeriodicDynamicGraph
from repro.graphs.builders import (
    random_strongly_connected,
    random_symmetric_connected,
)
from repro.store.snapshot import Snapshot, snapshot_execution, resume_execution

from tests.property.test_engine_equivalence import (
    RecordBroadcast,
    RecordOutdegree,
    RecordPorts,
    RecordSymmetric,
)

params = st.tuples(
    st.integers(min_value=2, max_value=6),            # n
    st.integers(min_value=0, max_value=10_000),       # graph seed
    st.one_of(st.none(), st.integers(min_value=0, max_value=2**31 - 1)),  # scramble
    st.integers(min_value=1, max_value=5),            # checkpoint round k
    st.integers(min_value=1, max_value=4),            # extra rounds past k
)


def assert_resume_invisible(algorithm_factory, network, inputs, scramble, k, extra):
    """run(k+extra) == run(k); snapshot; restore elsewhere; run(extra)."""
    straight = Execution(
        algorithm_factory(), network, inputs=inputs, scramble_seed=scramble
    )
    straight.run(k)
    # Serialize through the full envelope — what a checkpoint file holds.
    snap = Snapshot.from_bytes(snapshot_execution(straight).to_bytes())
    straight.run(extra)

    resumed = resume_execution(snap, algorithm_factory(), network)
    assert resumed.round_number == k
    resumed.run(extra)

    assert resumed.round_number == straight.round_number
    assert resumed.states == straight.states, "resume perturbed the trajectory"
    assert [canonical_repr(s) for s in resumed.states] == [
        canonical_repr(s) for s in straight.states
    ]


class TestStaticResume:
    @settings(max_examples=15, deadline=None)
    @given(params)
    def test_broadcast(self, p):
        n, seed, scramble, k, extra = p
        g = random_strongly_connected(n, seed=seed)
        assert_resume_invisible(RecordBroadcast, g, list(range(n)), scramble, k, extra)

    @settings(max_examples=15, deadline=None)
    @given(params)
    def test_symmetric(self, p):
        n, seed, scramble, k, extra = p
        g = random_symmetric_connected(n, seed=seed)
        assert_resume_invisible(RecordSymmetric, g, list(range(n)), scramble, k, extra)

    @settings(max_examples=15, deadline=None)
    @given(params)
    def test_outdegree(self, p):
        n, seed, scramble, k, extra = p
        g = random_strongly_connected(n, seed=seed)
        assert_resume_invisible(RecordOutdegree, g, list(range(n)), scramble, k, extra)

    @settings(max_examples=15, deadline=None)
    @given(params)
    def test_output_ports(self, p):
        n, seed, scramble, k, extra = p
        g = random_strongly_connected(n, seed=seed)
        assert_resume_invisible(RecordPorts, g, list(range(n)), scramble, k, extra)


class TestDynamicResume:
    """Dynamic networks: the resumed execution re-queries ``graph_at(t)``
    for rounds past the checkpoint, so equality also pins that the round
    counter restored to exactly the right position in the schedule."""

    @settings(max_examples=12, deadline=None)
    @given(params)
    def test_broadcast_on_periodic_graphs(self, p):
        n, seed, scramble, k, extra = p
        dyn = PeriodicDynamicGraph(
            [random_strongly_connected(n, seed=seed + j) for j in range(3)]
        )
        assert_resume_invisible(RecordBroadcast, dyn, list(range(n)), scramble, k, extra)

    @settings(max_examples=12, deadline=None)
    @given(params)
    def test_symmetric_on_periodic_graphs(self, p):
        n, seed, scramble, k, extra = p
        dyn = PeriodicDynamicGraph(
            [random_symmetric_connected(n, seed=seed + j) for j in range(2)]
        )
        assert_resume_invisible(RecordSymmetric, dyn, list(range(n)), scramble, k, extra)

    @settings(max_examples=12, deadline=None)
    @given(params)
    def test_outdegree_on_periodic_graphs(self, p):
        n, seed, scramble, k, extra = p
        dyn = PeriodicDynamicGraph(
            [random_strongly_connected(n, seed=seed + j) for j in range(3)]
        )
        assert_resume_invisible(RecordOutdegree, dyn, list(range(n)), scramble, k, extra)


class TestTraceEquivalence:
    """The resumed half of a traced run records the same deterministic
    round stream (messages, bytes, residuals, state digests) as the
    uninterrupted run's tail."""

    @settings(max_examples=10, deadline=None)
    @given(params)
    def test_trace_tail_identical(self, p):
        from repro.core.engine.trace import Tracer

        n, seed, scramble, k, extra = p
        g = random_strongly_connected(n, seed=seed)
        inputs = list(range(n))

        straight = Execution(RecordBroadcast(), g, inputs=inputs, scramble_seed=scramble)
        tail_tracer = Tracer()
        straight.run(k)
        snap = snapshot_execution(straight)
        straight.attach(tail_tracer)
        straight.run(extra)

        resumed = resume_execution(snap, RecordBroadcast(), g)
        resumed_tracer = Tracer()
        resumed.attach(resumed_tracer)
        resumed.run(extra)

        assert (
            resumed_tracer.deterministic_rounds()
            == tail_tracer.deterministic_rounds()
        )

