"""Engine equivalence: the compiled fast path IS the naive interpreter.

The layered engine (plans + transports + stepper) must produce state
trajectories bit-identical to the single-layer reference interpreter
(:class:`repro.core.engine.reference.ReferenceExecution`) — across all
five communication models, on static and dynamic networks, with and
without scrambling.  Two kinds of algorithm are compared:

* order-*sensitive* recording algorithms (``receives = "sequence"``):
  they expose any difference in delivery order or in RNG stream
  consumption, which multiset algorithms would silently forgive;
* every library algorithm that declares it reads its inbox as a set or
  multiset (:attr:`~repro.core.agent.Algorithm.receives`).  The engine
  delivers their inboxes unscrambled while the reference still shuffles
  them, so equal trajectories re-check each declaration on every run.
  View and history-tree pairs share one
  :class:`~repro.graphs.views.ViewBuilder`, so their interned views
  compare by identity.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.frequency_static import StaticFunctionAlgorithm
from repro.algorithms.gossip import GossipAlgorithm
from repro.algorithms.history_tree import HistoryTreeAlgorithm
from repro.algorithms.minimum_base_alg import (
    OutdegreeViewAlgorithm,
    PortViewAlgorithm,
    SymmetricViewAlgorithm,
)
from repro.algorithms.onebit import OneBitCensusAlgorithm, OneBitFloodingAlgorithm
from repro.core.agent import BroadcastAlgorithm, OutdegreeAlgorithm, OutputPortAlgorithm
from repro.core.engine import ReferenceExecution
from repro.core.execution import Execution
from repro.core.metrics import canonical_repr
from repro.core.models import CommunicationModel
from repro.dynamics.dynamic_graph import PeriodicDynamicGraph
from repro.graphs.builders import (
    random_strongly_connected,
    random_symmetric_connected,
)
from repro.graphs.views import ViewBuilder


class RecordBroadcast(BroadcastAlgorithm):
    """State = (own value, full history of received tuples) — order-sensitive."""

    def initial_state(self, input_value):
        return (input_value, ())

    def message(self, state):
        return state[0]

    def transition(self, state, received):
        return (state[0], state[1] + (received,))

    def output(self, state):
        return state[1]


class RecordSymmetric(RecordBroadcast):
    model = CommunicationModel.SYMMETRIC


class RecordOutdegree(OutdegreeAlgorithm):
    """Broadcasts (value, outdegree); state accumulates received tuples."""

    def initial_state(self, input_value):
        return (input_value, ())

    def message(self, state, outdegree):
        return (state[0], outdegree)

    def transition(self, state, received):
        return (state[0], state[1] + (received,))

    def output(self, state):
        return state[1]


class RecordPorts(OutputPortAlgorithm):
    """Sends (value, port) per port; state accumulates received tuples."""

    def initial_state(self, input_value):
        return (input_value, ())

    def messages(self, state, outdegree):
        return [(state[0], port) for port in range(outdegree)]

    def transition(self, state, received):
        return (state[0], state[1] + (received,))

    def output(self, state):
        return state[1]


params = st.tuples(
    st.integers(min_value=2, max_value=7),   # n
    st.integers(min_value=0, max_value=10_000),  # graph seed
    st.one_of(st.none(), st.integers(min_value=0, max_value=2**31 - 1)),  # scramble
)

ROUNDS = 4


def assert_same_trajectory(algorithm_factory, network, inputs, scramble_seed):
    fast = Execution(algorithm_factory(), network, inputs=inputs, scramble_seed=scramble_seed)
    naive = ReferenceExecution(
        algorithm_factory(), network, inputs=inputs, scramble_seed=scramble_seed
    )
    for _ in range(ROUNDS):
        fast.step()
        naive.step()
        assert fast.round_number == naive.round_number
        assert fast.states == naive.states, (
            f"trajectories diverged at round {fast.round_number}"
        )
        # Belt and braces: canonical forms agree too (catches == overloads).
        assert [canonical_repr(s) for s in fast.states] == [
            canonical_repr(s) for s in naive.states
        ]


class TestStaticEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(params)
    def test_broadcast(self, p):
        n, seed, scramble = p
        g = random_strongly_connected(n, seed=seed)
        assert_same_trajectory(RecordBroadcast, g, list(range(n)), scramble)

    @settings(max_examples=20, deadline=None)
    @given(params)
    def test_symmetric(self, p):
        n, seed, scramble = p
        g = random_symmetric_connected(n, seed=seed)
        assert_same_trajectory(RecordSymmetric, g, list(range(n)), scramble)

    @settings(max_examples=20, deadline=None)
    @given(params)
    def test_outdegree(self, p):
        n, seed, scramble = p
        g = random_strongly_connected(n, seed=seed)
        assert_same_trajectory(RecordOutdegree, g, list(range(n)), scramble)

    @settings(max_examples=20, deadline=None)
    @given(params)
    def test_output_ports(self, p):
        n, seed, scramble = p
        g = random_strongly_connected(n, seed=seed)
        assert_same_trajectory(RecordPorts, g, list(range(n)), scramble)


class TestDynamicEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(params)
    def test_broadcast_on_periodic_graphs(self, p):
        n, seed, scramble = p
        dyn = PeriodicDynamicGraph(
            [random_strongly_connected(n, seed=seed + k) for k in range(3)]
        )
        assert_same_trajectory(RecordBroadcast, dyn, list(range(n)), scramble)

    @settings(max_examples=20, deadline=None)
    @given(params)
    def test_outdegree_on_periodic_graphs(self, p):
        n, seed, scramble = p
        dyn = PeriodicDynamicGraph(
            [random_strongly_connected(n, seed=seed + k) for k in range(3)]
        )
        assert_same_trajectory(RecordOutdegree, dyn, list(range(n)), scramble)

    @settings(max_examples=15, deadline=None)
    @given(params)
    def test_symmetric_on_periodic_graphs(self, p):
        n, seed, scramble = p
        dyn = PeriodicDynamicGraph(
            [random_symmetric_connected(n, seed=seed + k) for k in range(2)]
        )
        assert_same_trajectory(RecordSymmetric, dyn, list(range(n)), scramble)


#: ``(make(builder), topology, input alphabet)`` per declared reader;
#: ``topology`` is ``"directed"``, ``"symmetric"`` or ``"static"`` (the
#: port model runs on static digraphs only).
DECLARED = {
    "gossip": (lambda b: GossipAlgorithm(), "directed", 3),
    "onebit-flood": (lambda b: OneBitFloodingAlgorithm(), "directed", 2),
    "onebit-census": (lambda b: OneBitCensusAlgorithm(), "directed", 2),
    "outdegree-views": (lambda b: OutdegreeViewAlgorithm(b), "directed", 2),
    "symmetric-views": (lambda b: SymmetricViewAlgorithm(b), "symmetric", 2),
    "port-views": (lambda b: PortViewAlgorithm(b, max_view_depth=3), "static", 2),
    "history-tree": (lambda b: HistoryTreeAlgorithm(builder=b), "symmetric", 2),
    "static-max": (
        lambda b: StaticFunctionAlgorithm(
            max, CommunicationModel.OUTDEGREE_AWARE, builder=b
        ),
        "directed",
        3,
    ),
}


def _declared_case(name, p, dynamic):
    make, topology, values = DECLARED[name]
    n, seed, scramble = p
    build = random_symmetric_connected if topology == "symmetric" else random_strongly_connected
    if dynamic:
        network = PeriodicDynamicGraph([build(n, seed=seed + k) for k in range(3)])
    else:
        network = build(n, seed=seed)
    builder = ViewBuilder()
    inputs = [(seed + i) % values for i in range(n)]
    assert_same_trajectory(lambda: make(builder), network, inputs, scramble)


class TestDeclaredReaders:
    @pytest.mark.parametrize("name", sorted(DECLARED))
    @settings(max_examples=12, deadline=None)
    @given(params)
    def test_static(self, name, p):
        _declared_case(name, p, dynamic=False)

    @pytest.mark.parametrize(
        "name", sorted(k for k, case in DECLARED.items() if case[1] != "static")
    )
    @settings(max_examples=12, deadline=None)
    @given(params)
    def test_periodic(self, name, p):
        _declared_case(name, p, dynamic=True)
