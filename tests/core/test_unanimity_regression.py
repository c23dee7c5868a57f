"""Regression: unanimity must not depend on set iteration order.

Two equal frozensets can print in different orders (their layout depends
on insertion history and the per-process hash seed), so comparing
outputs by ``repr`` spuriously broke unanimity for set-valued outputs on
a fraction of hash seeds.  These tests pin the ``==``-first behavior,
and that unanimity stops reading agents once its answer is known.
"""

import collections

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.gossip import GossipAlgorithm
from repro.core.agent import BroadcastAlgorithm
from repro.core.convergence import run_until_stable
from repro.core.engine.vector import VectorExecution
from repro.core.execution import Execution
from repro.core.metrics import canonical_repr
from repro.graphs.builders import bidirectional_ring, complete_graph, directed_ring
from repro.graphs.digraph import DiGraph


def adversarial_sets(values):
    """Equal frozensets built along different insertion orders."""
    import itertools

    variants = []
    for perm in itertools.permutations(values):
        s = frozenset()
        for v in perm:
            s = s | frozenset([v])
        variants.append(s)
    return variants


class TestSetValuedUnanimity:
    def test_unanimous_despite_construction_order(self):
        # Plant states that are equal sets built in every insertion order.
        values = ("x", "y", "z", "w")
        variants = adversarial_sets(values)[:4]
        g = complete_graph(4)
        ex = Execution(GossipAlgorithm(), g, initial_states=variants)
        assert ex.unanimous_output() == frozenset(values)

    def test_gossip_stabilizes_on_string_values(self):
        g = bidirectional_ring(4)
        ex = Execution(GossipAlgorithm(), g, inputs=["x", "y", "x", "z"])
        report = run_until_stable(ex, 20, patience=4, target=frozenset({"x", "y", "z"}))
        assert report.converged

    def test_disagreement_still_detected(self):
        g = complete_graph(3)
        states = [frozenset({"a"}), frozenset({"a"}), frozenset({"b"})]
        ex = Execution(GossipAlgorithm(), g, initial_states=states)
        assert ex.unanimous_output() is None


# ---------------------------------------------------------------------- #
# unanimity stops reading agents once the answer is known
# ---------------------------------------------------------------------- #


def eager_unanimous_output(outs):
    """The method as it was before it stopped early: every output first,
    then the comparison.  The oracle of the property below."""
    first = outs[0]
    first_canonical = None
    for o in outs[1:]:
        try:
            if o == first:
                continue
        except Exception:
            pass
        if first_canonical is None:
            first_canonical = canonical_repr(first)
        if canonical_repr(o) != first_canonical:
            return None
    return first


class Echo(BroadcastAlgorithm):
    """Outputs its state, and counts how often it was asked."""

    def __init__(self):
        self.calls = 0

    def initial_state(self, input_value):
        return input_value

    def message(self, state):
        return state

    def transition(self, state, received):
        return state

    def output(self, state):
        self.calls += 1
        return state


#: Outputs that agree without being identical, or look alike without
#: agreeing: None, fresh NaNs, 1 / 1.0 / True, equal frozensets built in
#: different orders, unhashable lists, strings.
OUTPUTS = st.one_of(
    st.none(),
    st.builds(float, st.just("nan")),
    st.sampled_from([0, 1, 1.0, True, False, 0.0]),
    st.sampled_from(adversarial_sets(("x", "y", "z"))),
    st.sampled_from([frozenset({"x"}), frozenset({"x", "y"})]),
    st.lists(st.integers(0, 1), max_size=2),
    st.text(alphabet="ab", max_size=1),
)


@st.composite
def state_vectors(draw):
    """States drawn from a small pool of objects, so one state object
    often recurs at several agents."""
    pool = draw(st.lists(OUTPUTS, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))
    return [pool[i] for i in picks]


class TestStopsOnceKnown:
    @settings(max_examples=300)
    @given(states=state_vectors())
    def test_agrees_with_the_eager_method(self, states):
        algorithm = Echo()
        graph = DiGraph(len(states), [(v, v) for v in range(len(states))])
        ex = Execution(algorithm, graph, initial_states=states)
        got = ex.unanimous_output()
        assert got is eager_unanimous_output(list(states))
        if got is None and states[0] is not None:
            # Reading stopped at the first agent that disagrees.
            first_disagreement = next(
                k for k in range(1, len(states) + 1)
                if eager_unanimous_output(states[:k + 1]) is None
            )
            assert algorithm.calls <= first_disagreement + 1
        if states[0] is None:
            assert algorithm.calls == 1

    def test_object_round_stops_at_the_first_disagreement(self):
        calls = collections.Counter()

        def counting_max(values):
            calls["output"] += 1
            return max(values)

        # After one round on a directed ring agent 0 holds {0, 7} and
        # agent 1 holds {0, 1}: the outputs 7 and 1 differ at index 1.
        ex = Execution(GossipAlgorithm(counting_max), directed_ring(8), inputs=list(range(8)))
        ex.step()
        assert ex.unanimous_output() is None
        assert calls["output"] == 2

    def test_vector_unanimous_round_costs_one_output(self):
        calls = collections.Counter()

        def counting_max(values):
            calls["output"] += 1
            return max(values)

        n = 64
        ex = VectorExecution(
            GossipAlgorithm(counting_max), bidirectional_ring(n),
            inputs=[1] + [0] * (n - 1),
        )
        assert ex.vector_active
        unanimous_rounds = 0
        for _ in range(n // 2 + 4):
            ex.step()
            before = calls["output"]
            if ex.unanimous_output() is not None:
                unanimous_rounds += 1
                assert calls["output"] - before == 1
        assert unanimous_rounds >= 4
