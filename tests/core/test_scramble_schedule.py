"""Regression: the scramble schedule is a single per-execution stream.

The old derivation seeded a fresh ``random.Random(seed*1_000_003 +
t*9973 + j)`` per agent per round — an affine map under which distinct
``(seed, t, j)`` triples can alias (e.g. ``(s, t, j)`` and
``(s, t-1, j+9973)`` collide for any ``s``), silently correlating
shuffle sites across rounds, agents, and even executions with different
seeds.  The engine instead draws every shuffle from one
``random.Random(seed)`` stream consumed in ``(t, j)`` order: distinct
sites consume disjoint stream segments by construction and cannot alias.

These tests pin the new schedule exactly (so any future change to
stream consumption is a deliberate, visible decision) and demonstrate
the aliasing the old arithmetic allowed.  They also pin who draws: an
algorithm that declares a set or multiset inbox
(:attr:`~repro.core.agent.Algorithm.receives`) draws nothing, and a
subclass that overrides its ``transition`` draws the full schedule again.
"""

import random

from repro.algorithms.gossip import GossipAlgorithm
from repro.algorithms.history_tree import HistoryTreeAlgorithm
from repro.algorithms.minimum_base_alg import OutdegreeViewAlgorithm
from repro.algorithms.onebit import OneBitCensusAlgorithm
from repro.core.agent import BroadcastAlgorithm
from repro.core.execution import Execution
from repro.graphs.builders import bidirectional_ring, star_graph


class RecordOrder(BroadcastAlgorithm):
    """Output = the exact (scrambled) delivery order of the last round."""

    def initial_state(self, input_value):
        return (input_value, ())

    def message(self, state):
        return state[0]

    def transition(self, state, received):
        return (state[0], received)

    def output(self, state):
        return state[1]


class GossipRecordOrder(GossipAlgorithm):
    """A declared class's subclass with :class:`RecordOrder`'s body: its
    own ``transition`` declares nothing, so its inboxes are scrambled."""

    def initial_state(self, input_value):
        return (input_value, ())

    def message(self, state):
        return state[0]

    def transition(self, state, received):
        return (state[0], received)

    def output(self, state):
        return state[1]


class TestPinnedSchedule:
    """The concrete shuffle outcomes of the stream schedule, pinned."""

    def test_seed0_round1_and_round2(self):
        ex = Execution(RecordOrder(), star_graph(4), inputs=[0, 1, 2, 3], scramble_seed=0)
        ex.step()
        assert ex.outputs() == [(3, 1, 2, 0), (0, 1), (0, 2), (0, 3)]
        ex.step()
        assert ex.outputs() == [(1, 0, 2, 3), (1, 0), (2, 0), (0, 3)]

    def test_seed7_round1(self):
        ex = Execution(RecordOrder(), star_graph(4), inputs=[0, 1, 2, 3], scramble_seed=7)
        ex.run(1)
        assert ex.outputs() == [(0, 2, 1, 3), (1, 0), (2, 0), (3, 0)]

    def test_schedule_is_deterministic(self):
        a = Execution(RecordOrder(), star_graph(4), inputs=[0, 1, 2, 3], scramble_seed=42).run(3)
        b = Execution(RecordOrder(), star_graph(4), inputs=[0, 1, 2, 3], scramble_seed=42).run(3)
        assert a.outputs() == b.outputs()


class TestNoAliasing:
    def test_old_arithmetic_aliased_distinct_sites(self):
        # The defect being fixed: distinct (seed, t, j) triples collide.
        def old_site(seed, t, j):
            return seed * 1_000_003 + t * 9973 + j

        assert old_site(0, 2, 0) == old_site(0, 1, 9973)
        assert old_site(1, 1, 0) == old_site(0, 101, 2703)

    def test_stream_sites_consume_disjoint_segments(self):
        # Two executions from the same seed replay the same stream; the
        # shuffle at (t=2, j) sees a different stream position than
        # (t=1, j), so repeating inbox contents still reshuffle freshly.
        ex = Execution(RecordOrder(), star_graph(4), inputs=[0, 1, 2, 3], scramble_seed=0)
        ex.step()
        first = ex.outputs()[0]
        ex.step()
        second = ex.outputs()[0]
        assert sorted(first) == sorted(second)  # same multiset...
        assert first != second  # ...different stream segment

    def test_scrambling_preserves_multisets(self):
        for seed in (0, 1, 2, 3, 123456789):
            ex = Execution(
                RecordOrder(), star_graph(5), inputs=[0, 1, 2, 3, 4], scramble_seed=seed
            ).run(1)
            assert sorted(ex.outputs()[0]) == [0, 1, 2, 3, 4]

    def test_none_still_disables_scrambling(self):
        ex = Execution(
            RecordOrder(), star_graph(4), inputs=[0, 1, 2, 3], scramble_seed=None
        ).run(1)
        # In-edge order: the hub's in-edges are the leaves' edges then its
        # self-loop (construction order of star_graph).
        assert sorted(ex.outputs()[0]) == [0, 1, 2, 3]
        again = Execution(
            RecordOrder(), star_graph(4), inputs=[0, 1, 2, 3], scramble_seed=None
        ).run(1)
        assert ex.outputs() == again.outputs()


class TestDeclaredReadersDrawNothing:
    ROUNDS = 6

    def test_stream_stays_at_its_seed(self):
        # A declared reader holds no stream, so nothing can draw from it;
        # a "sequence" reader holds one, at its seed until it steps.
        runs = [
            (GossipAlgorithm(), star_graph(5), [0, 1, 2, 1, 0]),
            (OneBitCensusAlgorithm(), star_graph(5), [1, 0, 1, 1, 0]),
            (OutdegreeViewAlgorithm(), star_graph(5), [0, 1, 0, 1, 0]),
            (HistoryTreeAlgorithm(), bidirectional_ring(5), [0, 1, 0, 0, 1]),
        ]
        for seed in (0, 7, 123456789):
            for algorithm, graph, inputs in runs:
                ex = Execution(algorithm, graph, inputs=inputs, scramble_seed=seed)
                ex.run(self.ROUNDS)
                assert ex._stepper._scramble is None
            ex = Execution(GossipRecordOrder(), star_graph(5), inputs=[0] * 5, scramble_seed=seed)
            assert ex._stepper._scramble.getstate() == random.Random(seed).getstate()

    def test_overriding_subclass_gets_the_pinned_schedule(self):
        ex = Execution(GossipRecordOrder(), star_graph(4), inputs=[0, 1, 2, 3], scramble_seed=0)
        ex.step()
        assert ex.outputs() == [(3, 1, 2, 0), (0, 1), (0, 2), (0, 3)]
        ex.step()
        assert ex.outputs() == [(1, 0, 2, 3), (1, 0), (2, 0), (0, 3)]
