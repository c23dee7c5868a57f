"""Failure-injection tests: algorithms under random link loss."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.gossip import GossipAlgorithm
from repro.algorithms.metropolis import MetropolisAlgorithm
from repro.algorithms.push_sum import PushSumAlgorithm
from repro.algorithms.push_sum_frequency import PushSumFrequencyAlgorithm
from repro.core.convergence import run_until_asymptotic, run_until_stable
from repro.core.execution import Execution
from repro.dynamics.dynamic_graph import StaticAsDynamic
from repro.dynamics.generators import random_dynamic_strongly_connected
from repro.dynamics.lossy import LossyDynamicGraph
from repro.graphs.builders import complete_graph, random_symmetric_connected
from repro.graphs.properties import is_symmetric

INPUTS = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]
AVG = sum(INPUTS) / 6


class TestWrapper:
    def test_zero_loss_is_identity(self):
        base = StaticAsDynamic(complete_graph(4))
        lossy = LossyDynamicGraph(base, 0.0, seed=1)
        assert lossy.graph_at(1) == base.graph_at(1)

    def test_self_loops_never_dropped(self):
        base = StaticAsDynamic(complete_graph(5))
        lossy = LossyDynamicGraph(base, 0.9, seed=2)
        for t in range(1, 6):
            assert lossy.graph_at(t).all_have_self_loops()

    def test_loss_actually_drops(self):
        base = StaticAsDynamic(complete_graph(6))
        lossy = LossyDynamicGraph(base, 0.5, seed=3)
        assert lossy.graph_at(1).num_edges < base.graph_at(1).num_edges

    def test_symmetric_loss_preserves_symmetry(self):
        base = StaticAsDynamic(complete_graph(6))
        lossy = LossyDynamicGraph(base, 0.5, seed=4, preserve_symmetry=True)
        for t in range(1, 8):
            assert is_symmetric(lossy.graph_at(t))

    def test_determinism(self):
        base = StaticAsDynamic(complete_graph(5))
        a = LossyDynamicGraph(base, 0.3, seed=5)
        b = LossyDynamicGraph(base, 0.3, seed=5)
        assert a.graph_at(3) == b.graph_at(3)

    def test_invalid_probability(self):
        base = StaticAsDynamic(complete_graph(3))
        with pytest.raises(ValueError):
            LossyDynamicGraph(base, 1.0)


class TestAlgorithmsUnderLoss:
    def test_gossip_with_heavy_loss(self):
        base = StaticAsDynamic(complete_graph(6))
        lossy = LossyDynamicGraph(base, 0.7, seed=6)
        ex = Execution(GossipAlgorithm(max), lossy, inputs=[1, 9, 2, 5, 3, 4])
        report = run_until_stable(ex, 60, patience=5, target=9)
        assert report.converged

    def test_push_sum_average_with_loss(self):
        base = random_dynamic_strongly_connected(6, seed=7)
        lossy = LossyDynamicGraph(base, 0.3, seed=7)
        ex = Execution(PushSumAlgorithm(), lossy, inputs=INPUTS)
        report = run_until_asymptotic(ex, 3000, tolerance=1e-7, target=AVG)
        assert report.converged

    def test_metropolis_with_symmetric_loss(self):
        base = StaticAsDynamic(complete_graph(6))
        lossy = LossyDynamicGraph(base, 0.4, seed=8, preserve_symmetry=True)
        ex = Execution(MetropolisAlgorithm(), lossy, inputs=INPUTS)
        report = run_until_asymptotic(ex, 3000, tolerance=1e-7, target=AVG)
        assert report.converged

    def test_exact_frequencies_with_loss(self):
        base = random_dynamic_strongly_connected(6, seed=9)
        lossy = LossyDynamicGraph(base, 0.25, seed=9)
        alg = PushSumFrequencyAlgorithm(mode="exact", n_bound=8)
        ints = [3, 1, 1, 4, 1, 4]
        report = run_until_stable(Execution(alg, lossy, inputs=ints), 2000, patience=10)
        assert report.converged

    def test_loss_slows_but_does_not_break(self):
        base = random_dynamic_strongly_connected(6, seed=10)

        def rounds_for(loss):
            net = LossyDynamicGraph(base, loss, seed=10) if loss else base
            ex = Execution(PushSumAlgorithm(), net, inputs=INPUTS)
            report = run_until_asymptotic(ex, 6000, tolerance=1e-7, target=AVG)
            assert report.converged
            return report.stabilization_round

        # The shape: more loss, more rounds — but still convergence.
        clean = rounds_for(0.0)
        noisy = rounds_for(0.5)
        assert noisy >= clean


lossy_params = st.tuples(
    st.integers(min_value=3, max_value=7),        # n
    st.integers(min_value=0, max_value=10_000),   # seed
    st.floats(min_value=0.0, max_value=0.8),      # loss probability
    st.integers(min_value=1, max_value=6),        # rounds to inspect
)


class TestSymmetryPreservationProperty:
    """``preserve_symmetry=True`` keeps every per-round graph symmetric —
    checked both on the raw schedule and through the compiled-plan engine,
    whose per-round plan validation rejects asymmetric graphs for
    ``SYMMETRIC``-model algorithms."""

    @settings(max_examples=25, deadline=None)
    @given(lossy_params)
    def test_every_round_graph_symmetric(self, p):
        n, seed, loss, rounds = p
        base = StaticAsDynamic(random_symmetric_connected(n, seed=seed))
        lossy = LossyDynamicGraph(base, loss, seed=seed, preserve_symmetry=True)
        for t in range(1, rounds + 1):
            assert is_symmetric(lossy.graph_at(t))

    @settings(max_examples=15, deadline=None)
    @given(lossy_params)
    def test_symmetric_model_engine_accepts_schedule(self, p):
        n, seed, loss, rounds = p
        base = StaticAsDynamic(random_symmetric_connected(n, seed=seed))
        lossy = LossyDynamicGraph(base, loss, seed=seed, preserve_symmetry=True)
        ex = Execution(MetropolisAlgorithm(), lossy, inputs=[float(i) for i in range(n)])
        ex.run(rounds)  # plan compilation re-checks symmetry every round
        assert ex.round_number == rounds


class TestLossScheduleDeterminismProperty:
    """For a fixed seed the loss schedule is a pure function of ``(seed, t)``
    — identical across wrapper instances, pickle boundaries, and batch
    runs."""

    @settings(max_examples=25, deadline=None)
    @given(lossy_params)
    def test_schedule_survives_pickle_boundary(self, p):
        import pickle

        from repro.dynamics.dynamic_graph import PeriodicDynamicGraph
        from repro.graphs.builders import random_strongly_connected

        n, seed, loss, rounds = p
        base = PeriodicDynamicGraph(
            [random_strongly_connected(n, seed=seed + j) for j in range(3)]
        )
        lossy = LossyDynamicGraph(base, loss, seed=seed)
        shipped = pickle.loads(pickle.dumps(lossy))  # what another process sees
        for t in range(1, rounds + 1):
            assert shipped.graph_at(t) == lossy.graph_at(t)

    def test_fresh_wrappers_agree_through_the_batch_runner(self):
        from repro.core.engine import BatchJob, run_batch
        from repro.dynamics.dynamic_graph import PeriodicDynamicGraph
        from repro.graphs.builders import random_strongly_connected

        def jobs():
            out = []
            for s in range(4):
                base = PeriodicDynamicGraph(
                    [random_strongly_connected(5, seed=s + j) for j in range(3)]
                )
                lossy = LossyDynamicGraph(base, 0.4, seed=s)
                out.append(
                    BatchJob(
                        GossipAlgorithm(max),
                        lossy,
                        inputs=[s, 9, 2, 5, 3],
                        rounds=6,
                    )
                )
            return out

        first = run_batch(jobs())
        again = run_batch(jobs())
        for a, b in zip(first, again):
            assert b.execution.states == a.execution.states
            assert b.outputs == a.outputs
