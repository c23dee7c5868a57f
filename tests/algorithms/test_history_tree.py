"""Tests for history-class counting in dynamic symmetric networks."""

from fractions import Fraction

import pytest

from repro.algorithms.history_tree import HistoryTreeAlgorithm
from repro.core.convergence import run_until_stable
from repro.core.execution import Execution
from repro.core.network_class import Knowledge
from repro.dynamics.generators import random_dynamic_symmetric, sparse_pulsed_dynamic
from repro.functions.library import AVERAGE, SUM
from repro.graphs.builders import bidirectional_ring, path_graph, star_graph

INPUTS5 = [3, 1, 1, 4, 1]


class TestConstruction:
    def test_exact_n_requires_n(self):
        with pytest.raises(ValueError):
            HistoryTreeAlgorithm(knowledge=Knowledge.EXACT_N)

    def test_bound_degrades_to_none(self):
        alg = HistoryTreeAlgorithm(knowledge=Knowledge.BOUND_N)
        assert alg.knowledge is Knowledge.NONE


class TestStaticSymmetric:
    @pytest.mark.parametrize("builder", [bidirectional_ring, path_graph, star_graph])
    def test_exact_frequencies(self, builder):
        g = builder(5)
        alg = HistoryTreeAlgorithm()
        report = run_until_stable(Execution(alg, g, inputs=INPUTS5), 24, patience=4)
        assert report.converged
        assert report.value == {1: Fraction(3, 5), 3: Fraction(1, 5), 4: Fraction(1, 5)}

    def test_uniform_inputs(self):
        g = bidirectional_ring(4)
        alg = HistoryTreeAlgorithm()
        report = run_until_stable(Execution(alg, g, inputs=[7, 7, 7, 7]), 16, patience=3)
        assert report.converged
        assert report.value == {7: Fraction(1)}


class TestDynamicSymmetric:
    @pytest.mark.parametrize("seed", range(3))
    def test_random_dynamic(self, seed):
        dyn = random_dynamic_symmetric(5, seed=seed)
        alg = HistoryTreeAlgorithm()
        report = run_until_stable(Execution(alg, dyn, inputs=INPUTS5), 24, patience=4)
        assert report.converged
        assert report.value[1] == Fraction(3, 5)

    def test_pulsed_dynamic(self):
        dyn = sparse_pulsed_dynamic(4, pulse_every=2, seed=1, symmetric=True)
        alg = HistoryTreeAlgorithm()
        report = run_until_stable(
            Execution(alg, dyn, inputs=[1, 1, 2, 2]), 40, patience=4
        )
        assert report.converged
        assert report.value == {1: Fraction(1, 2), 2: Fraction(1, 2)}

    def test_average_composition(self):
        dyn = random_dynamic_symmetric(5, seed=4)
        alg = HistoryTreeAlgorithm(f=AVERAGE)
        report = run_until_stable(
            Execution(alg, dyn, inputs=INPUTS5), 24, patience=4, target=AVERAGE(INPUTS5)
        )
        assert report.converged


class TestKnowledgeVariants:
    def test_exact_n_gives_multiset(self):
        dyn = random_dynamic_symmetric(5, seed=5)
        alg = HistoryTreeAlgorithm(knowledge=Knowledge.EXACT_N, n=5)
        report = run_until_stable(Execution(alg, dyn, inputs=INPUTS5), 24, patience=4)
        assert report.converged
        assert report.value == {1: 3, 3: 1, 4: 1}

    def test_exact_n_computes_sum(self):
        dyn = random_dynamic_symmetric(5, seed=6)
        alg = HistoryTreeAlgorithm(knowledge=Knowledge.EXACT_N, n=5, f=SUM)
        report = run_until_stable(
            Execution(alg, dyn, inputs=INPUTS5), 24, patience=4, target=SUM(INPUTS5)
        )
        assert report.converged

    def test_leader_gives_multiset(self):
        dyn = random_dynamic_symmetric(5, seed=7)
        linputs = [(v, i == 0) for i, v in enumerate(INPUTS5)]
        alg = HistoryTreeAlgorithm(knowledge=Knowledge.LEADER, leader_count=1)
        report = run_until_stable(Execution(alg, dyn, inputs=linputs), 24, patience=4)
        assert report.converged
        assert report.value == {1: 3, 3: 1, 4: 1}

    def test_early_rounds_output_none(self):
        g = bidirectional_ring(5)
        alg = HistoryTreeAlgorithm()
        ex = Execution(alg, g, inputs=INPUTS5)
        ex.step()
        assert all(o is None for o in ex.outputs())


class TestKernelMemo:
    """Memoizing kernel solves by system content changes nothing: every
    round, each agent's output equals that of a fresh instance with empty
    caches (sharing the builder, so view uids mean the same views)."""

    @pytest.mark.parametrize(
        "params",
        [
            dict(),
            dict(knowledge=Knowledge.EXACT_N, n=5),
            dict(knowledge=Knowledge.LEADER, leader_count=1),
        ],
        ids=["none", "exact-n", "leader"],
    )
    def test_matches_fresh_instances_every_round(self, params):
        dyn = random_dynamic_symmetric(5, seed=3)
        inputs = INPUTS5 if "leader_count" not in params else [
            (v, i == 0) for i, v in enumerate(INPUTS5)
        ]
        alg = HistoryTreeAlgorithm(**params)
        lookups = []
        solve = alg._kernel_vector
        alg._kernel_vector = lambda rows: lookups.append(rows) or solve(rows)
        ex = Execution(alg, dyn, inputs=inputs)
        for _ in range(20):
            ex.step()
            memoized = ex.outputs()
            fresh = [HistoryTreeAlgorithm(builder=alg.builder, **params).output(s) for s in ex.states]
            assert memoized == fresh
        assert None not in memoized
        # Distinct classes set up identical systems: the memo was hit.
        assert len(alg._kernel_cache) < len(lookups)
