"""Tests for the assembled static algorithm (Theorem 4.1 positive side)."""

import pytest

from repro.algorithms.frequency_static import StaticFunctionAlgorithm
from repro.core.convergence import run_until_stable
from repro.core.execution import Execution
from repro.core.models import CommunicationModel as CM
from repro.core.network_class import Knowledge
from repro.functions.library import AVERAGE, MAXIMUM, MINIMUM, frequency_of
from repro.graphs.builders import (
    bidirectional_ring,
    de_bruijn_graph,
    random_strongly_connected,
    random_symmetric_connected,
    star_graph,
    torus,
)

INPUTS = [3, 1, 1, 4, 1, 4]

ENRICHED = [CM.OUTDEGREE_AWARE, CM.SYMMETRIC, CM.OUTPUT_PORT_AWARE]


def graph_for(model, n=6, seed=0):
    if model is CM.SYMMETRIC:
        return random_symmetric_connected(n, seed=seed)
    return random_strongly_connected(n, seed=seed)


class TestConstruction:
    def test_broadcast_rejected(self):
        with pytest.raises(ValueError):
            StaticFunctionAlgorithm(AVERAGE, CM.SIMPLE_BROADCAST)

    def test_exact_n_requires_n(self):
        with pytest.raises(ValueError):
            StaticFunctionAlgorithm(AVERAGE, CM.SYMMETRIC, knowledge=Knowledge.EXACT_N)


class TestFrequencyComputation:
    @pytest.mark.parametrize("model", ENRICHED)
    def test_average_exact(self, model):
        g = graph_for(model)
        alg = StaticFunctionAlgorithm(AVERAGE, model)
        report = run_until_stable(
            Execution(alg, g, inputs=INPUTS), 60, patience=4, target=AVERAGE(INPUTS)
        )
        assert report.converged

    @pytest.mark.parametrize("model", ENRICHED)
    def test_set_based_functions_also_work(self, model):
        g = graph_for(model, seed=1)
        for f in (MAXIMUM, MINIMUM):
            alg = StaticFunctionAlgorithm(f, model)
            report = run_until_stable(
                Execution(alg, g, inputs=INPUTS), 60, patience=4, target=f(INPUTS)
            )
            assert report.converged

    @pytest.mark.parametrize("model", ENRICHED)
    def test_value_frequency(self, model):
        g = graph_for(model, seed=2)
        f = frequency_of(1)
        alg = StaticFunctionAlgorithm(f, model)
        report = run_until_stable(
            Execution(alg, g, inputs=INPUTS), 60, patience=4, target=f(INPUTS)
        )
        assert report.converged

    def test_multiplicity_blind_but_frequency_exact(self):
        # Two rings carrying the same frequencies but different sizes give
        # the same (correct) average.
        small = bidirectional_ring(4, values=[1, 2, 1, 2])
        big = bidirectional_ring(8, values=[1, 2, 1, 2, 1, 2, 1, 2])
        for g in (small, big):
            alg = StaticFunctionAlgorithm(AVERAGE, CM.SYMMETRIC)
            report = run_until_stable(
                Execution(alg, g, inputs=list(g.values)), 60, patience=4
            )
            assert report.converged
            assert float(report.value) == 1.5


class TestGraphFamilies:
    @pytest.mark.parametrize(
        "graph",
        [
            star_graph(6, values=[2, 1, 1, 1, 1, 1]),
            torus(2, 3, values=INPUTS),
            bidirectional_ring(6, values=INPUTS),
        ],
    )
    def test_symmetric_families(self, graph):
        alg = StaticFunctionAlgorithm(AVERAGE, CM.SYMMETRIC)
        report = run_until_stable(
            Execution(alg, graph, inputs=list(graph.values)),
            80,
            patience=4,
            target=AVERAGE(list(graph.values)),
        )
        assert report.converged

    def test_de_bruijn_outdegree(self):
        g = de_bruijn_graph(2, 3, values=[1, 2, 1, 2, 1, 2, 1, 2])
        alg = StaticFunctionAlgorithm(AVERAGE, CM.OUTDEGREE_AWARE)
        report = run_until_stable(
            Execution(alg, g, inputs=list(g.values)), 80, patience=4
        )
        assert report.converged
        assert float(report.value) == 1.5


class TestOutputsBeforeStabilization:
    def test_none_in_early_rounds(self):
        g = bidirectional_ring(6, values=INPUTS)
        alg = StaticFunctionAlgorithm(AVERAGE, CM.SYMMETRIC)
        ex = Execution(alg, g, inputs=INPUTS)
        ex.step()
        assert all(o is None for o in ex.outputs())


class TestOutputMemo:
    """The per-view output memo changes nothing: every round, each agent's
    memoized output equals that of a fresh instance with an empty memo
    (sharing the builder, so view uids mean the same views)."""

    @pytest.mark.parametrize("model", ENRICHED)
    @pytest.mark.parametrize("knowledge", [Knowledge.NONE, Knowledge.EXACT_N, Knowledge.LEADER])
    def test_matches_fresh_instances_every_round(self, model, knowledge):
        g = graph_for(model, seed=1)
        inputs = INPUTS if knowledge is not Knowledge.LEADER else [
            (v, i == 0) for i, v in enumerate(INPUTS)
        ]
        params = dict(knowledge=knowledge, n=len(INPUTS))

        def fresh_output(state):
            return StaticFunctionAlgorithm(AVERAGE, model, builder=alg.builder, **params).output(state)

        alg = StaticFunctionAlgorithm(AVERAGE, model, **params)
        ex = Execution(alg, g, inputs=inputs)
        for _ in range(24):
            ex.step()
            memoized = ex.outputs()
            assert ex.outputs() == memoized
            assert memoized == [fresh_output(s) for s in ex.states]
        assert memoized == [AVERAGE(INPUTS)] * len(INPUTS)
