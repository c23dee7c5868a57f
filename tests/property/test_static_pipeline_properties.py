"""End-to-end property: Theorem 4.1's algorithm is correct on *random* networks.

The strongest statement the library can make: for randomly drawn
strongly-connected (or symmetric) graphs and random input vectors, the
full static pipeline — views, base extraction, fibre solving,
reconstruction — computes the exact average in every enriched model.

The table harness runs a cell's 2–3 probes on one view builder, which
memoizes bases and solves for all of them; :class:`TestSharedBuilder`
checks that sharing changes no output in any round.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.frequency_static import StaticFunctionAlgorithm
from repro.algorithms.history_tree import HistoryTreeAlgorithm
from repro.algorithms.multiset_static import known_size_algorithm
from repro.core.convergence import run_until_stable
from repro.core.execution import Execution
from repro.core.models import CommunicationModel as CM
from repro.core.network_class import Knowledge
from repro.dynamics.generators import random_dynamic_symmetric
from repro.functions.library import AVERAGE, MAXIMUM, SUM
from repro.graphs.builders import random_strongly_connected, random_symmetric_connected
from repro.graphs.views import ViewBuilder

params = st.tuples(
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=0, max_value=10_000),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=7, max_size=7),
)


class TestTheorem41EndToEnd:
    @settings(max_examples=12, deadline=None)
    @given(params)
    def test_outdegree_model(self, p):
        n, seed, values = p
        g = random_strongly_connected(n, seed=seed)
        inputs = values[:n]
        alg = StaticFunctionAlgorithm(AVERAGE, CM.OUTDEGREE_AWARE)
        report = run_until_stable(
            Execution(alg, g, inputs=inputs), 10 * n + 20, patience=4, target=AVERAGE(inputs)
        )
        assert report.converged

    @settings(max_examples=12, deadline=None)
    @given(params)
    def test_symmetric_model(self, p):
        n, seed, values = p
        g = random_symmetric_connected(n, seed=seed)
        inputs = values[:n]
        alg = StaticFunctionAlgorithm(AVERAGE, CM.SYMMETRIC)
        report = run_until_stable(
            Execution(alg, g, inputs=inputs), 10 * n + 20, patience=4, target=AVERAGE(inputs)
        )
        assert report.converged

    @settings(max_examples=12, deadline=None)
    @given(params)
    def test_port_model(self, p):
        n, seed, values = p
        g = random_strongly_connected(n, seed=seed)
        inputs = values[:n]
        alg = StaticFunctionAlgorithm(AVERAGE, CM.OUTPUT_PORT_AWARE)
        report = run_until_stable(
            Execution(alg, g, inputs=inputs), 10 * n + 20, patience=4, target=AVERAGE(inputs)
        )
        assert report.converged

    @settings(max_examples=12, deadline=None)
    @given(params)
    def test_corollary_43_sum_with_known_n(self, p):
        n, seed, values = p
        g = random_strongly_connected(n, seed=seed)
        inputs = values[:n]
        alg = known_size_algorithm(SUM, CM.OUTDEGREE_AWARE, n=n)
        report = run_until_stable(
            Execution(alg, g, inputs=inputs), 10 * n + 20, patience=4, target=SUM(inputs)
        )
        assert report.converged


cells = st.tuples(
    st.integers(min_value=2, max_value=6),                      # n
    st.integers(min_value=0, max_value=10_000),                 # graph seed
    st.sampled_from([Knowledge.NONE, Knowledge.EXACT_N, Knowledge.LEADER]),
    st.permutations([MAXIMUM, AVERAGE, SUM]),                   # probe order
    st.integers(min_value=2, max_value=3),                      # probes in the cell
    st.booleans(),                                              # interleave rounds
    st.lists(st.integers(min_value=-3, max_value=3), min_size=6, max_size=6),
)


def cell_inputs(values, knowledge):
    if knowledge is Knowledge.LEADER:
        return [(v, i == 0) for i, v in enumerate(values)]
    return values


def outputs_per_round(executions, rounds, interleave):
    """Each execution's outputs after every round, stepping the executions
    one after another (as ``run_batch`` does) or round-robin."""
    trajectories = [[] for _ in executions]
    if interleave:
        for _ in range(rounds):
            for ex, trajectory in zip(executions, trajectories):
                ex.step()
                trajectory.append(ex.outputs())
    else:
        for ex, trajectory in zip(executions, trajectories):
            for _ in range(rounds):
                ex.step()
                trajectory.append(ex.outputs())
    return trajectories


def assert_sharing_changes_nothing(make, network, inputs, probes, rounds, interleave):
    shared = ViewBuilder()
    together = outputs_per_round(
        [Execution(make(f, shared), network, inputs=inputs) for f in probes],
        rounds,
        interleave,
    )
    solo = [
        outputs_per_round([Execution(make(f, ViewBuilder()), network, inputs=inputs)], rounds, False)[0]
        for f in probes
    ]
    assert together == solo


class TestSharedBuilder:
    @settings(max_examples=25, deadline=None)
    @given(
        cells,
        st.sampled_from([CM.OUTDEGREE_AWARE, CM.SYMMETRIC, CM.OUTPUT_PORT_AWARE]),
        st.one_of(st.none(), st.integers(min_value=2, max_value=16)),
    )
    def test_static_cell_probes(self, cell, model, max_view_depth):
        n, seed, knowledge, order, count, interleave, values = cell
        build = random_symmetric_connected if model is CM.SYMMETRIC else random_strongly_connected
        g = build(n, seed=seed)

        def make(f, builder):
            return StaticFunctionAlgorithm(
                f, model, knowledge=knowledge, n=n, leader_count=1,
                builder=builder, max_view_depth=max_view_depth,
            )

        assert_sharing_changes_nothing(
            make, g, cell_inputs(values[:n], knowledge), order[:count], 4 * n + 8, interleave
        )

    @settings(max_examples=15, deadline=None)
    @given(cells)
    def test_history_tree_cell_probes(self, cell):
        n, seed, knowledge, order, count, interleave, values = cell
        dyn = random_dynamic_symmetric(n, seed=seed)

        def make(f, builder):
            return HistoryTreeAlgorithm(
                knowledge=knowledge, n=n, leader_count=1, f=f, builder=builder
            )

        assert_sharing_changes_nothing(
            make, dyn, cell_inputs(values[:n], knowledge), order[:count], 3 * n + 6, interleave
        )
