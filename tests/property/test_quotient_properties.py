"""Quotient execution IS direct execution — Lemma 3.1, operationally.

:class:`~repro.core.engine.quotient.QuotientExecution` simulates the
memoized minimum base and lifts the trajectory fibrewise.  These tests
pin the contract:

* **Bit-identity.**  On graphs where the quotient activates, the lifted
  trajectory equals the direct trajectory round for round — states,
  outputs, round numbers — across all four communication models, traced
  and untraced, and through ``run_batch``.  The algorithms used are
  order-invariant and exact on purpose: the base's delivery-scramble
  stream is a different stream than the full graph's, and the lemma only
  promises identity up to inbox order.
* **Fallback.**  Asymmetric random graphs (trivial base), dynamic
  networks, the ``OUTPUT_PORT_AWARE`` model, and fibrations that do not
  preserve outdegrees all fall back to direct execution — same
  trajectory, ``quotient_active == False``, a named fallback reason.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import GossipAlgorithm
from repro.core.agent import OutdegreeAlgorithm, OutputPortAlgorithm
from repro.core.engine.batch import EngineFlags, select_backend
from repro.core.engine.quotient import (
    QUOTIENT_RATIO,
    QuotientExecution,
    clear_quotient_stats,
    quotient_stats,
)
from repro.core.execution import Execution
from repro.core.models import CommunicationModel
from repro.graphs.builders import (
    bidirectional_ring,
    complete_graph,
    de_bruijn_graph,
    directed_ring,
    hypercube,
    random_strongly_connected,
    star_graph,
    torus,
)

ROUNDS = 4


class SymmetricGossip(GossipAlgorithm):
    """Gossip under the SYMMETRIC model (set union — order-invariant)."""

    model = CommunicationModel.SYMMETRIC


class ExactOutdegree(OutdegreeAlgorithm):
    """Order-invariant, exact-arithmetic OUTDEGREE_AWARE algorithm.

    State = (frozenset of values seen, frozenset of outdegrees seen);
    transitions are unions, so inbox order cannot matter and every value
    is an exact int — a float accumulator would forgive nothing and
    prove nothing.
    """

    def initial_state(self, input_value):
        return (frozenset([input_value]), frozenset())

    def message(self, state, outdegree):
        return (state[0], state[1] | {outdegree})

    def transition(self, state, received):
        values, degrees = state[0], state[1]
        for (vals, degs) in received:
            values |= vals
            degrees |= degs
        return (values, degrees)

    def output(self, state):
        return (state[0], state[1])


class PortGossip(OutputPortAlgorithm):
    """OUTPUT_PORT_AWARE set-flooding — quotient must always fall back."""

    def initial_state(self, input_value):
        return frozenset([input_value])

    def messages(self, state, outdegree):
        return [state | {("port", port)} for port in range(outdegree)]

    def transition(self, state, received):
        for msg in received:
            state |= msg
        return state

    def output(self, state):
        return state


def transitive_graph(family: str, size_index: int):
    """A vertex-transitive graph from one of the paper's stock families."""
    if family == "ring":
        return bidirectional_ring(3 + size_index)
    if family == "directed-ring":
        return directed_ring(3 + size_index)
    if family == "torus":
        return torus(2 + size_index, 3)
    if family == "hypercube":
        return hypercube(2 + size_index % 3)
    if family == "complete":
        return complete_graph(3 + size_index)
    return de_bruijn_graph(2, 2 + size_index % 3)


FAMILIES = ["ring", "directed-ring", "torus", "hypercube", "complete", "de-bruijn"]

transitive_params = st.tuples(
    st.sampled_from(FAMILIES),
    st.integers(min_value=0, max_value=4),  # size index
    st.integers(min_value=0, max_value=100),  # input value
    st.one_of(st.none(), st.integers(min_value=0, max_value=2**31 - 1)),  # scramble
)


def assert_bit_identical(algorithm_factory, network, inputs, scramble, *,
                         expect_active, tracer_on_quotient=False):
    """Step a quotient run and a direct run in lockstep; compare everything."""
    quotient = QuotientExecution(
        algorithm_factory(), network, inputs=inputs, scramble_seed=scramble
    )
    direct = Execution(
        algorithm_factory(), network, inputs=inputs, scramble_seed=scramble
    )
    assert isinstance(quotient, QuotientExecution)
    assert quotient.quotient_active == expect_active
    if expect_active:
        assert quotient.base_n < network.n
    if tracer_on_quotient:
        from repro.core.engine.trace import Tracer

        quotient.attach(Tracer())
        direct.attach(Tracer())
    for _ in range(ROUNDS):
        quotient.step()
        direct.step()
        assert quotient.round_number == direct.round_number
        assert quotient.states == direct.states
        assert quotient.outputs() == direct.outputs()
        assert quotient.unanimous_output() == direct.unanimous_output()
    return quotient


class TestBitIdentityTransitive:
    """Constant inputs on vertex-transitive graphs: the quotient activates
    (the minimum base is a single vertex) and the trajectory lifts
    bit-for-bit, for every model that can lift at all."""

    @settings(max_examples=25, deadline=None)
    @given(transitive_params)
    def test_broadcast(self, p):
        family, size, value, scramble = p
        g = transitive_graph(family, size)
        assert_bit_identical(
            lambda: GossipAlgorithm(max), g, [value] * g.n, scramble,
            expect_active=True,
        )

    @settings(max_examples=15, deadline=None)
    @given(transitive_params)
    def test_symmetric(self, p):
        family, size, value, scramble = p
        if family in ("directed-ring", "de-bruijn"):
            family = "ring"  # SYMMETRIC needs a symmetric network
        g = transitive_graph(family, size)
        assert_bit_identical(
            lambda: SymmetricGossip(max), g, [value] * g.n, scramble,
            expect_active=True,
        )

    @settings(max_examples=15, deadline=None)
    @given(transitive_params)
    def test_outdegree(self, p):
        family, size, value, scramble = p
        if family == "de-bruijn":
            # De Bruijn graphs are not vertex-transitive: their base is
            # nontrivial and does not preserve outdegrees (that fallback
            # has its own test on the star graph below).
            family = "torus"
        g = transitive_graph(family, size)
        # Vertex-transitive graphs are out-regular, so the one-vertex
        # base preserves the outdegree and the quotient activates.
        assert_bit_identical(
            lambda: ExactOutdegree(), g, [value] * g.n, scramble,
            expect_active=True,
        )

    @settings(max_examples=10, deadline=None)
    @given(transitive_params)
    def test_output_ports_fall_back(self, p):
        family, size, value, scramble = p
        g = transitive_graph(family, size)
        execution = assert_bit_identical(
            lambda: PortGossip(), g, [value] * g.n, scramble,
            expect_active=False,
        )
        assert execution.quotient_fallback_reason == "output-port-model"

    @settings(max_examples=10, deadline=None)
    @given(transitive_params)
    def test_traced_runs_stay_identical(self, p):
        family, size, value, scramble = p
        g = transitive_graph(family, size)
        assert_bit_identical(
            lambda: GossipAlgorithm(max), g, [value] * g.n, scramble,
            expect_active=True, tracer_on_quotient=True,
        )


class TestBitIdentityRefinedBase:
    """Fibrewise-constant-but-not-constant inputs: the refined base
    (valued by the initial configuration) still activates."""

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=2, max_value=4),   # period
        st.integers(min_value=2, max_value=4),   # repetitions
        st.one_of(st.none(), st.integers(min_value=0, max_value=2**31 - 1)),
    )
    def test_periodic_ring_inputs(self, period, reps, scramble):
        n = period * reps
        g = bidirectional_ring(n)
        inputs = [(v % period) * 10 + 1 for v in range(n)]
        quotient = assert_bit_identical(
            lambda: GossipAlgorithm(max), g, inputs, scramble, expect_active=True
        )
        assert quotient.base_n == period


class TestFallbacks:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=4, max_value=8),
        st.integers(min_value=0, max_value=10_000),
        st.one_of(st.none(), st.integers(min_value=0, max_value=2**31 - 1)),
    )
    def test_asymmetric_graphs_fall_back_bit_identically(self, n, seed, scramble):
        g = random_strongly_connected(n, seed=seed)
        execution = assert_bit_identical(
            lambda: GossipAlgorithm(max), g, list(range(n)), scramble,
            expect_active=False,
        )
        assert execution.quotient_fallback_reason in (
            "trivial-base",
            "base-too-large",
            "inputs-not-fibrewise-constant",
        )

    def test_dynamic_network_falls_back(self):
        from repro.dynamics.generators import random_dynamic_strongly_connected

        dyn = random_dynamic_strongly_connected(5, seed=3)
        execution = QuotientExecution(GossipAlgorithm(max), dyn, inputs=[1] * 5)
        assert not execution.quotient_active
        assert execution.quotient_fallback_reason == "dynamic-network"
        direct = Execution(
            GossipAlgorithm(max),
            random_dynamic_strongly_connected(5, seed=3),
            inputs=[1] * 5,
        )
        execution.run(ROUNDS)
        direct.run(ROUNDS)
        assert execution.states == direct.states

    def test_outdegree_not_preserved_falls_back(self):
        # The star's base merges all leaves; the hub's outdegree (n-1
        # leaves) does not survive into the two-vertex base, so any
        # outdegree-aware run must fall back — and still agree with the
        # direct run.
        g = star_graph(6)
        execution = assert_bit_identical(
            lambda: ExactOutdegree(), g, [3] * g.n, None, expect_active=False
        )
        assert execution.quotient_fallback_reason == "outdegree-not-preserved"
        # ...while a broadcast run on the same star activates fine.
        broadcast = QuotientExecution(GossipAlgorithm(max), g, inputs=[3] * g.n)
        assert broadcast.quotient_active and broadcast.base_n == 2

    def test_ratio_knob(self):
        assert QUOTIENT_RATIO == 0.5
        g = bidirectional_ring(6)
        constant = QuotientExecution(GossipAlgorithm(max), g, inputs=[1] * 6)
        assert constant.quotient_active and constant.base_n == 1  # 1/6
        periodic = QuotientExecution(
            GossipAlgorithm(max), bidirectional_ring(8),
            inputs=[v % 4 for v in range(8)],
        )
        assert periodic.quotient_active and periodic.base_n == 4  # 4/8
        one_hot = QuotientExecution(GossipAlgorithm(max), g, inputs=[1] + [0] * 5)
        assert not one_hot.quotient_active  # 4/6: one class per distance from the 1
        assert one_hot.quotient_fallback_reason == "base-too-large"

    def test_env_flag(self, monkeypatch):
        monkeypatch.delenv("REPRO_VECTOR", raising=False)
        monkeypatch.delenv("REPRO_QUOTIENT", raising=False)
        assert select_backend() is Execution
        monkeypatch.setenv("REPRO_QUOTIENT", "1")
        assert select_backend() is QuotientExecution

    def test_model_violation_falls_back_then_direct_raises(self):
        g = bidirectional_ring(4, self_loops=False)
        execution = QuotientExecution(GossipAlgorithm(max), g, inputs=[1] * 4)
        assert not execution.quotient_active
        assert execution.quotient_fallback_reason == "model-violation"
        with pytest.raises(ValueError):
            execution.step()


class TestCounters:
    def test_activations_fallbacks_lifts(self):
        clear_quotient_stats()
        g = hypercube(3)
        execution = QuotientExecution(GossipAlgorithm(max), g, inputs=[2] * g.n)
        execution.run(2)
        _ = execution.states  # forces one lazy lift
        QuotientExecution(
            GossipAlgorithm(max),
            random_strongly_connected(6, seed=1),
            inputs=list(range(6)),
        )
        stats = quotient_stats()
        assert stats["activations"] == 1
        assert stats["fallbacks"] == 1
        assert stats["lifts"] == 1
        assert sum(stats["fallback_reasons"].values()) == 1

    def test_one_bit_model_is_a_checked_fallback(self):
        """REPRO_QUOTIENT=1 (or EngineFlags(quotient=True)) with a one-bit
        algorithm must never activate — the model is not outdegree-
        message-preserving — and the refusal lands in the fallback
        counters."""
        from repro.algorithms.onebit import OneBitFloodingAlgorithm

        clear_quotient_stats()
        g = hypercube(3)  # vertex-transitive: every other gate would pass
        execution = QuotientExecution(OneBitFloodingAlgorithm(), g, inputs=[1] * g.n)
        assert not execution.quotient_active
        assert execution.quotient_fallback_reason == "model-not-message-preserving"
        execution.run(2)
        stats = quotient_stats()
        assert stats["activations"] == 0
        assert stats["fallbacks"] == 1
        assert stats["fallback_reasons"] == {"model-not-message-preserving": 1}

    def test_publish_metrics_delta(self):
        from repro.core.engine.trace import MetricsRegistry
        from repro.core.engine.quotient import publish_quotient_metrics

        baseline = quotient_stats()
        g = hypercube(2)
        QuotientExecution(GossipAlgorithm(max), g, inputs=[1] * g.n)
        registry = MetricsRegistry()
        publish_quotient_metrics(registry, baseline)
        assert registry.counter("quotient_activations").value == 1


class TestBatchAndParallel:
    """The quotient backend's batches and sweeps equal the direct ones."""

    def test_run_batch_quotient_matches_direct(self):
        from repro.core.engine.batch import BatchJob, run_batch

        jobs = [
            BatchJob(
                algorithm=GossipAlgorithm(max),
                network=transitive_graph(family, 1),
                inputs=[7] * transitive_graph(family, 1).n,
                runner="rounds",
                rounds=ROUNDS,
                label=family,
            )
            for family in FAMILIES
        ]
        accelerated = run_batch(jobs, engine=EngineFlags(quotient=True))
        plain = run_batch(jobs, engine=EngineFlags(quotient=False))
        for fast, slow in zip(accelerated, plain):
            assert fast.outputs == slow.outputs
            assert fast.label == slow.label

    def test_bandwidth_sweep_quotient_curves_equal(self):
        from repro.analysis.bandwidth import bandwidth_sweep
        from repro.core.engine.vector import vector_stats

        specs = [
            (lambda: GossipAlgorithm(max), lambda: hypercube(3), [5] * 8, 3),
            (lambda: GossipAlgorithm(max), lambda: bidirectional_ring(6), [2] * 6, 3),
            (
                lambda: GossipAlgorithm(max),
                lambda: random_strongly_connected(7, seed=2),
                list(range(7)),
                4,
            ),
        ]
        plain = bandwidth_sweep(specs, EngineFlags(quotient=False, vector=False))
        assert plain == [[1, 1, 1], [1, 1, 1], [5, 7, 7, 7]]
        assert bandwidth_sweep(specs, EngineFlags(quotient=True)) == plain
        activations = vector_stats()["activations"]
        assert bandwidth_sweep(specs, EngineFlags(quotient=False, vector=True)) == plain
        assert vector_stats()["activations"] - activations == len(specs)
