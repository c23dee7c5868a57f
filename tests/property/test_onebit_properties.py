"""The one-bit broadcast model: engine faithfulness and engine hygiene.

ONE_BIT_BROADCAST carries a single bit per agent per round — the model
of Blanc, Di Luna & Viglietta's self-stabilizing clock work, and the
natural floor of the paper's "what does a sender know about its
audience" axis.  These properties pin its engine contract:

* the compiled fast path (:class:`~repro.core.engine.stepper.EngineStepper`
  via :class:`~repro.core.engine.transport.OneBitTransport`) is
  bit-identical to the naive :class:`~repro.core.engine.reference.ReferenceExecution`
  interpreter across static and dynamic networks;
* attaching a tracer never perturbs the run;
* the vector backend falls back transparently (no one-bit kernel is
  registered) and the quotient backend refuses to activate (the model is
  not outdegree-message-preserving), both with identical results;
* anything outside {0, 1} on the wire is rejected, identically, by the
  engine and the reference interpreter.

The ``REPRO_VECTOR=1`` rerun of this file in CI exercises the same
assertions through the engine's other default.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import OneBitCensusAlgorithm, OneBitFloodingAlgorithm
from repro.core.agent import OneBitAlgorithm
from repro.core.engine import (
    BatchJob,
    EngineFlags,
    QuotientExecution,
    VectorExecution,
    run_batch,
)
from repro.core.engine.reference import ReferenceExecution
from repro.core.engine.trace import trace_execution
from repro.core.execution import Execution
from repro.core.models import CommunicationModel
from repro.dynamics.dynamic_graph import PeriodicDynamicGraph
from repro.graphs.builders import (
    bidirectional_ring,
    complete_graph,
    random_strongly_connected,
)

ROUNDS = 6

seeds = st.integers(min_value=0, max_value=40)
sizes = st.integers(min_value=2, max_value=9)
bits = st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=9)


def _inputs(n, seed):
    return [(v * 31 + seed) % 2 for v in range(n)]


def _dynamic(n, seed):
    return PeriodicDynamicGraph(
        [random_strongly_connected(n, seed=seed + i) for i in range(3)]
    )


ALGORITHMS = [
    ("flood", lambda: OneBitFloodingAlgorithm()),
    ("census", lambda: OneBitCensusAlgorithm()),
]


# ---------------------------------------------------------------------- #
# engine == reference interpreter, bit for bit
# ---------------------------------------------------------------------- #

class TestEngineReferenceIdentity:
    @pytest.mark.parametrize("name,make", ALGORITHMS)
    @settings(max_examples=10)
    @given(seed=seeds, n=sizes)
    def test_static(self, name, make, seed, n):
        g = random_strongly_connected(n, seed=seed)
        inputs = _inputs(n, seed)
        eng = Execution(make(), g, inputs=inputs)
        ref = ReferenceExecution(make(), g, inputs=inputs)
        for _ in range(ROUNDS):
            eng.step()
            ref.step()
            assert eng.states == ref.states
        assert eng.outputs() == ref.outputs()

    @pytest.mark.parametrize("name,make", ALGORITHMS)
    @settings(max_examples=8)
    @given(seed=seeds, n=sizes)
    def test_dynamic(self, name, make, seed, n):
        dyn = _dynamic(n, seed)
        inputs = _inputs(n, seed)
        eng = Execution(make(), dyn, inputs=inputs)
        ref = ReferenceExecution(make(), dyn, inputs=inputs)
        eng.run(ROUNDS)
        ref.run(ROUNDS)
        assert eng.states == ref.states

    @settings(max_examples=10)
    @given(inputs=bits)
    def test_flooding_converges_to_or(self, inputs):
        n = len(inputs)
        g = bidirectional_ring(n)
        eng = Execution(OneBitFloodingAlgorithm(), g, inputs=inputs)
        eng.run(n)  # ring diameter bounds the flood
        assert eng.outputs() == [max(inputs)] * n

    @settings(max_examples=10)
    @given(inputs=bits)
    def test_census_counts_exactly_on_complete(self, inputs):
        n = len(inputs)
        eng = Execution(OneBitCensusAlgorithm(), complete_graph(n), inputs=inputs)
        eng.run(2)
        assert eng.outputs() == [(n, sum(inputs))] * n


# ---------------------------------------------------------------------- #
# tracing hygiene
# ---------------------------------------------------------------------- #

class TestSnapshotAndTrace:
    @settings(max_examples=8)
    @given(seed=seeds, n=sizes)
    def test_trace_does_not_interfere(self, seed, n):
        g = random_strongly_connected(n, seed=seed)
        inputs = _inputs(n, seed)
        plain = Execution(OneBitFloodingAlgorithm(), g, inputs=inputs)
        traced = Execution(OneBitFloodingAlgorithm(), g, inputs=inputs)
        tracer = trace_execution(traced, rounds=ROUNDS)
        plain.run(ROUNDS)
        assert traced.states == plain.states
        assert len(tracer.round_events()) == ROUNDS
        # One bit per edge: per-round payload accounting is exactly the
        # delivered message count.
        for event in tracer.round_events():
            assert event.fields["bytes_delivered"] == event.fields["messages"]


# ---------------------------------------------------------------------- #
# accelerated backends fall back, identically
# ---------------------------------------------------------------------- #

class TestBackendFallbacks:
    def test_vector_falls_back_no_kernel(self):
        from repro.core.engine.vector import clear_vector_stats, vector_stats

        g = random_strongly_connected(6, seed=3)
        inputs = _inputs(6, 3)
        clear_vector_stats()
        direct = Execution(OneBitCensusAlgorithm(), g, inputs=inputs)
        vec = VectorExecution(OneBitCensusAlgorithm(), g, inputs=inputs)
        assert not vec.vector_active
        assert vec.vector_fallback_reason == "no-kernel"
        assert vector_stats()["fallback_reasons"].get("no-kernel", 0) >= 1
        direct.run(ROUNDS)
        vec.run(ROUNDS)
        assert vec.states == direct.states

    def test_quotient_refuses_one_bit_model(self):
        from repro.core.engine.quotient import clear_quotient_stats, quotient_stats

        g = bidirectional_ring(6)  # vertex-transitive: every other gate passes
        clear_quotient_stats()
        direct = Execution(OneBitFloodingAlgorithm(), g, inputs=[1] * 6)
        quo = QuotientExecution(OneBitFloodingAlgorithm(), g, inputs=[1] * 6)
        assert not quo.quotient_active
        assert quo.quotient_fallback_reason == "model-not-message-preserving"
        stats = quotient_stats()
        assert stats["activations"] == 0
        assert stats["fallback_reasons"] == {"model-not-message-preserving": 1}
        direct.run(ROUNDS)
        quo.run(ROUNDS)
        assert quo.states == direct.states

    def test_run_batch_all_modes_agree(self):
        def jobs():
            g = random_strongly_connected(6, seed=4)
            dyn = _dynamic(6, 4)
            return [
                BatchJob(
                    OneBitFloodingAlgorithm(), g, inputs=_inputs(6, 4), rounds=ROUNDS
                ),
                BatchJob(
                    OneBitCensusAlgorithm(), dyn, inputs=_inputs(6, 5), rounds=ROUNDS
                ),
            ]

        base = [r.outputs for r in run_batch(jobs())]
        vector = EngineFlags(vector=True)
        assert [r.outputs for r in run_batch(jobs(), engine=vector)] == base
        quotient = EngineFlags(quotient=True)
        assert [r.outputs for r in run_batch(jobs(), engine=quotient)] == base


# ---------------------------------------------------------------------- #
# wire discipline: only 0 and 1 travel
# ---------------------------------------------------------------------- #

class _Leaky(OneBitAlgorithm):
    """Emits a forbidden payload so both interpreters must reject it."""

    def __init__(self, payload):
        self.payload = payload

    def initial_state(self, input_value):
        return input_value

    def bit(self, state, outdegree):
        return self.payload

    def transition(self, state, received):
        return state

    def output(self, state):
        return state


class TestWireDiscipline:
    @pytest.mark.parametrize("payload", [2, -1, 0.0, 1.0, "1", None, [1]])
    def test_engine_rejects_non_bits(self, payload):
        g = complete_graph(3)
        execution = Execution(_Leaky(payload), g, inputs=[0, 1, 0])
        with pytest.raises(ValueError, match="only carries 0 or 1"):
            execution.step()

    @pytest.mark.parametrize("payload", [2, -1, 0.0, "1", None])
    def test_reference_rejects_non_bits(self, payload):
        g = complete_graph(3)
        ref = ReferenceExecution(_Leaky(payload), g, inputs=[0, 1, 0])
        with pytest.raises(ValueError, match="only carries 0 or 1"):
            ref.step()

    @pytest.mark.parametrize("payload", [True, False])
    def test_booleans_normalize_identically(self, payload):
        g = complete_graph(3)
        eng = Execution(_Leaky(payload), g, inputs=[0, 1, 0])
        ref = ReferenceExecution(_Leaky(payload), g, inputs=[0, 1, 0])
        eng.step()
        ref.step()
        assert eng.states == ref.states

    def test_model_properties(self):
        model = CommunicationModel.ONE_BIT_BROADCAST
        assert model.isotropic
        assert model.sees_outdegree
        assert not model.static_only
        assert not model.requires_symmetric_network
        assert not model.outdegree_message_preserving
