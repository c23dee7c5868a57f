"""Vector execution IS object execution — the faithfulness contract.

:class:`~repro.core.engine.vector.VectorExecution` runs whole rounds as
numpy gather/scatter kernels.  These properties pin its contract against
the object engine across all four communication models, static and
dynamic networks, traced and untraced runs, and the batch runner:

* **Exact kernels** (gossip's boolean OR-flooding, the custom port-aware
  kernel below) must reproduce the object trajectory *bit for bit* —
  states, outputs, digests, the full deterministic round projection.
* **Float kernels** (Push-Sum and variants, Metropolis, per-value
  frequency Push-Sum) may associate sums differently than the object
  engine's left-to-right folds, so trajectories agree within
  :func:`~repro.analysis.impossibility.outputs_match` tolerance while
  the discrete trace fields (messages, bytes) stay exactly equal.
* The gossip kernel unpacks one frozenset per distinct packed row and
  hands it to every agent of that row; inputs over a few values make
  states repeat from the first round.
* The backend draws nothing from the scramble RNG, so enabling it can
  never perturb an interleaved object execution.

``REPRO_VECTOR=0`` and ``=1`` runs of this file exercise both defaults
through ``run_batch``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    GossipAlgorithm,
    MetropolisAlgorithm,
    PushSumAlgorithm,
)
from repro.algorithms.push_sum import VectorPushSumAlgorithm
from repro.algorithms.push_sum_frequency import PushSumFrequencyAlgorithm
from repro.analysis.impossibility import outputs_match
from repro.core.agent import OutputPortAlgorithm
from repro.core.engine import BatchJob, EngineFlags, run_batch
from repro.core.engine.trace import Tracer, trace_execution
from repro.core.engine.vector import (
    VectorExecution,
    VectorKernel,
    kernel_for,
    register_kernel,
)
from repro.core.execution import Execution
from repro.core.models import CommunicationModel
from repro.dynamics.dynamic_graph import PeriodicDynamicGraph
from repro.graphs.builders import (
    bidirectional_ring,
    random_strongly_connected,
    random_symmetric_connected,
)

ROUNDS = 6

seeds = st.integers(min_value=0, max_value=40)
sizes = st.integers(min_value=2, max_value=9)


@st.composite
def repeating_inputs(draw):
    """Inputs over up to 20 values, so agents share states and the
    universe can span several packed bytes."""
    n = draw(sizes)
    width = draw(st.integers(min_value=1, max_value=20))
    return draw(st.lists(st.integers(0, width - 1), min_size=n, max_size=n))


def _one_object_per_state(states):
    return len({id(s) for s in states}) == len(set(states))


class SymmetricGossip(GossipAlgorithm):
    """Gossip under SYMMETRIC — same round function, stricter network
    precondition, so the registered gossip kernel still applies."""

    model = CommunicationModel.SYMMETRIC


class PortShiftMax(OutputPortAlgorithm):
    """Exact OUTPUT_PORT_AWARE algorithm with a test-registered kernel.

    Port ``p`` carries ``state + p`` (the ports genuinely matter), and
    the transition folds by ``max`` — associative, order-invariant,
    integer-exact.  Registered below via the public
    :func:`register_kernel` extension point, demonstrating that the
    fourth model vectorizes the same way the built-ins do.
    """

    def initial_state(self, input_value):
        return int(input_value)

    def messages(self, state, outdegree):
        return [state + p for p in range(outdegree)]

    def transition(self, state, received):
        return max(state, max(received))

    def output(self, state):
        return state


class PortShiftMaxKernel(VectorKernel):
    def pack(self, states):
        return np.array([int(s) for s in states], dtype=np.int64)

    def unpack(self, packed):
        return [int(x) for x in packed]

    def step(self, packed, csr):
        received = packed.copy()
        np.maximum.at(received, csr.targets, packed[csr.sources] + csr.ports)
        return received


register_kernel(PortShiftMax)(PortShiftMaxKernel)


def _dynamic(n, seed, symmetric=False):
    build = random_symmetric_connected if symmetric else random_strongly_connected
    return PeriodicDynamicGraph([build(n, seed=seed + i) for i in range(3)])


def _pair(algorithm_factory, network, inputs, **kwargs):
    obj = Execution(algorithm_factory(), network, inputs=inputs, **kwargs)
    vec = VectorExecution(algorithm_factory(), network, inputs=inputs, **kwargs)
    return obj, vec


# ---------------------------------------------------------------------- #
# exact kernels: bit-for-bit across models
# ---------------------------------------------------------------------- #

class TestExactBitIdentity:
    @settings(max_examples=12)
    @given(seed=seeds, inputs=repeating_inputs())
    def test_broadcast_gossip_static(self, seed, inputs):
        g = random_strongly_connected(len(inputs), seed=seed)
        obj, vec = _pair(lambda: GossipAlgorithm(max), g, inputs)
        assert vec.vector_active
        for _ in range(ROUNDS):
            obj.step()
            vec.step()
            assert vec.unanimous_output() == obj.unanimous_output()
            assert vec.states == obj.states
            assert _one_object_per_state(vec.states)

    @settings(max_examples=10)
    @given(seed=seeds, inputs=repeating_inputs())
    def test_broadcast_gossip_dynamic(self, seed, inputs):
        dyn = _dynamic(len(inputs), seed)
        obj, vec = _pair(lambda: GossipAlgorithm(max), dyn, inputs)
        assert vec.vector_active
        obj.run(ROUNDS)
        vec.run(ROUNDS)
        assert vec.states == obj.states
        assert _one_object_per_state(vec.states)
        assert vec.outputs() == obj.outputs()

    @settings(max_examples=10)
    @given(seed=seeds, n=st.integers(min_value=3, max_value=8))
    def test_symmetric_gossip(self, seed, n):
        g = random_symmetric_connected(n, seed=seed)
        obj, vec = _pair(lambda: SymmetricGossip(max), g, list(range(n)))
        assert vec.vector_active
        obj.run(ROUNDS)
        vec.run(ROUNDS)
        assert vec.states == obj.states

    @settings(max_examples=10)
    @given(seed=seeds, n=st.integers(min_value=3, max_value=8))
    def test_symmetric_gossip_dynamic(self, seed, n):
        dyn = _dynamic(n, seed, symmetric=True)
        obj, vec = _pair(lambda: SymmetricGossip(max), dyn, list(range(n)))
        assert vec.vector_active
        obj.run(ROUNDS)
        vec.run(ROUNDS)
        assert vec.states == obj.states

    @settings(max_examples=12)
    @given(seed=seeds, n=sizes)
    def test_output_port_aware_custom_kernel(self, seed, n):
        # OUTPUT_PORT_AWARE is static-only (§2.2).
        g = random_strongly_connected(n, seed=seed)
        obj, vec = _pair(PortShiftMax, g, list(range(n)))
        assert vec.vector_active
        for _ in range(ROUNDS):
            obj.step()
            vec.step()
            assert vec.states == obj.states

    def test_port_kernel_resolves_via_registry(self):
        assert isinstance(kernel_for(PortShiftMax()), PortShiftMaxKernel)


# ---------------------------------------------------------------------- #
# float kernels: tolerance on values, exact on structure
# ---------------------------------------------------------------------- #

FLOAT_FAMILIES = [
    ("push-sum", lambda n: (lambda: PushSumAlgorithm()), lambda n: [float(v + 1) for v in range(n)]),
    (
        "vector-push-sum",
        lambda n: (lambda: VectorPushSumAlgorithm()),
        lambda n: [(float(v), float(n - v)) for v in range(n)],
    ),
    ("metropolis", lambda n: (lambda: MetropolisAlgorithm()), lambda n: [float(v * v) for v in range(n)]),
    (
        "frequency",
        lambda n: (lambda: PushSumFrequencyAlgorithm(mode="frequencies")),
        lambda n: [v % 3 for v in range(n)],
    ),
]


class TestFloatTolerance:
    @pytest.mark.parametrize("name,make,make_inputs", FLOAT_FAMILIES)
    @settings(max_examples=8)
    @given(seed=seeds, n=st.integers(min_value=3, max_value=9))
    def test_static(self, name, make, make_inputs, seed, n):
        g = (
            random_symmetric_connected(n, seed=seed)
            if name == "metropolis"
            else random_strongly_connected(n, seed=seed)
        )
        obj, vec = _pair(make(n), g, make_inputs(n))
        assert vec.vector_active, vec.vector_fallback_reason
        obj.run(ROUNDS)
        vec.run(ROUNDS)
        assert outputs_match(vec.outputs(), obj.outputs())

    @pytest.mark.parametrize("name,make,make_inputs", FLOAT_FAMILIES)
    @settings(max_examples=6)
    @given(seed=seeds, n=st.integers(min_value=3, max_value=8))
    def test_dynamic(self, name, make, make_inputs, seed, n):
        dyn = _dynamic(n, seed, symmetric=name == "metropolis")
        obj, vec = _pair(make(n), dyn, make_inputs(n))
        assert vec.vector_active, vec.vector_fallback_reason
        obj.run(ROUNDS)
        vec.run(ROUNDS)
        assert outputs_match(vec.outputs(), obj.outputs())


# ---------------------------------------------------------------------- #
# traced runs
# ---------------------------------------------------------------------- #

class TestTraced:
    @settings(max_examples=8)
    @given(seed=seeds, n=sizes)
    def test_exact_trace_is_identical(self, seed, n):
        g = random_strongly_connected(n, seed=seed)
        obj, vec = _pair(lambda: GossipAlgorithm(max), g, list(range(n)))
        t_obj = trace_execution(obj, rounds=ROUNDS)
        t_vec = trace_execution(vec, rounds=ROUNDS)
        assert t_vec.deterministic_rounds() == t_obj.deterministic_rounds()

    @settings(max_examples=6)
    @given(seed=seeds, n=st.integers(min_value=3, max_value=8))
    def test_float_trace_discrete_fields_exact(self, seed, n):
        g = random_strongly_connected(n, seed=seed)
        obj, vec = _pair(
            lambda: PushSumAlgorithm(), g, [float(v + 1) for v in range(n)]
        )
        t_obj = trace_execution(obj, rounds=ROUNDS)
        t_vec = trace_execution(vec, rounds=ROUNDS)
        for e_obj, e_vec in zip(t_obj.round_events(), t_vec.round_events()):
            assert e_vec.round == e_obj.round
            assert e_vec.fields["messages"] == e_obj.fields["messages"]
            assert e_vec.fields["bytes_delivered"] == e_obj.fields["bytes_delivered"]
            assert e_vec.fields["bytes_peak"] == e_obj.fields["bytes_peak"]
            # Residuals differ only by float association.
            assert outputs_match(
                e_vec.fields["residual"], e_obj.fields["residual"], abs_tol=1e-9
            )

    def test_traced_and_untraced_vector_agree(self):
        g = random_strongly_connected(7, seed=5)
        inputs = list(range(7))
        plain = VectorExecution(GossipAlgorithm(max), g, inputs=inputs)
        traced = VectorExecution(GossipAlgorithm(max), g, inputs=inputs)
        trace_execution(traced, rounds=ROUNDS)
        plain.run(ROUNDS)
        assert plain.states == traced.states


# ---------------------------------------------------------------------- #
# the batch runner
# ---------------------------------------------------------------------- #

def _batch_jobs(n=6, seed=4):
    g = random_strongly_connected(n, seed=seed)
    dyn = _dynamic(n, seed)
    return [
        BatchJob(GossipAlgorithm(max), g, inputs=list(range(n)), rounds=ROUNDS),
        BatchJob(
            PushSumAlgorithm(), dyn, inputs=[float(v + 1) for v in range(n)], rounds=ROUNDS
        ),
    ]


class TestBatchBackends:
    def test_run_batch_vector_override(self):
        off, on = EngineFlags(vector=False), EngineFlags(vector=True)
        base = [r.outputs for r in run_batch(_batch_jobs(), engine=off)]
        vec = [r.outputs for r in run_batch(_batch_jobs(), engine=on)]
        assert outputs_match(vec, base)

    def test_env_default_respected(self, monkeypatch):
        from repro.core.engine.vector import clear_vector_stats, vector_stats

        # A set REPRO_QUOTIENT would win over REPRO_VECTOR.
        monkeypatch.delenv("REPRO_QUOTIENT", raising=False)
        monkeypatch.setenv("REPRO_VECTOR", "1")
        clear_vector_stats()
        run_batch(_batch_jobs())
        assert vector_stats()["activations"] == 2
        monkeypatch.setenv("REPRO_VECTOR", "0")
        clear_vector_stats()
        run_batch(_batch_jobs())
        assert vector_stats()["activations"] == 0


# ---------------------------------------------------------------------- #
# scramble-stream independence
# ---------------------------------------------------------------------- #

class TestScrambleIndependence:
    def test_vector_never_consumes_scramble_stream(self):
        """Two object executions interleaved with a vector one stay on
        the trajectory they would take alone — the vector path draws
        nothing from any RNG."""
        g = bidirectional_ring(6)
        inputs = [3, 1, 4, 1, 5, 9]
        alone = Execution(GossipAlgorithm(max), g, inputs=inputs).run(ROUNDS)
        interleaved = Execution(GossipAlgorithm(max), g, inputs=inputs)
        vec = VectorExecution(GossipAlgorithm(max), g, inputs=inputs)
        for _ in range(ROUNDS):
            vec.step()
            interleaved.step()
        assert interleaved.states == alone.states
        assert vec.states == alone.states
