"""Unit tests for the vector backend's plumbing.

The faithfulness contract (vector trajectories == object trajectories)
lives in ``tests/property/test_vector_properties.py``; these tests pin
the machinery around it: CSR index arrays, the kernel registry and its
faithful-subclass guard, activation/fallback bookkeeping, state
synchronization through the ``states`` setter, error-behavior parity,
and the gossip kernel's one unpacked state per distinct packed row.
"""

import os

import numpy as np
import pytest

from repro.algorithms import GossipAlgorithm, MetropolisAlgorithm, PushSumAlgorithm
from repro.algorithms.push_sum_frequency import PushSumFrequencyAlgorithm
from repro.core.convergence import run_until_stable
from repro.core.engine.batch import EngineFlags, select_backend
from repro.core.engine.plan import compile_plan
from repro.core.engine.trace import trace_execution
from repro.core.engine.vector import (
    CSRPlan,
    GossipKernel,
    VectorExecution,
    clear_vector_stats,
    csr_for,
    kernel_for,
    register_kernel,
    vector_stats,
)
from repro.core.execution import Execution
from repro.core.metrics import canonical_repr
from repro.graphs.builders import (
    bidirectional_ring,
    directed_ring,
    random_strongly_connected,
)
from repro.graphs.digraph import DiGraph


@pytest.fixture(autouse=True)
def _fresh_stats():
    clear_vector_stats()
    yield
    clear_vector_stats()


class TestCSRPlan:
    def test_matches_plan_arrays(self):
        g = random_strongly_connected(9, seed=3)
        plan = compile_plan(g)
        csr = csr_for(plan)
        assert csr.n == g.n
        assert csr.num_messages == plan.num_messages
        # Receiver j's in-edge slice reproduces the plan's source lists.
        for j in range(g.n):
            lo, hi = int(csr.indptr[j]), int(csr.indptr[j + 1])
            assert list(csr.sources[lo:hi]) == list(plan.sources[j])
            assert list(csr.ports[lo:hi]) == list(plan.source_ports[j])
            assert all(int(t) == j for t in csr.targets[lo:hi])
        assert list(csr.outdegrees) == list(plan.outdegrees)
        assert list(csr.indegrees) == [len(s) for s in plan.sources]

    def test_cached_on_plan(self):
        plan = compile_plan(bidirectional_ring(5))
        assert csr_for(plan) is csr_for(plan)

    def test_distinct_plans_distinct_csr(self):
        a = compile_plan(bidirectional_ring(5))
        b = compile_plan(bidirectional_ring(5))
        assert csr_for(a) is not csr_for(b)
        assert isinstance(csr_for(a), CSRPlan)


class TestKernelRegistry:
    def test_builtins_resolve(self):
        assert kernel_for(GossipAlgorithm(max)) is not None
        assert kernel_for(PushSumAlgorithm()) is not None
        assert kernel_for(MetropolisAlgorithm()) is not None

    def test_unknown_algorithm_has_no_kernel(self):
        from repro.core.agent import Algorithm

        class Exotic(Algorithm):
            def initial_state(self, input_value):
                return input_value

            def message(self, state):
                return state

            def transition(self, state, received):
                return state

            def output(self, state):
                return state

        assert kernel_for(Exotic()) is None

    def test_unfaithful_subclass_is_refused(self):
        class Tweaked(PushSumAlgorithm):
            def transition(self, state, received):
                return super().transition(state, received)

        assert kernel_for(Tweaked()) is None

    def test_faithful_subclass_is_served(self):
        # Overriding output (not the round function) keeps the kernel.
        class Rounded(PushSumAlgorithm):
            def output(self, state):
                return round(super().output(state), 3)

        assert kernel_for(Rounded()) is not None

    def test_register_kernel_extension(self):
        from repro.core.agent import Algorithm
        from repro.core.engine.vector import VectorKernel

        class Custom(Algorithm):
            def initial_state(self, input_value):
                return input_value

            def message(self, state):
                return state

            def transition(self, state, received):
                return state

            def output(self, state):
                return state

        class NullKernel(VectorKernel):
            pass

        register_kernel(Custom)(NullKernel)
        assert isinstance(kernel_for(Custom()), NullKernel)

    def test_factory_may_decline(self):
        from repro.core.agent import Algorithm

        class Declined(Algorithm):
            def initial_state(self, input_value):
                return input_value

            def message(self, state):
                return state

            def transition(self, state, received):
                return state

            def output(self, state):
                return state

        register_kernel(Declined)(lambda algorithm: None)
        assert kernel_for(Declined()) is None


class TestActivation:
    def test_execution_facade_dispatch(self):
        g = bidirectional_ring(6)
        backend = select_backend(EngineFlags(quotient=False, vector=True))
        ex = backend(GossipAlgorithm(max), g, inputs=list(range(6)))
        assert isinstance(ex, VectorExecution)
        assert ex.vector_active
        assert vector_stats()["activations"] == 1

    def test_quotient_wins_over_vector(self):
        from repro.core.engine.quotient import QuotientExecution

        g = bidirectional_ring(6)
        backend = select_backend(EngineFlags(quotient=True, vector=True))
        ex = backend(GossipAlgorithm(max), g, inputs=[1] * 6)
        assert isinstance(ex, QuotientExecution)

    def test_no_kernel_falls_back(self):
        class Tweaked(PushSumAlgorithm):
            def transition(self, state, received):
                return super().transition(state, received)

        g = bidirectional_ring(4)
        ex = VectorExecution(Tweaked(), g, inputs=[1.0] * 4)
        assert isinstance(ex, VectorExecution)
        assert not ex.vector_active
        assert ex.vector_fallback_reason == "no-kernel"
        stats = vector_stats()
        assert stats["fallbacks"] == 1
        assert stats["fallback_reasons"] == {"no-kernel": 1}
        # ...and the object path still runs correctly.
        ex.run(6)
        direct = Execution(Tweaked(), g, inputs=[1.0] * 4).run(6)
        assert ex.outputs() == direct.outputs()

    def test_pack_failure_falls_back(self):
        g = bidirectional_ring(4)
        # Gossip states must be sets; a scalar initial state can't pack.
        ex = VectorExecution(GossipAlgorithm(max), g, initial_states=[1, 2, 3, 4])
        assert not ex.vector_active
        assert ex.vector_fallback_reason == "pack-failed"

    def test_round_counters_split_observed(self):
        g = bidirectional_ring(5)
        ex = VectorExecution(GossipAlgorithm(max), g, inputs=list(range(5)))
        ex.run(3)
        assert vector_stats()["vector_rounds"] == 3

        from repro.core.engine.instrumentation import MessageCountObserver

        ex.attach(MessageCountObserver())
        ex.run(2)
        stats = vector_stats()
        assert stats["vector_rounds"] == 3
        assert stats["observed_rounds"] == 2


class TestStateSync:
    def test_states_setter_repacks(self):
        g = bidirectional_ring(4)
        ex = VectorExecution(GossipAlgorithm(max), g, inputs=[1, 2, 3, 4])
        ex.run(1)
        ex.states = [frozenset([9])] * 4
        assert ex.vector_active
        assert ex.round_number == 1  # new states keep the round
        ex.run(1)
        assert ex.outputs() == [9] * 4
        assert ex.round_number == 2

    def test_states_setter_demotes_on_unpackable(self):
        g = bidirectional_ring(4)
        ex = VectorExecution(GossipAlgorithm(max), g, inputs=[1, 2, 3, 4])
        ex.run(2)
        ex.states = [object()] * 4  # not iterable sets: leaves the kernel
        assert not ex.vector_active
        assert ex.vector_fallback_reason == "pack-failed"
        assert ex.round_number == 2

    def test_restore_of_unpackable_states_demotes(self):
        # 1, 1.0 and True are equal but differently spelled; one packed
        # column per value cannot give them back, so assigning them takes
        # the object path and later rounds follow the object run.
        g = bidirectional_ring(4)
        inputs = [1, 1.0, True, 2]
        states = Execution(GossipAlgorithm(), g, inputs=inputs).run(1).states
        vec = VectorExecution(GossipAlgorithm(), g, inputs=[1, 2, 3, 4]).run(1)
        assert vec.vector_active
        vec.states = states
        assert not vec.vector_active
        assert vec.vector_fallback_reason == "pack-failed"
        assert vec.round_number == 1
        vec.run(2)
        obj = Execution(GossipAlgorithm(), g, inputs=inputs).run(3)
        assert vec.round_number == 3
        assert [canonical_repr(s) for s in vec.states] == [
            canonical_repr(s) for s in obj.states
        ]

    def test_round_number_tracks_vector_rounds(self):
        g = bidirectional_ring(5)
        ex = VectorExecution(GossipAlgorithm(max), g, inputs=list(range(5)))
        assert ex.round_number == 0
        ex.step()
        ex.step()
        assert ex.round_number == 2


class TestErrorParity:
    def test_zero_outdegree_raises_like_object_engine(self):
        # Vertex 2 sends to nobody (no self-loop): Push-Sum's sending
        # function divides by outdegree on both paths.
        g = DiGraph(
            3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)], ensure_self_loops=False
        )
        bad = DiGraph(3, [(0, 1), (1, 0), (1, 2)], ensure_self_loops=False)
        inputs = [1.0, 2.0, 3.0]
        direct = Execution(PushSumAlgorithm(), bad, inputs=inputs, check_model=False)
        vec = VectorExecution(PushSumAlgorithm(), bad, inputs=inputs, check_model=False)
        assert vec.vector_active
        with pytest.raises(ZeroDivisionError):
            direct.step()
        with pytest.raises(ZeroDivisionError):
            vec.step()

    def test_model_checks_still_enforced(self):
        from repro.core.models import CommunicationModel

        class SymGossip(GossipAlgorithm):
            model = CommunicationModel.SYMMETRIC

        asym = directed_ring(5)
        ex = VectorExecution(SymGossip(max), asym, inputs=list(range(5)))
        assert ex.vector_active
        with pytest.raises(ValueError, match="not symmetric"):
            ex.step()


class TestEqualButDifferentlySpelled:
    """``1``, ``1.0`` and ``True`` are one set element to Python but three
    spellings to the object engine, whose unions keep whichever arrived
    first; one packed column per value cannot reproduce that."""

    INPUTS = [1, 1.0, True, 2]

    def test_gossip_falls_back_and_traces_like_the_object_run(self):
        g = bidirectional_ring(4)
        obj = Execution(GossipAlgorithm(), g, inputs=self.INPUTS)
        vec = VectorExecution(GossipAlgorithm(), g, inputs=self.INPUTS)
        assert not vec.vector_active
        assert vec.vector_fallback_reason == "pack-failed"
        t_obj = trace_execution(obj, rounds=3)
        t_vec = trace_execution(vec, rounds=3)
        assert t_vec.deterministic_rounds() == t_obj.deterministic_rounds()
        assert [canonical_repr(s) for s in vec.states] == [
            canonical_repr(s) for s in obj.states
        ]

    def test_frequency_kernel_falls_back(self):
        g = bidirectional_ring(4)
        make = lambda: PushSumFrequencyAlgorithm(mode="frequencies")  # noqa: E731
        obj = Execution(make(), g, inputs=self.INPUTS).run(3)
        vec = VectorExecution(make(), g, inputs=self.INPUTS)
        assert vec.vector_fallback_reason == "pack-failed"
        vec.run(3)
        assert canonical_repr(vec.outputs()) == canonical_repr(obj.outputs())

    def test_signed_zero_is_refused(self):
        ex = VectorExecution(
            GossipAlgorithm(), bidirectional_ring(3), inputs=[0.0, -0.0, 1]
        )
        assert ex.vector_fallback_reason == "pack-failed"

    def test_gossip_grid_activates_on_every_row(self, monkeypatch):
        # The check must not misfire on ordinary inputs: if it did, the
        # vector leg of the grid would silently run the object engine.
        # A grid run makes one run per distinct network, input vector
        # and probe (28 for the 48 rows); unit by unit, every row runs.
        from repro.scenarios import compute_grid_row, grid_units, load_scenario, run_scenario

        for flag in ("REPRO_QUOTIENT", "REPRO_STORE"):
            monkeypatch.delenv(flag, raising=False)
        monkeypatch.setenv("REPRO_VECTOR", "1")
        root = os.path.join(os.path.dirname(__file__), "..", "..", "configs")
        scenario = load_scenario(os.path.join(root, "gossip_grid.json"))
        run_scenario(scenario)
        stats = vector_stats()
        assert (stats["activations"], stats["fallbacks"]) == (28, 0)
        clear_vector_stats()
        for unit in grid_units(scenario):
            compute_grid_row(scenario, *unit)
        stats = vector_stats()
        assert (stats["activations"], stats["fallbacks"]) == (48, 0)


class TestOneStatePerClass:
    """The gossip kernel unpacks one frozenset per distinct packed row and
    hands it to every agent holding that row."""

    def test_zero_width_universe(self):
        # frozenset() is a reachable initial state; a zero-byte row key
        # has no void view, so this is its own branch.
        g = bidirectional_ring(5)
        states = [frozenset()] * 5
        obj = Execution(GossipAlgorithm(len), g, initial_states=states).run(1)
        vec = VectorExecution(GossipAlgorithm(len), g, initial_states=states).run(1)
        assert vec.vector_active and vec.kernel.universe == []
        assert vec.states == obj.states
        assert vec.unanimous_output() == obj.unanimous_output() == 0

    def test_single_agent(self):
        g = DiGraph(1, [(0, 0)])
        vec = VectorExecution(GossipAlgorithm(), g, inputs=[5]).run(1)
        assert vec.unanimous_output() == frozenset([5])
        assert vec.states == [frozenset([5])]

    def test_universe_wider_than_a_byte(self):
        # 20 values pack into three bytes per row.
        n = 20
        g = directed_ring(n)
        obj = Execution(GossipAlgorithm(len), g, inputs=list(range(n)))
        vec = VectorExecution(GossipAlgorithm(len), g, inputs=list(range(n)))
        for _ in range(n):
            obj.step()
            vec.step()
            assert vec.unanimous_output() == obj.unanimous_output()
            assert vec.states == obj.states
        assert vec.unanimous_output() == n
        assert len({id(s) for s in vec.states}) == 1

    def test_detector_builds_one_set_per_class(self, monkeypatch):
        n = 64
        ex = VectorExecution(
            GossipAlgorithm(max), bidirectional_ring(n), inputs=[1] + [0] * (n - 1)
        )
        reads = []  # (state objects built, distinct rows in the packed vector)
        original = GossipKernel.unpack

        def counting(kernel, packed):
            states = original(kernel, packed)
            reads.append((len({id(s) for s in states}), len({row.tobytes() for row in packed})))
            return states

        monkeypatch.setattr(GossipKernel, "unpack", counting)
        report = run_until_stable(ex, max_rounds=2 * n, patience=2)
        assert report.converged and report.value == 1
        # One read per round; the report's outputs() reuses the last.
        assert len(reads) == report.rounds_run
        assert all(built == classes for built, classes in reads)
        assert max(built for built, _ in reads) == 2
