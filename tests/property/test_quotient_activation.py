"""Quotient activation decides on class lists and builds one quotient.

:meth:`~repro.core.engine.quotient.QuotientExecution._activate` pushes
the initial states down onto the memoized equitable partition (refined by
the states when they are not constant on its classes), takes the
fallbacks it can from that class list, and only then quotients.  These
tests pin it against the two-pass activation it replaced, kept here as
the reference oracle: the value-free minimum base, a pushdown onto it,
and on failure the minimum base of the graph valued by the states.
Every decision, fallback reason, class list, base graph and counter
delta must agree, and the work must shrink: one quotient for a run that
activates, none for a run that falls back.
"""

import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import GossipAlgorithm
from repro.core.agent import BroadcastAlgorithm, OutdegreeAlgorithm
from repro.core.engine.quotient import QUOTIENT_RATIO, QuotientExecution, quotient_stats
from repro.core.execution import Execution
from repro.core.memo import clear_memos
from repro.core.metrics import canonical_repr
from repro.fibrations.lifting import pushdown_valuation
from repro.fibrations.minimum_base import minimum_base
from repro.graphs.builders import (
    bidirectional_ring,
    complete_graph,
    directed_ring,
    hypercube,
    random_strongly_connected,
    star_graph,
)
from repro.graphs.digraph import DiGraph
from repro.graphs.properties import is_symmetric

# The package re-exports the function under the module's name.
minimum_base_module = importlib.import_module("repro.fibrations.minimum_base")


class SetOutdegree(OutdegreeAlgorithm):
    """Order-invariant OUTDEGREE_AWARE flooding of (values, outdegrees)."""

    def initial_state(self, input_value):
        return (frozenset([input_value]), frozenset())

    def message(self, state, outdegree):
        return (state[0], state[1] | {outdegree})

    def transition(self, state, received):
        values, degrees = state
        for vals, degs in received:
            values |= vals
            degrees |= degs
        return (values, degrees)

    def output(self, state):
        return state


def reference_activation(algorithm, graph, states, ratio, check_model):
    """The two-pass activation: ``(fallback reason, MinimumBase)``.

    Value-free minimum base first; when the states do not push down onto
    it, the minimum base of the graph valued by (value, canonical repr of
    the state), rebuilt from edge specs.  No memo, no class-list shortcut.
    """
    model = algorithm.model
    mb = minimum_base(graph)
    try:
        pushdown_valuation(mb.fibration, states)
    except ValueError:
        keys = [canonical_repr(s) for s in states]
        joined = keys if graph.values is None else [(v, k) for v, k in zip(graph.values, keys)]
        mb = minimum_base(DiGraph(graph.n, graph.edge_specs(), values=joined))
        try:
            pushdown_valuation(mb.fibration, states)
        except ValueError:
            return "inputs-not-fibrewise-constant", None
    if mb.base.n >= graph.n:
        return "trivial-base", None
    if mb.base.n / graph.n > ratio:
        return "base-too-large", None
    if model.sees_outdegree and any(
        graph.outdegree(v) != mb.base.outdegree(mb.classes[v]) for v in graph.vertices()
    ):
        return "outdegree-not-preserved", None
    if check_model:
        if not graph.all_have_self_loops():
            return "model-violation", None
        if model.requires_symmetric_network and not is_symmetric(graph):
            return "model-violation", None
    return None, mb


def build_graph(family, size, seed):
    if family == "complete":
        return complete_graph(size)
    if family == "ring":
        return bidirectional_ring(size)
    if family == "directed-ring":
        return directed_ring(size)
    if family == "star":
        return star_graph(size)
    if family == "hypercube":
        return hypercube(1 + size % 4)
    return random_strongly_connected(size, seed=seed)


def build_inputs(kind, n, seed):
    if kind == "constant":
        return [seed % 5] * n
    if kind == "one-hot":
        return [1 if v == seed % n else 0 for v in range(n)]
    if kind == "periodic":
        return [v % (2 + seed % 3) for v in range(n)]
    if kind == "equal-but-unlike":
        # Equal payloads whose canonical reprs differ: constant for the
        # value-free pushdown, two classes once refined by reprs.
        return [Fraction(1) if v % 2 else 1 for v in range(n)]
    rng = random.Random(seed)
    return [rng.randint(0, 1) for _ in range(n)]


activation_params = st.fixed_dictionaries({
    "family": st.sampled_from(
        ["complete", "ring", "directed-ring", "star", "hypercube", "random"]
    ),
    "size": st.integers(min_value=2, max_value=12),
    "inputs": st.sampled_from(
        ["constant", "one-hot", "periodic", "seeded-bits", "equal-but-unlike"]
    ),
    "seed": st.integers(min_value=0, max_value=10_000),
    "valued": st.booleans(),
    "model": st.sampled_from(["broadcast", "outdegree"]),
    "self_loops": st.booleans(),
    "check_model": st.booleans(),
})


class TestAgainstTwoPassOracle:
    @settings(max_examples=150, deadline=None)
    @given(activation_params)
    def test_same_decision_classes_base_and_counters(self, p):
        clear_memos()
        graph = build_graph(p["family"], p["size"], p["seed"])
        if not p["self_loops"]:
            graph = DiGraph(graph.n, [s for s in graph.edge_specs() if s[0] != s[1]])
        if p["valued"]:
            graph = graph.with_values([(v * 7 + p["seed"]) % 3 for v in graph.vertices()])
        inputs = build_inputs(p["inputs"], graph.n, p["seed"])

        def algorithm():
            return GossipAlgorithm(max) if p["model"] == "broadcast" else SetOutdegree()

        states = Execution(algorithm(), graph, inputs=inputs, check_model=False).states
        reason, mb = reference_activation(
            algorithm(), graph, states, QUOTIENT_RATIO, p["check_model"]
        )

        before = quotient_stats()
        execution = QuotientExecution(
            algorithm(), graph, inputs=inputs, check_model=p["check_model"]
        )
        after = quotient_stats()

        assert execution.quotient_active == (reason is None)
        assert execution.quotient_fallback_reason == reason
        delta_reasons = {
            key: count - before["fallback_reasons"].get(key, 0)
            for key, count in after["fallback_reasons"].items()
            if count != before["fallback_reasons"].get(key, 0)
        }
        assert delta_reasons == ({} if reason is None else {reason: 1})
        assert after["activations"] - before["activations"] == (reason is None)
        assert after["fallbacks"] - before["fallbacks"] == (reason is not None)
        assert after["lifts"] == before["lifts"]
        if reason is None:
            assert execution.minimum_base.classes == mb.classes
            assert execution.base_n == mb.base.n
            assert execution.minimum_base.base == mb.base
        else:
            assert execution.minimum_base is None
            assert execution.base_n == graph.n


class OpaqueState:
    """Distinct instances are unequal, but all print alike."""

    def __repr__(self):
        return "OpaqueState()"


class OpaqueFlood(BroadcastAlgorithm):
    def initial_state(self, input_value):
        return input_value

    def message(self, state):
        return state

    def transition(self, state, received):
        return state

    def output(self, state):
        return 0


class TestCollidingReprs:
    def test_unequal_states_with_one_repr_fall_back(self):
        g = bidirectional_ring(6)
        inputs = [OpaqueState(), OpaqueState()] * 3
        execution = QuotientExecution(OpaqueFlood(), g, inputs=inputs)
        assert not execution.quotient_active
        assert execution.quotient_fallback_reason == "inputs-not-fibrewise-constant"
        execution.run(2)
        assert execution.states == inputs
        assert execution.round_number == 2


class TestWorkCounts:
    """One quotient per activation, none per fallback."""

    @pytest.fixture
    def quotients(self, monkeypatch):
        calls = []
        real = minimum_base_module.quotient_by_partition

        def counting(*args, **kwargs):
            calls.append(args[0].n)
            return real(*args, **kwargs)

        monkeypatch.setattr(minimum_base_module, "quotient_by_partition", counting)
        clear_memos()
        yield calls
        clear_memos()

    def test_one_hot_complete_graph_builds_one_quotient(self, quotients):
        g = complete_graph(64)
        execution = QuotientExecution(
            GossipAlgorithm(max), g, inputs=[1] + [0] * 63
        )
        assert execution.quotient_active and execution.base_n == 2
        assert quotients == [64]

    def test_trivial_base_builds_no_quotient(self, quotients):
        g = random_strongly_connected(64, seed=5)
        execution = QuotientExecution(
            GossipAlgorithm(max), g, inputs=[1] + [0] * 63
        )
        assert execution.quotient_fallback_reason == "trivial-base"
        assert quotients == []
