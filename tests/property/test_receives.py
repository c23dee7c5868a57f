"""Inbox declarations: a set or multiset reader ignores what it claims to.

:attr:`repro.core.agent.Algorithm.receives` lets an algorithm declare
that its transition reads the inbox as a ``"set"`` (order and repeats
are invisible) or a ``"multiset"`` (order is invisible).  The engine then
stops scrambling that algorithm's inboxes, so every declaration is a
proof obligation.  This module discharges it on reachable states: each
declared class in :mod:`repro.algorithms` has a factory below, and for
hypothesis-drawn networks — static, dynamic where the model allows, and
the finite-state ``max_view_depth`` variant of the view exchanges — every
``(state, inbox)`` pair a run reaches must give the same transition under
permutations of the inbox (and, for ``"set"``, under inserted
duplicates), by ``==`` and by :func:`~repro.core.metrics.canonical_repr`.

Two deliberately mis-declared algorithms show that the checker can fail.
"""

import importlib
import inspect
import pkgutil
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.algorithms
from repro.algorithms.frequency_static import (
    StaticFunctionAlgorithm,
    _OutdegreeFunction,
    _PortFunction,
    _SymmetricFunction,
)
from repro.algorithms.gossip import GossipAlgorithm
from repro.algorithms.history_tree import HistoryTreeAlgorithm
from repro.algorithms.minimum_base_alg import (
    OutdegreeViewAlgorithm,
    PortViewAlgorithm,
    SymmetricViewAlgorithm,
)
from repro.algorithms.onebit import OneBitCensusAlgorithm, OneBitFloodingAlgorithm
from repro.core.agent import Algorithm, BroadcastAlgorithm, receives_of
from repro.core.execution import Execution
from repro.core.metrics import canonical_repr
from repro.core.models import CommunicationModel as CM
from repro.dynamics.dynamic_graph import PeriodicDynamicGraph
from repro.graphs.builders import (
    complete_graph,
    random_strongly_connected,
    random_symmetric_connected,
)
from repro.graphs.views import ViewBuilder

ROUNDS = 4
PERMUTATIONS = 3
CLIP = 2  # the smallest max_view_depth: clipping starts at round 3


def library_algorithms():
    """Every concrete or abstract ``Algorithm`` subclass defined in
    :mod:`repro.algorithms`, private ones included."""
    found = set()
    for info in pkgutil.iter_modules(repro.algorithms.__path__):
        module = importlib.import_module(f"repro.algorithms.{info.name}")
        for _name, obj in inspect.getmembers(module, inspect.isclass):
            if issubclass(obj, Algorithm) and obj.__module__ == module.__name__:
                found.add(obj)
    return sorted(found, key=lambda cls: cls.__qualname__)


def declared(cls):
    return receives_of(cls) in ("set", "multiset")


# --------------------------------------------------------------------- #
# the factory table: one entry per declared class
# --------------------------------------------------------------------- #

#: ``make(builder, max_view_depth)`` builds the algorithm; ``topology`` is
#: ``"directed"`` (static or periodic digraphs), ``"symmetric"`` (static or
#: periodic bidirectional graphs) or ``"static"`` (the port model: static
#: digraphs only); ``values`` is the input alphabet; ``clips`` marks the
#: view exchanges with a finite-state variant.
FACTORIES = {
    GossipAlgorithm: dict(
        make=lambda b, d: GossipAlgorithm(), topology="directed", values=3, clips=False
    ),
    OneBitFloodingAlgorithm: dict(
        make=lambda b, d: OneBitFloodingAlgorithm(),
        topology="directed", values=2, clips=False,
    ),
    OneBitCensusAlgorithm: dict(
        make=lambda b, d: OneBitCensusAlgorithm(),
        topology="directed", values=2, clips=False,
    ),
    OutdegreeViewAlgorithm: dict(
        make=lambda b, d: OutdegreeViewAlgorithm(b, d),
        topology="directed", values=2, clips=True,
    ),
    SymmetricViewAlgorithm: dict(
        make=lambda b, d: SymmetricViewAlgorithm(b, d),
        topology="symmetric", values=2, clips=True,
    ),
    PortViewAlgorithm: dict(
        make=lambda b, d: PortViewAlgorithm(b, d), topology="static", values=2, clips=True
    ),
    HistoryTreeAlgorithm: dict(
        make=lambda b, d: HistoryTreeAlgorithm(builder=b),
        topology="symmetric", values=2, clips=False,
    ),
    _OutdegreeFunction: dict(
        make=lambda b, d: StaticFunctionAlgorithm(
            max, CM.OUTDEGREE_AWARE, builder=b, max_view_depth=d
        ),
        topology="directed", values=3, clips=True,
    ),
    _SymmetricFunction: dict(
        make=lambda b, d: StaticFunctionAlgorithm(
            max, CM.SYMMETRIC, builder=b, max_view_depth=d
        ),
        topology="symmetric", values=3, clips=True,
    ),
    _PortFunction: dict(
        make=lambda b, d: StaticFunctionAlgorithm(
            max, CM.OUTPUT_PORT_AWARE, builder=b, max_view_depth=d
        ),
        topology="static", values=3, clips=True,
    ),
}


def cases():
    out = []
    for cls, spec in FACTORIES.items():
        out.append(pytest.param(cls, "static", id=f"{cls.__name__}-static"))
        if spec["topology"] != "static":
            out.append(pytest.param(cls, "dynamic", id=f"{cls.__name__}-dynamic"))
        if spec["clips"]:
            out.append(pytest.param(cls, "clipped", id=f"{cls.__name__}-clipped"))
    return out


def network_for(topology, variant, n, seed):
    build = random_symmetric_connected if topology == "symmetric" else random_strongly_connected
    if variant == "dynamic":
        return PeriodicDynamicGraph([build(n, seed=seed + k) for k in range(3)])
    return build(n, seed=seed)


# --------------------------------------------------------------------- #
# the checker
# --------------------------------------------------------------------- #

class _InboxRecorder:
    def __init__(self):
        self.inboxes = None

    def on_round(self, record):
        self.inboxes = [tuple(inbox) for inbox in record.inboxes]


def rearranged(inbox, rng, duplicate):
    """A random permutation of ``inbox``; with ``duplicate``, some
    entries repeated first."""
    out = list(inbox)
    if duplicate:
        out += [rng.choice(inbox) for _ in range(rng.randint(1, 3))]
    rng.shuffle(out)
    return tuple(out)


def check_declaration(algorithm, network, inputs, rounds=ROUNDS, seed=0):
    """Run ``algorithm`` and re-apply its transition, at every reachable
    ``(state, inbox)`` pair, to rearranged inboxes its declaration says
    it cannot tell apart.  Raises ``AssertionError`` on the first
    difference."""
    receives = receives_of(type(algorithm))
    assert receives in ("set", "multiset"), f"{type(algorithm).__name__} declares nothing"
    rng = random.Random(seed)
    recorder = _InboxRecorder()
    execution = Execution(algorithm, network, inputs=inputs).attach(recorder)
    for _ in range(rounds):
        before = list(execution.states)
        execution.step()
        for j, inbox in enumerate(recorder.inboxes):
            expected = algorithm.transition(before[j], inbox)
            assert expected == execution.states[j]
            variants = [tuple(reversed(inbox))]
            variants += [rearranged(inbox, rng, False) for _ in range(PERMUTATIONS)]
            if receives == "set":
                variants += [rearranged(inbox, rng, True) for _ in range(PERMUTATIONS)]
            for variant in variants:
                got = algorithm.transition(before[j], variant)
                where = (
                    f"{type(algorithm).__name__} declares {receives!r} but agent {j} "
                    f"at round {execution.round_number} reads {inbox!r} and "
                    f"{variant!r} differently"
                )
                assert got == expected, where
                assert canonical_repr(got) == canonical_repr(expected), where


# --------------------------------------------------------------------- #
# the obligations
# --------------------------------------------------------------------- #

class TestDeclarationsHold:
    @pytest.mark.parametrize("cls,variant", cases())
    @settings(max_examples=12, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=6),
        graph_seed=st.integers(min_value=0, max_value=10_000),
        value_seed=st.integers(min_value=0, max_value=10_000),
        permutation_seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_transition_ignores_inbox_order(
        self, cls, variant, n, graph_seed, value_seed, permutation_seed
    ):
        spec = FACTORIES[cls]
        depth = CLIP if variant == "clipped" else None
        algorithm = spec["make"](ViewBuilder(), depth)
        assert type(algorithm) is cls
        values = random.Random(value_seed)
        inputs = [values.randrange(spec["values"]) for _ in range(n)]
        network = network_for(spec["topology"], variant, n, graph_seed)
        check_declaration(algorithm, network, inputs, seed=permutation_seed)


class TestDeclarationsAreComplete:
    def test_every_library_algorithm_spells_a_known_value(self):
        for cls in library_algorithms():
            assert cls.receives in ("set", "multiset", "sequence"), cls
            assert receives_of(cls) in ("set", "multiset", "sequence"), cls

    def test_every_declared_library_class_has_a_factory(self):
        missing = [
            cls.__qualname__
            for cls in library_algorithms()
            if declared(cls) and cls not in FACTORIES
        ]
        assert missing == []

    def test_every_factory_names_a_declared_class(self):
        assert all(declared(cls) for cls in FACTORIES)

    def test_float_reducers_stay_sequences(self):
        # Their bits depend on summation order.
        undeclared = {cls.__name__ for cls in library_algorithms() if not declared(cls)}
        assert undeclared == {
            "ConstantWeightAveraging",
            "ConstantWeightFrequency",
            "MetropolisAlgorithm",
            "PushSumAlgorithm",
            "PushSumFrequencyAlgorithm",
            "VectorPushSumAlgorithm",
        }


# --------------------------------------------------------------------- #
# the checker fails on false declarations
# --------------------------------------------------------------------- #

class FirstArrival(BroadcastAlgorithm):
    """Claims a multiset but keeps whichever message arrived first."""

    receives = "multiset"

    def initial_state(self, input_value):
        return input_value

    def message(self, state):
        return state

    def transition(self, state, received):
        return received[0]

    def output(self, state):
        return state


class InboxSize(BroadcastAlgorithm):
    """Claims a set but counts its messages."""

    receives = "set"

    def initial_state(self, input_value):
        return (input_value, 0)

    def message(self, state):
        return state[0]

    def transition(self, state, received):
        return (state[0], len(received))

    def output(self, state):
        return state[1]


class TestCheckerCatchesFalseDeclarations:
    def test_order_dependent_multiset_claim_fails(self):
        with pytest.raises(AssertionError, match="declares 'multiset'"):
            check_declaration(FirstArrival(), complete_graph(4), [0, 1, 2, 3])

    def test_multiplicity_dependent_set_claim_fails(self):
        # Every inbox holds distinct values, so only inserted duplicates
        # can expose the count.
        with pytest.raises(AssertionError, match="declares 'set'"):
            check_declaration(InboxSize(), complete_graph(4), [0, 1, 2, 3])

    def test_inbox_size_passes_as_a_multiset(self):
        # The same counter is a correct multiset reader: the checker is
        # not failing it for something else.
        class InboxCount(InboxSize):
            receives = "multiset"
            transition = InboxSize.transition

        check_declaration(InboxCount(), complete_graph(4), [0, 1, 2, 3])


class TestBinding:
    def test_subclass_overriding_transition_is_undeclared(self):
        class Recording(GossipAlgorithm):
            def transition(self, state, received):
                return state

        assert Recording.receives == "set"  # inherited attribute...
        assert receives_of(Recording) == "sequence"  # ...binds nothing

    def test_subclass_keeping_transition_inherits(self):
        class Labelled(GossipAlgorithm):
            def output(self, state):
                return sorted(state)

        assert receives_of(Labelled) == "set"

    def test_declaration_binds_only_where_transition_is_defined(self):
        class Undeclared(BroadcastAlgorithm):
            def transition(self, state, received):
                return received[0]

        class LateClaim(Undeclared):
            receives = "multiset"

        assert receives_of(BroadcastAlgorithm) == "sequence"
        assert receives_of(LateClaim) == "sequence"

    def test_a_misspelt_declaration_is_scrambled(self):
        class Misspelt(FirstArrival):
            receives = "multi-set"
            transition = FirstArrival.transition

        class Undeclared(FirstArrival):
            receives = "sequence"
            transition = FirstArrival.transition

        def run(cls):
            ex = Execution(cls(), complete_graph(5), inputs=list(range(5)), scramble_seed=3)
            return ex.run(2).outputs()

        assert receives_of(Misspelt) == "multi-set"
        assert run(Misspelt) == run(Undeclared) != run(FirstArrival)
