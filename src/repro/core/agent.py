"""Algorithms as anonymous automata (Section 2.2).

An algorithm is a set of local states with a *sending function* and a
*transition function*.  All agents run the same algorithm (the network is
anonymous and deterministic); nothing in the interface can reference an
agent identity — the executor never passes one.

Subclass the variant matching your communication model:

* :class:`BroadcastAlgorithm` — ``message(state)``;
* :class:`OutdegreeAlgorithm` — ``message(state, outdegree)``;
* :class:`OutputPortAlgorithm` — ``messages(state, outdegree)`` returning
  one message per port;
* :class:`OneBitAlgorithm` — ``bit(state, outdegree)`` returning the one
  bit cast to every recipient (the transport rejects anything outside
  ``{0, 1}``).

``transition(state, received)`` receives the messages of one round as a
tuple; how it may read them is declared by :attr:`Algorithm.receives`.
``output(state)`` extracts the agent's current output variable ``x_i``.
"""

from __future__ import annotations

import abc
from typing import Any, Sequence, Tuple

from repro.core.models import CommunicationModel


class Algorithm(abc.ABC):
    """Common base: initialization, transition, and output extraction."""

    #: The communication model this algorithm is written for.
    model: CommunicationModel

    #: How ``transition`` reads its inbox (Hella et al.'s hierarchy):
    #: ``"set"`` (order and repeats cannot change the result),
    #: ``"multiset"`` (order cannot) or ``"sequence"`` (the result's bits
    #: may depend on order).  The model delivers a multiset (§2.2), so the
    #: engine scrambles a ``"sequence"`` reader's inbox every round and an
    #: order dependence shows in tests; a ``"set"`` or ``"multiset"``
    #: reader gets in-edge order and draws nothing from the scramble
    #: stream.  Such a declaration is a proof obligation, checked by
    #: permuting inboxes in the property suite and by the reference
    #: interpreter, which scrambles every algorithm.  It binds only on the
    #: class that defines ``transition`` (:func:`receives_of`); any other
    #: value scrambles.
    receives: str = "sequence"

    @abc.abstractmethod
    def initial_state(self, input_value: Any) -> Any:
        """``Q0`` as a function of the agent's private input."""

    @abc.abstractmethod
    def transition(self, state: Any, received: Tuple[Any, ...]) -> Any:
        """``δ(q, M)`` — the new state from the received message multiset."""

    @abc.abstractmethod
    def output(self, state: Any) -> Any:
        """The output variable ``x_i`` read off the local state."""

    def name(self) -> str:
        return type(self).__name__


def receives_of(cls: type) -> str:
    """The ``receives`` declaration that binds ``cls.transition``.

    Walks the MRO to the nearest class that defines ``transition`` and
    returns that class's own ``receives``, or ``"sequence"`` when it
    declares none: a subclass that overrides ``transition`` does not
    inherit its parent's declaration.
    """
    for klass in cls.__mro__:
        own = vars(klass)
        if "transition" in own:
            return own.get("receives", "sequence")
    return "sequence"


class BroadcastAlgorithm(Algorithm):
    """Sending function ``σ : Q -> M`` — simple broadcast (graph-invariant).

    Also the base class for the *symmetric communications* model, which
    uses broadcast sending functions on bidirectional networks; set
    ``model = CommunicationModel.SYMMETRIC`` in the subclass to have the
    executor enforce network symmetry.
    """

    model = CommunicationModel.SIMPLE_BROADCAST

    @abc.abstractmethod
    def message(self, state: Any) -> Any:
        """The unique message cast out this round."""


class OutdegreeAlgorithm(Algorithm):
    """Sending function ``σ : Q × ℕ -> M`` — outdegree awareness (isotropic)."""

    model = CommunicationModel.OUTDEGREE_AWARE

    @abc.abstractmethod
    def message(self, state: Any, outdegree: int) -> Any:
        """The message broadcast to all ``outdegree`` recipients."""


class OutputPortAlgorithm(Algorithm):
    """Sending function ``σ : Q × ℕ -> ⋃ M^k`` — output port awareness."""

    model = CommunicationModel.OUTPUT_PORT_AWARE

    @abc.abstractmethod
    def messages(self, state: Any, outdegree: int) -> Sequence[Any]:
        """One message per output port ``0 .. outdegree-1``."""


class OneBitAlgorithm(Algorithm):
    """Sending function ``σ : Q × ℕ -> {0, 1}`` — one-bit broadcast.

    The single bit is cast identically to every recipient (isotropic, like
    outdegree awareness) but the message alphabet is just ``{0, 1}``: the
    transport validates every emitted bit and raises on anything else, so
    an algorithm cannot smuggle wider payloads through the model.
    ``transition`` receives the in-edge bits as a tuple of ints, read as
    :attr:`Algorithm.receives` declares.
    """

    model = CommunicationModel.ONE_BIT_BROADCAST

    @abc.abstractmethod
    def bit(self, state: Any, outdegree: int) -> int:
        """The one bit (``0`` or ``1``) broadcast this round."""
