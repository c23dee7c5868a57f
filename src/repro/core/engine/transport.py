"""Transports: apply a delivery plan for one communication-model flavor.

The old executor asked ``isinstance`` questions about the algorithm for
every vertex of every round.  A transport answers them exactly once —
:func:`transport_for` dispatches on the algorithm flavor when the
execution is created — and then runs the per-round loops with the
dispatch already resolved:

* :meth:`Transport.outgoing` applies the sending function to every
  state, handing it only what its model allows (nothing / the current
  outdegree / the per-port fan-out);
* :meth:`Transport.deliver` routes those payloads along the plan's
  flat ``sources`` lists into per-receiver inboxes.

Delivery-order scrambling stays outside the transport: the stepper owns
one ``random.Random`` stream per execution and, for algorithms whose
inbox order may matter (:attr:`~repro.core.agent.Algorithm.receives`),
shuffles the inboxes in ``(round, receiver)`` order, so distinct shuffle
sites consume disjoint segments of one stream and can never alias
(unlike the old per-site ``seed*1_000_003 + t*9973 + j`` reseeding).
"""

from __future__ import annotations

import abc
from typing import Any, List, Sequence

from repro.core.agent import (
    Algorithm,
    BroadcastAlgorithm,
    OneBitAlgorithm,
    OutdegreeAlgorithm,
    OutputPortAlgorithm,
)
from repro.core.engine.plan import DeliveryPlan


def validate_bit(algorithm: Algorithm, value: Any) -> int:
    """Normalize a one-bit payload to ``int``; reject anything else.

    Booleans are accepted (they are how predicates naturally read) and
    normalized so that delivered multisets — and hence state trajectories
    and traces — never depend on whether an algorithm said ``True`` or
    ``1``.  Every other payload (wider ints, floats, strings …) raises:
    the bit-width restriction is the model.
    """
    if value is True:
        return 1
    if value is False:
        return 0
    if type(value) is int and value in (0, 1):
        return value
    raise ValueError(
        f"{algorithm.name()} emitted {value!r}; the one-bit broadcast "
        "model only carries 0 or 1"
    )


class Transport(abc.ABC):
    """Flavor-resolved sending + delivery over a compiled plan."""

    #: Whether every out-edge of a vertex carries the same payload.
    isotropic: bool = True

    @abc.abstractmethod
    def outgoing(
        self, algorithm: Algorithm, states: Sequence[Any], plan: DeliveryPlan
    ) -> List[Any]:
        """Per-vertex payloads for this round (port model: lists by port)."""

    def deliver(self, plan: DeliveryPlan, outgoing: List[Any]) -> List[List[Any]]:
        """Route payloads into per-receiver inboxes, in in-edge order."""
        return [[outgoing[s] for s in srcs] for srcs in plan.sources]


class BroadcastTransport(Transport):
    """Simple broadcast (and symmetric communications): ``σ : Q -> M``."""

    def outgoing(self, algorithm, states, plan):
        message = algorithm.message
        return [message(s) for s in states]


class OutdegreeTransport(Transport):
    """Outdegree awareness: ``σ : Q × ℕ -> M``, isotropic."""

    def outgoing(self, algorithm, states, plan):
        message = algorithm.message
        return [message(s, d) for s, d in zip(states, plan.outdegrees)]


class OneBitTransport(Transport):
    """One-bit broadcast: ``σ : Q × ℕ -> {0, 1}``, isotropic, validated."""

    def outgoing(self, algorithm, states, plan):
        bit = algorithm.bit
        return [
            validate_bit(algorithm, bit(s, d))
            for s, d in zip(states, plan.outdegrees)
        ]


class OutputPortTransport(Transport):
    """Output port awareness: ``σ : Q × ℕ -> ⋃ M^k``, one payload per port."""

    isotropic = False

    def outgoing(self, algorithm, states, plan):
        out: List[List[Any]] = []
        for state, d in zip(states, plan.outdegrees):
            msgs = list(algorithm.messages(state, d))
            if len(msgs) != d:
                raise ValueError(
                    f"{algorithm.name()} produced {len(msgs)} messages for outdegree {d}"
                )
            out.append(msgs)
        return out

    def deliver(self, plan, outgoing):
        return [
            [outgoing[s][p] for s, p in zip(srcs, ports)]
            for srcs, ports in zip(plan.sources, plan.source_ports)
        ]


def transport_for(algorithm: Algorithm) -> Transport:
    """Resolve the flavor dispatch once, at execution-construction time."""
    if isinstance(algorithm, OutputPortAlgorithm):
        return OutputPortTransport()
    if isinstance(algorithm, OneBitAlgorithm):
        return OneBitTransport()
    if isinstance(algorithm, OutdegreeAlgorithm):
        return OutdegreeTransport()
    if isinstance(algorithm, BroadcastAlgorithm):
        return BroadcastTransport()
    raise TypeError(f"unknown algorithm flavor: {type(algorithm).__name__}")
