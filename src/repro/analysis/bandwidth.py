"""Bandwidth accounting: how big are the messages, really?

The paper repeatedly trades *what* is computable against *what it costs*:
Push-Sum uses a constant number of reals per known value; the
Boldi–Vigna views grow linearly (as DAGs) per round; Di Luna–Viglietta's
history trees use "an infinite number of states and an infinite
bandwidth in each of its executions".  This module measures message
sizes of actual executions so those statements become curves.

Sizes are in abstract *units*: every atomic payload (number, string,
boolean, ``None``) costs 1, containers cost the sum of their parts, and
hash-consed :class:`~repro.graphs.views.View` DAGs cost their number of
*distinct* nodes plus edges — the honest wire size under structure
sharing (each interned node transmitted once).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.core.agent import (
    BroadcastAlgorithm,
    OneBitAlgorithm,
    OutdegreeAlgorithm,
    OutputPortAlgorithm,
)
from repro.core.engine import EngineFlags, select_backend
from repro.core.execution import Execution
from repro.graphs.views import View


#: Exact types whose payloads are atomic by definition — the overwhelming
#: majority of real messages (Push-Sum reals, gossip scalars).  Subclasses
#: fall through to the structural walk, which prices them identically.
_ATOMIC_TYPES = frozenset({int, float, bool, str, bytes, type(None)})


def payload_units(message: Any) -> int:
    """Abstract size of one message."""
    if type(message) in _ATOMIC_TYPES:
        return 1
    seen_views: set = set()

    def measure(obj: Any) -> int:
        if isinstance(obj, View):
            return _view_units(obj, seen_views)
        if isinstance(obj, dict):
            return sum(measure(k) + measure(v) for k, v in obj.items())
        if isinstance(obj, (list, tuple, set, frozenset)):
            return sum(measure(x) for x in obj)
        return 1

    return measure(message)


def _view_units(view: View, seen: set) -> int:
    """Distinct nodes + edges reachable from ``view`` (shared across one
    message: a node referenced twice is shipped once)."""
    units = 0
    stack = [view]
    while stack:
        node = stack.pop()
        if node.uid in seen:
            continue
        seen.add(node.uid)
        units += 1 + len(node.children)  # the node + its child references
        for (_color, child) in node.children:
            stack.append(child)
    return units


def max_message_units(execution: Execution) -> int:
    """The largest message any agent would send from the current states."""
    algorithm = execution.algorithm
    g = execution.network.graph_at(max(execution.round_number, 1))
    worst = 0
    for v in range(execution.n):
        state = execution.states[v]
        if isinstance(algorithm, OutputPortAlgorithm):
            msgs = algorithm.messages(state, g.outdegree(v))
            worst = max(worst, max(payload_units(m) for m in msgs))
        elif isinstance(algorithm, OneBitAlgorithm):
            worst = max(worst, 1)  # one bit per round, by the model
        elif isinstance(algorithm, OutdegreeAlgorithm):
            worst = max(worst, payload_units(algorithm.message(state, g.outdegree(v))))
        elif isinstance(algorithm, BroadcastAlgorithm):
            worst = max(worst, payload_units(algorithm.message(state)))
    return worst


class _WouldSendObserver:
    """Round hook computing, after each round, the largest message any
    agent *would* send from its new state (legacy ``bandwidth_curve``
    semantics: post-round states, the just-delivered round's outdegrees)."""

    def __init__(self) -> None:
        self.curve: List[int] = []

    def on_round(self, record) -> None:
        algorithm = record.algorithm
        degrees = record.plan.outdegrees
        worst = 0
        if isinstance(algorithm, OutputPortAlgorithm):
            for state, d in zip(record.states, degrees):
                msgs = algorithm.messages(state, d)
                worst = max(worst, max(payload_units(m) for m in msgs))
        elif isinstance(algorithm, OneBitAlgorithm):
            worst = max(worst, 1)  # one bit per round, by the model
        elif isinstance(algorithm, OutdegreeAlgorithm):
            for state, d in zip(record.states, degrees):
                worst = max(worst, payload_units(algorithm.message(state, d)))
        elif isinstance(algorithm, BroadcastAlgorithm):
            for state in record.states:
                worst = max(worst, payload_units(algorithm.message(state)))
        self.curve.append(worst)


def bandwidth_curve(execution: Execution, rounds: int) -> List[int]:
    """Per-round worst-case message size while running ``execution``.

    Implemented as a round-level observer on the engine's
    instrumentation layer: the hook rides along the execution instead of
    re-deriving the topology after every step.
    """
    observer = _WouldSendObserver()
    execution.attach(observer)
    try:
        execution.run(rounds)
    finally:
        execution.detach(observer)
    return observer.curve


def traced_bytes_curve(execution: Execution, rounds: int) -> List[Tuple[int, int]]:
    """Per-round ``(bytes_delivered, bytes_peak)`` while running ``execution``.

    Rides the engine's :class:`~repro.core.engine.trace.Tracer`, whose
    byte accounting is :func:`payload_units` applied to every *delivered*
    message — the property suite pins this curve to the independent
    observer-side accounting of :func:`bandwidth_curve`/:class:`BandwidthObserver`,
    so the two code paths cannot drift apart silently.
    """
    from repro.core.engine.trace import Tracer

    tracer = Tracer(residuals=False)
    execution.attach(tracer)
    try:
        execution.run(rounds)
    finally:
        execution.detach(tracer)
    return [
        (e.fields["bytes_delivered"], e.fields["bytes_peak"])
        for e in tracer.round_events()
    ]


def bandwidth_sweep(specs, engine: EngineFlags = EngineFlags()) -> List[List[int]]:
    """Bandwidth curves for a grid of executions, in spec order.

    ``specs`` is a sequence of
    ``(algorithm_factory, network_factory, inputs, rounds)`` tuples —
    factories, so every run gets fresh algorithm state.

    Each execution runs on the backend
    :func:`~repro.core.engine.batch.select_backend` picks for
    ``engine``.  The curves are the same on every backend: worst-case
    message size is a per-round maximum over states, the fibres cover
    every base class, and an observed vector round hands the observer
    the object-level states.
    """
    backend = select_backend(engine)
    return [
        bandwidth_curve(
            backend(algorithm_factory(), network_factory(), inputs=list(inputs)),
            rounds,
        )
        for algorithm_factory, network_factory, inputs, rounds in specs
    ]
