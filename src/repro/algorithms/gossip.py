"""Set flooding — "the simple gossip algorithm" (Section 1).

Under simple broadcast, each agent repeatedly casts out every input value
it has heard of; the known sets grow monotonically and, once the dynamic
diameter has elapsed, every agent holds exactly the support of the input
vector.  Composing with any function of the set computes every set-based
function — the positive half of the broadcast column of Tables 1 and 2.

The algorithm is finite-state (states are subsets of the finite value
domain actually present), tolerates asynchronous starts (late agents just
join the flood), and works unchanged on static and dynamic networks.  It
is *not* self-stabilizing: a corrupted state containing a value absent
from the input can never be flushed — tests exhibit exactly this.
"""

from __future__ import annotations

from typing import Any, Callable, FrozenSet, Optional, Tuple

from repro.core.agent import BroadcastAlgorithm


class GossipAlgorithm(BroadcastAlgorithm):
    """Flood input values; output a function of the known set.

    Parameters
    ----------
    on_set:
        Function from the known ``frozenset`` of values to the output; the
        default outputs the set itself (so the execution computes the
        support, from which any set-based function follows).
    """

    #: A union of the received sets: neither order nor repeats matter.
    receives = "set"

    def __init__(self, on_set: Optional[Callable[[FrozenSet[Any]], Any]] = None):
        self._on_set = on_set if on_set is not None else (lambda s: s)

    def initial_state(self, input_value: Any) -> FrozenSet[Any]:
        return frozenset([input_value])

    def message(self, state: FrozenSet[Any]) -> FrozenSet[Any]:
        return state

    def transition(self, state: FrozenSet[Any], received: Tuple[Any, ...]) -> FrozenSet[Any]:
        out = state
        for msg in received:
            out = out | msg
        return out

    def output(self, state: FrozenSet[Any]) -> Any:
        return self._on_set(state)
