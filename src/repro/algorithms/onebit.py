"""The one-bit broadcast scenario pack (Blanc/Di Luna/Viglietta).

Two deliberately simple probes for the fifth communication model — one
bit per round, cast identically to every recipient:

* :class:`OneBitFloodingAlgorithm` — OR-flooding.  Each agent broadcasts
  the disjunction of every bit it has heard (starting from its input
  bit); states grow monotonically, so after at most the diameter every
  agent holds the OR of the input vector.  Succeeds on *every* strongly
  connected network: the positive probe of the scenario grid.
* :class:`OneBitCensusAlgorithm` — indegree census.  Each agent
  broadcasts its input bit every round and records, from the delivered
  multiset, ``(how many bits arrived, how many were 1)``.  On a complete
  graph with self-loops the indegree is ``n``, so the census *is* the
  exact count of ones — anonymous counting over one-bit channels.  On
  anything sparser the census is local and the probe deterministically
  fails: the negative probe, showing that one bit per round does not
  carry a global multiset through a bottleneck.

Both are finite-state and run unchanged on static and dynamic networks.
Each declares how it reads its inbox
(:attr:`~repro.core.agent.Algorithm.receives`).
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.core.agent import OneBitAlgorithm


class OneBitFloodingAlgorithm(OneBitAlgorithm):
    """OR-flooding: broadcast the known disjunction, absorb what arrives.

    State is the known bit; the output is that bit.  Computes the OR —
    and by relabeling, any predicate of the input support reachable
    through monotone one-bit flooding — within diameter-many rounds on
    any strongly connected network.
    """

    #: An OR of the received bits: neither order nor repeats matter.
    receives = "set"

    def initial_state(self, input_value: Any) -> int:
        return 1 if input_value else 0

    def bit(self, state: int, outdegree: int) -> int:
        return state

    def transition(self, state: int, received: Tuple[int, ...]) -> int:
        if state:
            return 1
        for b in received:
            if b:
                return 1
        return 0

    def output(self, state: int) -> int:
        return state


class OneBitCensusAlgorithm(OneBitAlgorithm):
    """Indegree census: broadcast the input bit, tally what arrives.

    State is ``(input_bit, total_received, ones_received)``; the output is
    ``(total_received, ones_received)`` — the multiset of in-neighbour
    input bits as a count pair.  Exact anonymous counting of the ones
    precisely when every agent hears everyone, i.e. on complete graphs
    with self-loops; elsewhere the tally is the local in-neighbourhood's
    and the scenario harness records the (expected) failure.
    """

    #: Counts the received bits: repeats matter, order does not.
    receives = "multiset"

    def initial_state(self, input_value: Any) -> Tuple[int, int, int]:
        return (1 if input_value else 0, 0, 0)

    def bit(self, state: Tuple[int, int, int], outdegree: int) -> int:
        return state[0]

    def transition(
        self, state: Tuple[int, int, int], received: Tuple[int, ...]
    ) -> Tuple[int, int, int]:
        ones = 0
        for b in received:
            if b:
                ones += 1
        return (state[0], len(received), ones)

    def output(self, state: Tuple[int, int, int]) -> Tuple[int, int]:
        return (state[1], state[2])
