"""Exact frequencies in *dynamic symmetric* networks via history classes.

This module reproduces (in spirit) the Di Luna–Viglietta result the paper
cites for Table 2's symmetric column: in anonymous dynamic networks with
bidirectional links and finite dynamic diameter, every frequency-based
function is computable *exactly*, with no knowledge of the network — at
the price of unbounded state and bandwidth (which the paper points out,
and which is equally true here).

The mechanism is the *history tree*: after ``t`` rounds, partition agents
into classes by their interaction history —

* at round 0, two agents are equivalent iff they hold the same input;
* at round ``t``, iff they were equivalent at ``t-1`` *and* received the
  same multiset of round-``t-1`` classes.

Because an agent's outgoing message can be its entire current class
description (a hash-consed DAG), every agent can maintain its own class
and, by transitivity of flooding, eventually learns every class that ever
existed.  Two facts then pin down the class cardinalities up to a global
factor:

* **refinement** — a class is the disjoint union of its child classes:
  ``|a| = Σ_{x : prev(x) = a} |x|``;
* **symmetry counting** — in a bidirectional round, the number of edges
  between classes ``a`` and ``b`` can be counted from either side:
  ``Σ_{x : prev(x)=a} |x| · recv_x[b] = Σ_{y : prev(y)=b} |y| · recv_y[a]``,
  where ``recv_x[b]`` is the (class-identical) number of messages each
  ``x``-member received from ``b``-members.

The resulting homogeneous integer system eventually has a one-dimensional
positive kernel; its level-0 coordinates are the input multiplicities, so
the *frequencies* are exact rationals.  Per the paper's discussion, the
algorithm is linear-time in spirit but uses unbounded state, is not
self-stabilizing, and does not tolerate asynchronous starts.

Like the view-based static algorithm, an agent only trusts history levels
``≤ t/2``: old enough that every class of those levels (and every child of
such a class) has had time to flood to everyone, so the equations above
are complete.  Until then the system is underdetermined or wrong and the
agent outputs ``None``.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

from repro.core.agent import BroadcastAlgorithm
from repro.core.models import CommunicationModel
from repro.core.network_class import Knowledge
from repro.graphs.views import View, ViewBuilder
from repro.linalg.exact import integer_kernel_vector

State = Tuple[Any, View]

_PREV = "prev"
_RECV = "recv"


class HistoryTreeAlgorithm(BroadcastAlgorithm):
    """History-class tracking and exact frequency recovery.

    Parameters
    ----------
    knowledge:
        ``NONE`` — output the exact :class:`FrequencyFunction`-like dict
        ``{value: Fraction}``;
        ``EXACT_N`` — output integer multiplicities (needs ``n``);
        ``LEADER`` — inputs are ``(value, is_leader)`` pairs; the leader
        classes anchor the scale and multiplicities are output.
    f:
        Optional function applied to the reconstructed vector (canonical
        ν-vector for ``NONE``, exact multiset otherwise).
    """

    model = CommunicationModel.SYMMETRIC
    #: ``ViewBuilder.node`` sorts the children: a class node records the
    #: multiset of received classes.
    receives = "multiset"

    def __init__(
        self,
        knowledge: Knowledge = Knowledge.NONE,
        n: Optional[int] = None,
        leader_count: int = 1,
        f=None,
        builder: Optional[ViewBuilder] = None,
    ):
        if knowledge is Knowledge.EXACT_N and n is None:
            raise ValueError("EXACT_N needs n")
        if knowledge is Knowledge.BOUND_N:
            # A bound adds nothing here: frequencies are already exact.
            knowledge = Knowledge.NONE
        self.knowledge = knowledge
        self.n = n
        self.leader_count = leader_count
        self.f = f
        self.builder = builder if builder is not None else ViewBuilder()

    # ------------------------------------------------------------------ #
    # automaton
    # ------------------------------------------------------------------ #

    def initial_state(self, input_value: Any) -> State:
        root = self.builder.node(("input", input_value), ())
        return (input_value, root)

    def message(self, state: State) -> View:
        return state[1]

    def transition(self, state: State, received: Tuple[View, ...]) -> State:
        input_value, current = state
        children = [(_PREV, current)] + [(_RECV, cls) for cls in received]
        return (input_value, self.builder.node(None, children))

    # ------------------------------------------------------------------ #
    # counting
    # ------------------------------------------------------------------ #

    @staticmethod
    def _prev_of(node: View) -> Optional[View]:
        for color, child in node.children:
            if color == _PREV:
                return child
        return None

    @staticmethod
    def _recv_of(node: View) -> Counter:
        return Counter(child.uid for color, child in node.children if color == _RECV)

    def _collect(self, root: View) -> Dict[int, List[View]]:
        """All reachable class nodes grouped by level (0 = inputs)."""
        levels: Dict[int, int] = {}
        order: Dict[int, View] = {}

        def level(node: View) -> int:
            got = levels.get(node.uid)
            if got is not None:
                return got
            prev = self._prev_of(node)
            lv = 0 if prev is None else level(prev) + 1
            levels[node.uid] = lv
            order[node.uid] = node
            for _color, child in node.children:
                level(child)
            return lv

        level(root)
        grouped: Dict[int, List[View]] = defaultdict(list)
        for uid, node in order.items():
            grouped[levels[uid]].append(node)
        for lst in grouped.values():
            lst.sort(key=lambda nd: nd.uid)
        return dict(grouped)

    def _solve(self, root: View) -> Optional[Dict[Any, int]]:
        """Input multiplicities up to a global factor, or ``None``.

        A function of the class DAG alone (its cutoff is ``depth // 2``),
        so it is shared by all agents in a class and by every algorithm
        on the builder: memoized in ``builder.memo`` per root uid.
        """
        key = ("history", root.uid)
        memo = self.builder.memo
        if key not in memo:
            memo[key] = self._solve_uncached(root, root.depth // 2)
        return memo[key]

    def _solve_uncached(self, root: View, cutoff: int) -> Optional[Dict[Any, int]]:
        grouped = self._collect(root)
        nodes: List[View] = []
        for lv in range(cutoff + 1):
            nodes.extend(grouped.get(lv, []))
        if not nodes:
            return None
        index = {node.uid: i for i, node in enumerate(nodes)}
        rows: List[List[int]] = []

        # Refinement: |a| = Σ |children of a| for a at levels < cutoff.
        children_of: Dict[int, List[View]] = defaultdict(list)
        for lv in range(1, cutoff + 1):
            for x in grouped.get(lv, []):
                prev = self._prev_of(x)
                assert prev is not None
                children_of[prev.uid].append(x)
        for lv in range(cutoff):
            for a in grouped.get(lv, []):
                row = [0] * len(nodes)
                row[index[a.uid]] = 1
                for x in children_of.get(a.uid, []):
                    row[index[x.uid]] -= 1
                if any(row):
                    rows.append(row)

        # Symmetry counting at each level 1 .. cutoff.
        for lv in range(1, cutoff + 1):
            parents = grouped.get(lv - 1, [])
            level_nodes = grouped.get(lv, [])
            by_prev: Dict[int, List[View]] = defaultdict(list)
            for x in level_nodes:
                prev = self._prev_of(x)
                assert prev is not None
                by_prev[prev.uid].append(x)
            for ai in range(len(parents)):
                for bi in range(ai + 1, len(parents)):
                    a, b = parents[ai], parents[bi]
                    row = [0] * len(nodes)
                    for x in by_prev.get(a.uid, []):
                        count = self._recv_of(x).get(b.uid, 0)
                        if count:
                            row[index[x.uid]] += count
                    for y in by_prev.get(b.uid, []):
                        count = self._recv_of(y).get(a.uid, 0)
                        if count:
                            row[index[y.uid]] -= count
                    if any(row):
                        rows.append(row)

        if not rows:
            # No constraints at all: determined only in the trivial
            # single-class case.
            if len(nodes) != 1:
                return None
            z = [1]
        else:
            z = self._kernel_vector(rows)
        if z is None or any(x <= 0 for x in z):
            return None
        mults: Dict[Any, int] = {}
        for node in grouped.get(0, []):
            if node.uid not in index:
                continue
            label = node.label
            assert isinstance(label, tuple) and label[0] == "input"
            mults[label[1]] = z[index[node.uid]]
        return mults

    def _kernel_vector(self, rows: List[List[int]]) -> Optional[List[int]]:
        """The primitive kernel vector of ``rows``, if ``ker`` is a line.

        Different classes often see the same truncated history, hence the
        same integer system: memoized in ``builder.memo`` by content.
        """
        key = ("kernel", tuple(map(tuple, rows)))
        memo = self.builder.memo
        if key not in memo:
            memo[key] = integer_kernel_vector(rows)
        return memo[key]

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #

    def output(self, state: State) -> Any:
        _input, root = state
        mults = self._solve(root)
        if mults is None:
            return None
        if self.knowledge is Knowledge.NONE:
            total = sum(mults.values())
            freqs = {
                (w[0] if isinstance(w, tuple) and len(w) == 2 else w): Fraction(m, total)
                for w, m in sorted(mults.items(), key=lambda kv: repr(kv[0]))
            }
            if self.f:
                vector = [w for w, m in sorted(mults.items(), key=lambda kv: repr(kv[0])) for _ in range(m)]
                return self.f(vector)
            return freqs
        if self.knowledge is Knowledge.EXACT_N:
            total = sum(mults.values())
            if self.n % total != 0:
                return None
            k = self.n // total
            exact = {w: k * m for w, m in sorted(mults.items(), key=lambda kv: repr(kv[0]))}
        else:  # LEADER: inputs are (value, is_leader)
            leader_sum = sum(m for w, m in mults.items() if isinstance(w, tuple) and w[1])
            if leader_sum == 0 or any(
                (self.leader_count * m) % leader_sum for m in mults.values()
            ):
                return None
            exact = {}
            for w, m in sorted(mults.items(), key=lambda kv: repr(kv[0])):
                # A value can appear both on leaders and non-leaders: the
                # (value, flag) classes are distinct but the census entry
                # is shared, so multiplicities accumulate.
                value = w[0]
                exact[value] = exact.get(value, 0) + self.leader_count * m // leader_sum
        if self.f:
            vector = [w for w, m in exact.items() for _ in range(m)]
            return self.f(vector)
        return exact
