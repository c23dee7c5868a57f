"""Hash-consed in-views ``T_i^t`` (Boldi–Vigna universal structures).

After ``t`` rounds, everything an anonymous agent can possibly know about
the network is its *view of depth t*: a tree whose root is labelled with the
agent's own observable data, and whose children are the depth ``t-1`` views
of its in-neighbors, one per in-edge, tagged with the edge color (the output
port, in the port-awareness model).  Views are the backbone of both the
distributed minimum-base algorithm (Section 3.2 / 4.2) and of the
impossibility machinery: two agents have equal views forever iff they lie in
the same fibre of the minimum-base fibration.

A depth-``t`` view has up to ``n^t`` tree nodes, but only at most ``n``
distinct subtrees per depth.  Interning (hash-consing) subtrees therefore
keeps every view at O(n·t) memory, gives O(1) structural equality, and makes
the per-round view update linear.  Children are stored as a canonically
sorted tuple, so a :class:`View` *is* its multiset semantics: two views are
equal iff they are the same Python object.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Optional, Set, Tuple


class View:
    """An interned view node.

    Attributes
    ----------
    uid:
        Intern table index; equal views share a uid (within one builder).
    label:
        The root's observable data (input value, outdegree, ... — any
        hashable object).
    children:
        Canonically sorted tuple of ``(color, child_view)`` pairs, one per
        in-edge of the root; ``color`` is the edge color (``None`` outside
        the port model).
    depth:
        Height of the view: a leaf has depth 0.
    """

    __slots__ = ("uid", "label", "children", "depth")

    def __init__(self, uid: int, label: Hashable, children: Tuple[Tuple[Hashable, "View"], ...], depth: int):
        self.uid = uid
        self.label = label
        self.children = children
        self.depth = depth

    def __repr__(self) -> str:
        return f"View(uid={self.uid}, label={self.label!r}, depth={self.depth}, fanin={len(self.children)})"

    # Identity semantics: the builder guarantees structural equality implies
    # object identity, so default __eq__/__hash__ (by id) are correct *per
    # builder*.  Views from different builders must not be mixed.


def _canonical_child_key(pair: Tuple[Hashable, View]) -> Tuple[str, int]:
    color, child = pair
    return (repr(color), child.uid)


class ViewBuilder:
    """Intern table for :class:`View` nodes.

    One builder corresponds to one "universe" of views; a simulation or an
    analysis run should use a single builder throughout so that equal views
    are identical objects.

    ``memo`` holds the values of pure functions of interned views, for
    every algorithm that shares the builder: candidate bases keyed by view
    uid, fibre solves keyed by base content, history-class solves.  Keys
    are tuples led by a tag naming the function.  A uid key is sound
    because uids are append-only here and equal views share one.
    """

    def __init__(self) -> None:
        self._table: Dict[Tuple, View] = {}
        self._trunc_cache: Dict[Tuple[int, int], View] = {}
        self.memo: Dict[Tuple, Any] = {}

    def __len__(self) -> int:
        return len(self._table)

    def leaf(self, label: Hashable) -> View:
        return self.node(label, ())

    def node(self, label: Hashable, children: Iterable[Tuple[Hashable, View]]) -> View:
        """The interned view with this root label and child multiset."""
        kids = tuple(sorted(children, key=_canonical_child_key))
        key = (label, tuple((repr(c), ch.uid) for (c, ch) in kids))
        found = self._table.get(key)
        if found is not None:
            return found
        depth = 1 + max((ch.depth for (_c, ch) in kids), default=-1)
        view = View(len(self._table), label, kids, depth)
        self._table[key] = view
        return view

    def truncate(self, view: View, depth: int) -> View:
        """The view cut off below ``depth`` (identity if already shallower)."""
        if depth < 0:
            raise ValueError("truncation depth must be >= 0")
        if view.depth <= depth:
            return view
        cached = self._trunc_cache.get((view.uid, depth))
        if cached is not None:
            return cached
        if depth == 0:
            result = self.leaf(view.label)
        else:
            result = self.node(
                view.label,
                ((c, self.truncate(ch, depth - 1)) for (c, ch) in view.children),
            )
        self._trunc_cache[(view.uid, depth)] = result
        return result


def view_of(
    g: "Any",
    vertex: int,
    depth: int,
    builder: Optional[ViewBuilder] = None,
    include_ports: bool = False,
) -> View:
    """The depth-``depth`` in-view of ``vertex`` in the static graph ``g``.

    Labels are the vertex values of ``g`` (``None`` if unvalued).  With
    ``include_ports`` the child edges carry the *sender's* output-port
    number, matching the output-port-awareness model; otherwise they carry
    the raw edge colors.

    Computed bottom-up over all vertices simultaneously, so requesting one
    view costs the same as requesting all of them — callers who need every
    view should simply call this ``n`` times; interning makes repeats free.
    """
    if builder is None:
        builder = ViewBuilder()
    current: List[View] = [builder.leaf(g.value(v)) for v in g.vertices()]
    for _level in range(depth):
        nxt: List[View] = []
        for v in g.vertices():
            children = []
            for e in g.in_edges(v):
                color = g.port_of(e) if include_ports else e.color
                children.append((color, current[e.source]))
            nxt.append(builder.node(g.value(v), children))
        current = nxt
    return current[vertex]


def all_views(
    g: "Any",
    depth: int,
    builder: Optional[ViewBuilder] = None,
    include_ports: bool = False,
) -> List[View]:
    """Depth-``depth`` views of every vertex, sharing one intern table."""
    if builder is None:
        builder = ViewBuilder()
    current: List[View] = [builder.leaf(g.value(v)) for v in g.vertices()]
    for _level in range(depth):
        nxt: List[View] = []
        for v in g.vertices():
            children = []
            for e in g.in_edges(v):
                color = g.port_of(e) if include_ports else e.color
                children.append((color, current[e.source]))
            nxt.append(builder.node(g.value(v), children))
        current = nxt
    return current


def dag_size(view: View) -> int:
    """Number of *distinct* nodes reachable from ``view`` — the DAG size."""
    seen: Set[int] = set()
    stack = [view]
    while stack:
        v = stack.pop()
        if v.uid in seen:
            continue
        seen.add(v.uid)
        stack.extend(ch for (_c, ch) in v.children)
    return len(seen)


def tree_size(view: View) -> int:
    """Number of nodes of the *unfolded* tree (exponential in general)."""
    memo: Dict[int, int] = {}

    def size(v: View) -> int:
        got = memo.get(v.uid)
        if got is not None:
            return got
        s = 1 + sum(size(ch) for (_c, ch) in v.children)
        memo[v.uid] = s
        return s

    return size(view)


def nodes_within_levels(view: View, max_level: int) -> List[Tuple[int, View]]:
    """All ``(level, node)`` pairs with ``level <= max_level``, deduplicated.

    A node reachable at several levels is reported once, at its *smallest*
    level (BFS order).  Level 0 is the root.
    """
    seen: Set[int] = set()
    out: List[Tuple[int, View]] = []
    frontier = [view]
    seen.add(view.uid)
    out.append((0, view))
    for level in range(1, max_level + 1):
        nxt: List[View] = []
        for v in frontier:
            for (_c, ch) in v.children:
                if ch.uid not in seen:
                    seen.add(ch.uid)
                    nxt.append(ch)
                    out.append((level, ch))
        frontier = nxt
    return out
