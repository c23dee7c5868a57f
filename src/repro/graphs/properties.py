"""Structural predicates and distances on directed multigraphs."""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Set, Tuple

from repro.graphs.digraph import DiGraph


def _bfs_distances(g: DiGraph, source: int) -> List[Optional[int]]:
    """Directed BFS distances from ``source`` (``None`` = unreachable)."""
    dist: List[Optional[int]] = [None] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in g.out_neighbors(v):
            if dist[w] is None:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def is_strongly_connected(g: DiGraph) -> bool:
    """True iff every vertex reaches every other by a directed path."""
    if g.n == 1:
        return True
    if any(d is None for d in _bfs_distances(g, 0)):
        return False
    return all(d is not None for d in _bfs_distances(g.reverse(), 0))


def diameter(g: DiGraph) -> int:
    """The directed diameter; raises ``ValueError`` if not strongly connected."""
    worst = 0
    for v in g.vertices():
        dist = _bfs_distances(g, v)
        for d in dist:
            if d is None:
                raise ValueError("diameter undefined: graph is not strongly connected")
            worst = max(worst, d)
    return worst


def distances(g: DiGraph, source: int) -> List[Optional[int]]:
    """Public BFS wrapper: directed distances from ``source``."""
    return _bfs_distances(g, source)


def _support(g: DiGraph) -> Set[Tuple[int, int]]:
    """The distinct ``(source, target)`` pairs of ``g``'s edges."""
    return {(v, t) for v in g.vertices() for t in g.out_neighbors(v)}


def is_symmetric(g: DiGraph) -> bool:
    """True iff the *support* of the edge relation is symmetric.

    Per Section 2.1, a symmetric network has ``(i, j) ∈ E_t`` iff
    ``(j, i) ∈ E_t``; multiplicities of parallel edges are not compared.
    """
    present = _support(g)
    return all((t, s) in present for (s, t) in present)


def is_complete(g: DiGraph) -> bool:
    """True iff every ordered pair (including self-loops) is an edge."""
    present = _support(g)
    return all((i, j) in present for i in g.vertices() for j in g.vertices())


def outdegree_sequence(g: DiGraph) -> Tuple[int, ...]:
    return tuple(g.outdegree(v) for v in g.vertices())


def indegree_sequence(g: DiGraph) -> Tuple[int, ...]:
    return tuple(g.indegree(v) for v in g.vertices())


def is_regular(g: DiGraph) -> bool:
    """True iff all vertices share the same in- and outdegree."""
    outs = set(outdegree_sequence(g))
    ins = set(indegree_sequence(g))
    return len(outs) == 1 and len(ins) == 1


def strongly_connected_components(g: DiGraph) -> List[List[int]]:
    """Tarjan's algorithm, iterative; components in reverse topological order."""
    index = [0] * g.n
    low = [0] * g.n
    on_stack = [False] * g.n
    visited = [False] * g.n
    stack: List[int] = []
    components: List[List[int]] = []
    counter = [1]

    for root in g.vertices():
        if visited[root]:
            continue
        # Iterative DFS with explicit frames: (vertex, neighbor iterator).
        work = [(root, iter(g.out_neighbors(root)))]
        visited[root] = True
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if not visited[w]:
                    visited[w] = True
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(g.out_neighbors(w))))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(comp)
    return components
