"""Minimum bases via the coarsest equitable partition (Section 3.2).

A graph is *fibration prime* when its only fibrations are isomorphisms;
every graph has a unique (up to isomorphism) fibration-prime base, its
*minimum base*.  Two vertices of ``G`` collapse onto the same base vertex
exactly when they have the same infinite in-view — equivalently, when they
lie in the same class of the coarsest partition of ``V(G)`` that is

* compatible with the vertex valuation, and
* *equitable for in-neighborhoods*: any two vertices of a class have, for
  every class ``c`` and color ``k``, the same number of in-edges colored
  ``k`` whose source lies in ``c``.

:func:`equitable_partition` computes that partition with a
Hopcroft/Paige–Tarjan-style **worklist refinement**: edge color ids and
per-vertex out-keys are computed once per edge structure (every valuation
of a graph shares them), and each splitter popped from the worklist only
re-examines the vertices it actually reaches — instead of rebuilding
every vertex's full in-signature on every pass the way the naive
iterated refinement does.  :func:`quotient_by_partition` builds the
quotient's fibration on the same integer keys.  The naive algorithm is
retained verbatim (modulo the shared keying) as
:func:`equitable_partition_reference`, the executable specification the
property tests compare the worklist refiner against.

Colors and values are keyed by **equality** with a
:func:`~repro.core.metrics.canonical_repr` fallback, matching the
``unanimous_output`` convention of the engine: ``Fraction(2, 1)`` and
``2`` are the same color, and two equal frozensets key equally no matter
how they iterate.  Raw ``repr`` keying (the previous scheme) split
equal-but-differently-printed payloads into distinct classes.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import chain
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.core.metrics import canonical_repr
from repro.graphs.digraph import DiGraph, EdgeCache
from repro.fibrations.keys import equality_key
from repro.fibrations.morphism import GraphMorphism


# ---------------------------------------------------------------------- #
# color / value keying
# ---------------------------------------------------------------------- #

def _group_by_equality(items: Iterable[Any]) -> Tuple[List[int], int]:
    """Group ``items`` by equality; returns (group id per item, #groups).

    Groups are formed by ``==`` (so ``Fraction(2, 1)``, ``2.0`` and ``2``
    share one group) with a :func:`canonical_repr` key for unhashable or
    NaN-like payloads — the shared :func:`repro.fibrations.keys.equality_key`
    convention.  Group ids are canonical: groups are numbered by the sorted
    order of their minimal canonical reprs, so relabeling the underlying
    graph cannot renumber them.
    """
    groups: Dict[Any, int] = {}
    reprs: List[str] = []
    assigned: List[int] = []
    prev: Any = object()  # is no item
    idx = -1
    for x in items:
        # An item that *is* the previous one (the shared ``None`` color of
        # every edge, say) lands in the previous group without re-keying.
        if x is not prev:
            prev = x
            key = equality_key(x)
            idx = groups.get(key)
            if idx is None:
                idx = len(reprs)
                groups[key] = idx
                reprs.append(canonical_repr(x))
            else:
                r = canonical_repr(x)
                if r < reprs[idx]:
                    reprs[idx] = r
        assigned.append(idx)
    order = sorted(range(len(reprs)), key=lambda i: (reprs[i], i))
    rank = [0] * len(order)
    for r, g in enumerate(order):
        rank[g] = r
    return list(map(rank.__getitem__, assigned)), len(reprs)


def _edge_structure(g: DiGraph) -> EdgeCache:
    """``g``'s edge cache with the refiner's fields filled.

    ``color_ids[i]`` is edge ``i``'s canonical color id and
    ``num_colors`` the number of ids (at least 1).  ``out_keys[u]`` holds
    one int per out-edge of ``u``, in port order: ``target * num_colors +
    color id``, which is just the target when every edge carries one
    color id.  Computed once per edge structure, from the graph's integer
    edge arrays: every valuation of the graph shares the cache.
    """
    cache = g.edge_cache
    if cache.out_keys is None:
        color_ids, k = _group_by_equality(g.edge_colors())
        k = max(k, 1)
        if k == 1:
            out_keys = tuple(tuple(g.out_neighbors(u)) for u in g.vertices())
        else:
            out_keys = tuple(
                tuple([t * k + color_ids[i] for t, i in zip(g.out_neighbors(u), g.out_edge_ids(u))])
                for u in g.vertices()
            )
        cache.color_ids, cache.num_colors, cache.out_keys = color_ids, k, out_keys
    return cache


def _initial_classes(g: DiGraph) -> List[int]:
    """Vertices grouped by value equality, canonically numbered."""
    ids, _ = _group_by_equality((None,) * g.n if g.values is None else g.values)
    return ids


# ---------------------------------------------------------------------- #
# worklist refinement
# ---------------------------------------------------------------------- #

def equitable_partition(g: DiGraph) -> List[int]:
    """The coarsest in-equitable partition refining the valuation.

    Returns a class id per vertex.  Ids are *canonical*: initial classes
    are numbered by the sorted order of their value keys, and every split
    numbers its sub-classes by their splitter signatures, so the whole
    labeling is a deterministic function of the graph that is invariant
    under vertex relabeling (isomorphic graphs get identical id sequences
    up to the isomorphism).

    The refinement is worklist-driven: a splitter class is popped, the
    vertices it reaches are bucketed by the multiset of edge colors they
    receive from it, and only the touched classes are split — classes the
    splitter cannot see are never re-examined.  When a class splits, the
    sub-classes re-enter the worklist under the Paige–Tarjan rule (all of
    them if the parent was still queued, all but the largest otherwise).

    A splitter's edges are counted in C (``collections.Counter`` over the
    out-key lists of its members, kept once per edge structure in the
    graph's :class:`~repro.graphs.digraph.EdgeCache`).  When every edge
    carries one color id a signature is that count: counts sort as the
    one-color multisets they stand for, so the labels are those of
    sorting the multisets themselves.
    """
    n = g.n
    classes = _initial_classes(g)
    edges = _edge_structure(g)
    out_keys = edges.out_keys
    k = edges.num_colors

    members: Dict[int, set] = {}
    for v, c in enumerate(classes):
        members.setdefault(c, set()).add(v)
    next_id = len(members)

    worklist = deque(sorted(members))
    queued = set(worklist)

    while worklist:
        s = worklist.popleft()
        queued.discard(s)

        # What each vertex receives from the splitter: with one color, the
        # number of edges; otherwise the sorted multiset of color ids.
        counts = Counter(chain.from_iterable(map(out_keys.__getitem__, members[s])))
        if k == 1:
            received: Dict[int, Any] = counts
        else:
            colors: Dict[int, List[int]] = {}
            for key, count in counts.items():
                v, cid = divmod(key, k)
                colors.setdefault(v, []).extend([cid] * count)
            received = {v: tuple(sorted(cids)) for v, cids in colors.items()}

        by_class: Dict[int, List[int]] = {}
        for v in received:
            c = classes[v]
            if len(members[c]) > 1:
                by_class.setdefault(c, []).append(v)

        # Sorted class-id order keeps fresh-id assignment canonical.
        for c in sorted(by_class):
            vs = by_class[c]
            mem = members[c]
            sig_groups: Dict[Any, List[int]] = {}
            for v in vs:
                sig_groups.setdefault(received[v], []).append(v)
            if len(vs) == len(mem) and len(sig_groups) == 1:
                continue
            parts: List[set] = []
            if len(vs) < len(mem):
                # Untouched members receive nothing from s: the empty
                # signature, below every count and every multiset.
                parts.append(mem.difference(vs))
            for sig in sorted(sig_groups):
                parts.append(set(sig_groups[sig]))
            if len(parts) == 1:
                continue

            # The signature-smallest part keeps the parent id.
            members[c] = parts[0]
            fresh = []
            for part in parts[1:]:
                members[next_id] = part
                for v in part:
                    classes[v] = next_id
                fresh.append(next_id)
                next_id += 1

            if c in queued:
                # Parent still pending: queue every new part alongside it.
                for i in fresh:
                    worklist.append(i)
                    queued.add(i)
            else:
                # Parent already consumed: all parts but the largest
                # (first-largest in signature order — deterministic).
                ids = [c] + fresh
                largest = max(ids, key=lambda i: len(members[i]))
                for i in ids:
                    if i != largest:
                        worklist.append(i)
                        queued.add(i)

    remap = {c: r for r, c in enumerate(sorted(members))}
    return [remap[classes[v]] for v in range(n)]


# ---------------------------------------------------------------------- #
# the naive reference refiner
# ---------------------------------------------------------------------- #

def equitable_partition_reference(g: DiGraph) -> List[int]:
    """The naive iterated-refinement specification of
    :func:`equitable_partition`.

    Rebuilds every vertex's full in-signature each pass until the
    partition stabilizes — O(n·m) per pass.  Kept as the executable
    reference the hypothesis property suite compares the worklist refiner
    against; both use the same equality-based color/value keying, so they
    always induce the same partition (class *labels* may differ).
    """
    classes = _initial_classes(g)
    color_ids = _edge_structure(g).color_ids
    while True:
        signatures = []
        for v in g.vertices():
            in_sig = Counter(
                (classes[e.source], color_ids[e.index]) for e in g.in_edges(v)
            )
            signatures.append((classes[v], tuple(sorted(in_sig.items()))))
        palette: Dict[object, int] = {}
        for s in sorted(set(signatures)):
            palette[s] = len(palette)
        new_classes = [palette[s] for s in signatures]
        if same_partition(classes, new_classes):
            return new_classes
        classes = new_classes


def same_partition(a: Sequence[int], b: Sequence[int]) -> bool:
    """Do two labelings induce the same partition (ignoring label names)?"""
    fwd: Dict[int, int] = {}
    bwd: Dict[int, int] = {}
    for x, y in zip(a, b):
        if fwd.setdefault(x, y) != y or bwd.setdefault(y, x) != x:
            return False
    return True


# ---------------------------------------------------------------------- #
# quotients and minimum bases
# ---------------------------------------------------------------------- #

class MinimumBase:
    """The result of a minimum-base computation.

    Attributes
    ----------
    base:
        The quotient multigraph ``B`` (valued/colored like ``G``).
    fibration:
        The projection ``φ : G -> B`` as a validated fibration.
    classes:
        Class id per ``G``-vertex; class ids are the ``B``-vertex ids.
    fibre_sizes:
        ``fibre_sizes[j]`` = cardinality of ``φ⁻¹(j)``.
    """

    __slots__ = ("base", "fibration", "classes", "fibre_sizes", "_fibres")

    def __init__(self, base: DiGraph, fibration: GraphMorphism, classes: List[int]):
        self.base = base
        self.fibration = fibration
        self.classes = classes
        # Fibre lists once, up front: fibre_solver and the table cells ask
        # per base vertex, and a linear scan of `classes` per call adds up.
        fibres: List[List[int]] = [[] for _ in range(base.n)]
        for v, c in enumerate(classes):
            fibres[c].append(v)
        self._fibres = fibres
        self.fibre_sizes = [len(f) for f in fibres]

    def fibre(self, base_vertex: int) -> List[int]:
        return list(self._fibres[base_vertex])

    def __repr__(self) -> str:
        return f"MinimumBase({self.fibration.source_graph.n} vertices -> {self.base.n} classes)"


def quotient_by_partition(
    g: DiGraph, classes: Sequence[int], verify: bool = True
) -> MinimumBase:
    """Quotient ``g`` by an *equitable* partition; raises if not equitable.

    The quotient has one vertex per class; its in-edges at class ``c`` are
    the in-edges of ``c``'s smallest vertex (its representative), in that
    vertex's in-edge order, with sources replaced by their classes and
    colors preserved.

    The fibration is built and checked in one integer pass.  Every in-edge
    is keyed by (class of its source, the refiner's color id), and each
    vertex's keys are sorted once.  A vertex whose sorted keys differ from
    its representative's has no fibration onto the quotient: the
    partition is not equitable, and that raises ``ValueError`` whatever
    ``verify`` says.  Otherwise its edges pair with the representative's
    by position, which pairs ascending edge indices within each (source
    class, color) group — the edge map
    :func:`~repro.fibrations.morphism.morphism_from_vertex_map` builds.

    ``verify=False`` skips the one check the pass above cannot make, that
    the partition refines the valuation — pass it only for a partition
    the refiner itself certified (:func:`minimum_base` does); hand-built
    partitions must keep the default so that one merging vertices of
    different values is rejected instead of silently producing a base
    that misreports them.
    """
    classes = list(classes)
    if len(classes) != g.n:
        raise ValueError(f"partition labels {len(classes)} != n {g.n}")
    ids = sorted(set(classes))
    if ids != list(range(len(ids))):
        remap = {old: new for new, old in enumerate(ids)}
        classes = [remap[c] for c in classes]
    m = len(set(classes))
    rep: List[int] = [-1] * m
    for v in range(g.n - 1, -1, -1):
        rep[classes[v]] = v

    if verify:
        value_keys = _initial_classes(g)
        for v, c in enumerate(classes):
            if value_keys[v] != value_keys[rep[c]]:
                raise ValueError(f"partition does not refine the valuation at class {c}")

    edges = _edge_structure(g)
    k = edges.num_colors
    edge_keys = list(edges.color_ids)
    for u in range(g.n):
        source_key = classes[u] * k
        for i in g.out_edge_ids(u):
            edge_keys[i] += source_key

    def sorted_keys(v: int) -> Tuple[List[int], List[int]]:
        """``v``'s in-edge keys, sorted, and the in-edge positions in that order."""
        keys = list(map(edge_keys.__getitem__, g.in_edge_ids(v)))
        order = sorted(range(len(keys)), key=keys.__getitem__)
        return list(map(keys.__getitem__, order)), order

    colors = g.edge_colors()
    specs = []
    rep_keys: List[List[int]] = []
    rep_edges: List[List[int]] = []
    for c in range(m):
        r = rep[c]
        first = len(specs)
        for s, i in zip(g.in_neighbors(r), g.in_edge_ids(r)):
            specs.append((classes[s], c, colors[i]))
        keys, order = sorted_keys(r)
        rep_keys.append(keys)
        rep_edges.append([first + i for i in order])
    values = None
    if g.values is not None:
        values = [g.value(rep[c]) for c in range(m)]
    base = DiGraph(m, specs, values=values)

    edge_map = [0] * g.num_edges
    for v in range(g.n):
        c = classes[v]
        keys, order = sorted_keys(v)
        if keys != rep_keys[c]:
            raise ValueError(f"partition is not equitable at class {c}")
        in_ids = g.in_edge_ids(v)
        for i, b in zip(order, rep_edges[c]):
            edge_map[in_ids[i]] = b
    return MinimumBase(base, GraphMorphism(g, base, classes, edge_map), classes)


def minimum_base(g: DiGraph) -> MinimumBase:
    """The minimum base of ``g`` with its projection fibration.

    The partition comes straight from the worklist refiner, which
    certifies its own partition, so the quotient skips re-checking that
    it refines the valuation.
    """
    return quotient_by_partition(g, equitable_partition(g), verify=False)
