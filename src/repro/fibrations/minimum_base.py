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
Hopcroft/Paige–Tarjan-style **worklist refinement**: per-vertex adjacency
and color/value keys are computed once up front, and each splitter popped
from the worklist only re-examines the vertices it actually reaches —
instead of rebuilding every vertex's full in-signature on every pass the
way the naive iterated refinement does.  The naive algorithm is retained
verbatim (modulo the shared keying) as
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
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.metrics import canonical_repr
from repro.graphs.digraph import DiGraph
from repro.fibrations.keys import equality_key
from repro.fibrations.morphism import GraphMorphism, morphism_from_vertex_map


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
    rank = {g: r for r, g in enumerate(order)}
    return [rank[i] for i in assigned], len(reprs)


def _edge_color_ids(g: DiGraph) -> List[int]:
    """A canonical integer color id per edge (indexed by ``edge.index``)."""
    ids, _ = _group_by_equality(e.color for e in g.edges)
    return ids


def _initial_classes(g: DiGraph) -> List[int]:
    """Vertices grouped by value equality, canonically numbered."""
    ids, _ = _group_by_equality(g.value(v) for v in g.vertices())
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
    """
    n = g.n
    classes = _initial_classes(g)
    color_ids = _edge_color_ids(g)

    # Out-adjacency once: processing splitter S touches the targets of
    # S's out-edges, i.e. exactly the vertices with an in-edge from S.
    out_adj: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for e in g.edges:
        out_adj[e.source].append((e.target, color_ids[e.index]))

    members: Dict[int, set] = {}
    for v, c in enumerate(classes):
        members.setdefault(c, set()).add(v)
    next_id = len(members)

    worklist = deque(sorted(members))
    queued = set(worklist)

    while worklist:
        s = worklist.popleft()
        queued.discard(s)

        # Multiset of colors each vertex receives from the splitter.
        received: Dict[int, List[int]] = {}
        for u in members[s]:
            for v, cid in out_adj[u]:
                lst = received.get(v)
                if lst is None:
                    received[v] = [cid]
                else:
                    lst.append(cid)

        by_class: Dict[int, List[int]] = {}
        for v in received:
            c = classes[v]
            if len(members[c]) > 1:
                by_class.setdefault(c, []).append(v)

        # Sorted class-id order keeps fresh-id assignment canonical.
        for c in sorted(by_class):
            vs = by_class[c]
            mem = members[c]
            sig_groups: Dict[Tuple[int, ...], List[int]] = {}
            for v in vs:
                sig_groups.setdefault(tuple(sorted(received[v])), []).append(v)
            if len(vs) == len(mem) and len(sig_groups) == 1:
                continue
            parts: List[set] = []
            if len(vs) < len(mem):
                # Untouched members receive nothing from s: signature ().
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
    color_ids = _edge_color_ids(g)
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
    the in-edges of an (arbitrary, hence any) representative of ``c``, with
    sources replaced by their classes and colors preserved.

    ``verify=False`` skips the equitability check — pass it only for a
    partition the refiner itself certified (:func:`minimum_base` does);
    hand-built partitions must keep the default so a non-equitable one is
    rejected instead of silently producing a non-fibration.
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
        _verify_equitable(g, classes, m)

    specs = []
    for c in range(m):
        r = rep[c]
        for e in g.in_edges(r):
            specs.append((classes[e.source], c, e.color))
    values = None
    if g.values is not None:
        values = [g.value(rep[c]) for c in range(m)]
    base = DiGraph(m, specs, values=values)
    phi = morphism_from_vertex_map(g, base, classes)
    if phi is None:
        raise AssertionError("equitable quotient must extend to a fibration")
    return MinimumBase(base, phi, classes)


def _verify_equitable(g: DiGraph, classes: List[int], m: int) -> None:
    """One linear pass: per-class value keys and in-signatures must agree."""
    color_ids = _edge_color_ids(g)
    value_keys = _initial_classes(g)
    seen_value: List[Optional[int]] = [None] * m
    seen_sig: List[Optional[Tuple]] = [None] * m
    for v in range(g.n):
        c = classes[v]
        if seen_value[c] is None:
            seen_value[c] = value_keys[v]
        elif seen_value[c] != value_keys[v]:
            raise ValueError(f"partition does not refine the valuation at class {c}")
        sig = tuple(sorted(Counter(
            (classes[e.source], color_ids[e.index]) for e in g.in_edges(v)
        ).items()))
        if seen_sig[c] is None:
            seen_sig[c] = sig
        elif seen_sig[c] != sig:
            raise ValueError(f"partition is not equitable at class {c}")


def minimum_base(g: DiGraph) -> MinimumBase:
    """The minimum base of ``g`` with its projection fibration.

    The partition comes straight from the worklist refiner, which
    certifies its own equitability, so the quotient skips the O(n + m)
    re-verification pass.
    """
    return quotient_by_partition(g, equitable_partition(g), verify=False)
