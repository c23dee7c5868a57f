"""Directed multigraphs with vertex values and edge colors.

The paper models a network as a directed (multi-)graph ``G`` given by a
vertex set ``[n]`` and source/target functions on an edge set (Section 3).
Vertices may carry *values* (inputs, outdegrees, ...) and edges may carry
*colors* (output-port labels).  This module implements exactly that object.

Vertices are the integers ``0 .. n-1``.  Edges are immutable
:class:`Edge` records carrying an index, a source, a target, and an optional
color.  Parallel edges are permitted — minimum bases of ordinary graphs are
multigraphs in general — and a self-loop at every vertex is the normal state
of a communication graph (Section 2.1: "an agent can communicate with itself
instantaneously").
"""

from __future__ import annotations

from itertools import compress
from operator import eq
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)


class Edge:
    """One directed edge of a multigraph.

    Attributes
    ----------
    index:
        Position of the edge in the owning graph's edge list.  Two parallel
        edges differ only by their index (and possibly color).
    source, target:
        Endpoint vertices; the edge is directed ``source -> target``.
    color:
        Optional hashable label.  Output-port awareness is modeled by
        coloring each edge with its port number at the source.
    """

    __slots__ = ("index", "source", "target", "color")

    def __init__(self, index: int, source: int, target: int, color: Hashable = None):
        self.index = index
        self.source = source
        self.target = target
        self.color = color

    def __repr__(self) -> str:
        if self.color is None:
            return f"Edge({self.index}: {self.source}->{self.target})"
        return f"Edge({self.index}: {self.source}->{self.target} #{self.color!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Edge):
            return NotImplemented
        return (
            self.index == other.index
            and self.source == other.source
            and self.target == other.target
            and self.color == other.color
        )

    def __hash__(self) -> int:
        return hash((self.index, self.source, self.target, self.color))


class EdgeCache:
    """What is derived from one edge structure, filled on first use.

    Every graph :meth:`DiGraph.with_values` / :meth:`DiGraph.without_values`
    builds shares its source's edge arrays and therefore this cell, so each
    valuation of one edge structure pays for these once:

    * ``edges``, ``in_edges``, ``out_edges`` — the :class:`Edge` records,
      all of them and per vertex (:class:`DiGraph` builds them on the
      first read of :attr:`DiGraph.edges`, :meth:`DiGraph.in_edges` or
      :meth:`DiGraph.out_edges`);
    * ``ports`` — each edge's output port at its source
      (:meth:`DiGraph.port_of` fills it);
    * ``digest`` — the content fingerprint's edge digest
      (:mod:`repro.core.memo` fills it);
    * ``color_ids``, ``num_colors``, ``out_keys`` — the refiner's
      canonical color id per edge and, per vertex, one int per out-edge
      (:mod:`repro.fibrations.minimum_base` fills them).
    """

    __slots__ = (
        "edges",
        "in_edges",
        "out_edges",
        "ports",
        "digest",
        "color_ids",
        "num_colors",
        "out_keys",
    )

    def __init__(self):
        self.edges: Optional[Tuple[Edge, ...]] = None
        self.in_edges: Optional[Tuple[Tuple[Edge, ...], ...]] = None
        self.out_edges: Optional[Tuple[Tuple[Edge, ...], ...]] = None
        self.ports: Optional[List[int]] = None
        self.digest = None
        self.color_ids: Optional[List[int]] = None
        self.num_colors = 0
        self.out_keys: Optional[Tuple[Tuple[int, ...], ...]] = None


class DiGraph:
    """A directed multigraph on vertices ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of vertices; must be positive.
    edges:
        Iterable of ``(source, target)`` or ``(source, target, color)``
        tuples.  Parallel edges are kept.
    values:
        Optional sequence of per-vertex values (the valuation of Section 3).
    ensure_self_loops:
        When true (the default for communication graphs built by
        :mod:`repro.graphs.builders`), add a self-loop at any vertex that
        lacks one.

    The graph is immutable after construction; derived graphs are produced
    by :meth:`with_values`, :meth:`with_colors`, :meth:`with_edges`, etc.

    Edges are stored as the paper's source and target functions: one
    integer tuple each, indexed by edge, plus a color tuple only when some
    edge carries a color, and per vertex the ids of its in- and out-edges.
    The :class:`Edge` records and the port numbering are built from these
    on first read (see :class:`EdgeCache`); readers that need only
    integers use :meth:`in_neighbors`, :meth:`out_neighbors`,
    :meth:`in_edge_ids`, :meth:`out_edge_ids`, :meth:`edge_colors` and
    :meth:`edge_specs` and never build them.
    """

    __slots__ = (
        "n",
        "_sources",
        "_targets",
        "_colors",
        "_in_ids",
        "_out_ids",
        "_all_loops",
        "_values",
        "_fingerprint",
        "_edge_cache",
    )

    def __init__(
        self,
        n: int,
        edges: Iterable[Tuple] = (),
        values: Optional[Sequence[Any]] = None,
        ensure_self_loops: bool = False,
    ):
        if n <= 0:
            raise ValueError(f"a graph needs at least one vertex, got n={n}")
        self.n = n
        sources: List[int] = []
        targets: List[int] = []
        colors: Dict[int, Hashable] = {}  # edge index -> color, None left out
        out: List[List[int]] = [[] for _ in range(n)]
        inn: List[List[int]] = [[] for _ in range(n)]
        for spec in edges:
            if len(spec) == 2:
                s, t = spec
            elif len(spec) == 3:
                s, t, c = spec
                if c is not None:
                    colors[len(sources)] = c
            else:
                raise ValueError(f"edge spec must be (s, t) or (s, t, color), got {spec!r}")
            if not (0 <= s < n and 0 <= t < n):
                raise ValueError(f"edge ({s}, {t}) out of range for n={n}")
            i = len(sources)
            out[s].append(i)
            inn[t].append(i)
            sources.append(s)
            targets.append(t)
        looped = set(compress(sources, map(eq, sources, targets)))
        if ensure_self_loops and len(looped) < n:
            for v in range(n):
                if v not in looped:
                    i = len(sources)
                    out[v].append(i)
                    inn[v].append(i)
                    sources.append(v)
                    targets.append(v)
            looped = set(range(n))
        if values is not None:
            values = tuple(values)
            if len(values) != n:
                raise ValueError(f"got {len(values)} values for {n} vertices")
        self._values: Optional[Tuple[Any, ...]] = values
        self._sources: Tuple[int, ...] = tuple(sources)
        self._targets: Tuple[int, ...] = tuple(targets)
        self._colors: Optional[Tuple[Hashable, ...]] = (
            tuple(map(colors.get, range(len(sources)))) if colors else None
        )
        self._in_ids: Tuple[Tuple[int, ...], ...] = tuple(map(tuple, inn))
        self._out_ids: Tuple[Tuple[int, ...], ...] = tuple(map(tuple, out))
        self._all_loops = len(looped) == n
        # Content fingerprint, computed lazily by repro.core.memo; ``None``
        # until someone asks for it (most throwaway graphs never do).
        self._fingerprint: Optional[str] = None
        # Shared by every graph with_values/without_values builds on this
        # edge structure.
        self._edge_cache = EdgeCache()

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """All edges, in construction order."""
        cache = self._edge_cache
        if cache.edges is None:
            cache.edges = tuple(
                map(Edge, range(self.num_edges), self._sources, self._targets, self.edge_colors())
            )
        return cache.edges

    @property
    def num_edges(self) -> int:
        return len(self._sources)

    @property
    def edge_cache(self) -> EdgeCache:
        """What is derived from this graph's edge structure, shared by
        every :meth:`with_values` / :meth:`without_values` clone."""
        return self._edge_cache

    @property
    def values(self) -> Optional[Tuple[Any, ...]]:
        """The vertex valuation, or ``None`` if the graph is unvalued."""
        return self._values

    def value(self, v: int) -> Any:
        """The value at vertex ``v`` (``None`` when the graph is unvalued)."""
        if self._values is None:
            return None
        return self._values[v]

    def vertices(self) -> range:
        return range(self.n)

    def out_edges(self, v: int) -> Tuple[Edge, ...]:
        """Out-edges of ``v`` in port order."""
        cache = self._edge_cache
        if cache.out_edges is None:
            cache.out_edges = self._records(self._out_ids)
        return cache.out_edges[v]

    def in_edges(self, v: int) -> Tuple[Edge, ...]:
        cache = self._edge_cache
        if cache.in_edges is None:
            cache.in_edges = self._records(self._in_ids)
        return cache.in_edges[v]

    def _records(self, ids: Tuple[Tuple[int, ...], ...]) -> Tuple[Tuple[Edge, ...], ...]:
        record = self.edges.__getitem__
        return tuple(tuple(map(record, vertex_ids)) for vertex_ids in ids)

    def out_edge_ids(self, v: int) -> Tuple[int, ...]:
        """Indices of ``v``'s out-edges, in port order."""
        return self._out_ids[v]

    def in_edge_ids(self, v: int) -> Tuple[int, ...]:
        """Indices of ``v``'s in-edges, in in-edge order."""
        return self._in_ids[v]

    def edge_colors(self) -> Tuple[Hashable, ...]:
        """Every edge's color (``None`` when uncolored), indexed by edge."""
        if self._colors is None:
            return (None,) * len(self._sources)
        return self._colors

    def out_neighbors(self, v: int) -> List[int]:
        """Targets of ``v``'s out-edges (with multiplicity)."""
        return list(map(self._targets.__getitem__, self._out_ids[v]))

    def in_neighbors(self, v: int) -> List[int]:
        """Sources of ``v``'s in-edges (with multiplicity)."""
        return list(map(self._sources.__getitem__, self._in_ids[v]))

    def outdegree(self, v: int) -> int:
        """Number of out-edges of ``v`` — the paper's ``d⁻``, self-loop included."""
        return len(self._out_ids[v])

    def indegree(self, v: int) -> int:
        return len(self._in_ids[v])

    def port_of(self, edge: Edge) -> int:
        """The output port (0-based) that ``edge`` occupies at its source.

        The ``ℓ``-th out-edge of a vertex (in edge-list order) is its port
        ``ℓ``; the numbering is built on first use, once per edge structure.
        """
        cache = self._edge_cache
        if cache.ports is None:
            ports = [0] * len(self._sources)
            for ids in self._out_ids:
                for port, index in enumerate(ids):
                    ports[index] = port
            cache.ports = ports
        return cache.ports[edge.index]

    def edge_multiplicity(self, source: int, target: int) -> int:
        """Number of parallel ``source -> target`` edges."""
        return self.out_neighbors(source).count(target)

    def has_edge(self, source: int, target: int) -> bool:
        return target in map(self._targets.__getitem__, self._out_ids[source])

    def has_self_loop(self, v: int) -> bool:
        return self.has_edge(v, v)

    def all_have_self_loops(self) -> bool:
        """Whether every vertex has a self-loop (§2.1), recorded at construction."""
        return self._all_loops

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #

    def edge_specs(self) -> List[Tuple[int, int, Hashable]]:
        """The edge list as plain tuples, suitable for re-construction."""
        return list(zip(self._sources, self._targets, self.edge_colors()))

    def with_values(self, values: Sequence[Any]) -> "DiGraph":
        """This graph carrying the given vertex valuation.

        The result shares this graph's immutable edge arrays and
        :class:`EdgeCache`, so building it costs O(n), not an O(m)
        rebuild.  It is equal to
        ``DiGraph(self.n, self.edge_specs(), values=values)`` in every
        respect: edges, port numbering, fingerprint.
        """
        if values is not None:
            values = tuple(values)
            if len(values) != self.n:
                raise ValueError(f"got {len(values)} values for {self.n} vertices")
        return self._sharing_edges(values)

    def without_values(self) -> "DiGraph":
        """This graph unvalued, sharing its edge structure like :meth:`with_values`."""
        return self._sharing_edges(None)

    def _sharing_edges(self, values: Optional[Tuple[Any, ...]]) -> "DiGraph":
        clone = DiGraph.__new__(DiGraph)
        clone.n = self.n
        clone._sources = self._sources
        clone._targets = self._targets
        clone._colors = self._colors
        clone._in_ids = self._in_ids
        clone._out_ids = self._out_ids
        clone._all_loops = self._all_loops
        clone._values = values
        clone._fingerprint = None
        clone._edge_cache = self._edge_cache
        return clone

    def with_colors(self, color_fn: Callable[[Edge], Hashable]) -> "DiGraph":
        """A copy with each edge re-colored by ``color_fn(edge)``."""
        specs = [(e.source, e.target, color_fn(e)) for e in self.edges]
        return DiGraph(self.n, specs, values=self._values)

    def with_port_colors(self) -> "DiGraph":
        """Color every edge with its output port at the source.

        This realizes the *output port awareness* structure ``G_op`` of
        Section 3: a local output labelling where the out-edges of each
        vertex get distinct labels ``0 .. d⁻-1``.
        """
        return self.with_colors(self.port_of)

    def with_outdegree_values(self) -> "DiGraph":
        """The valued graph ``G_od``: each vertex valued with its outdegree."""
        return self.with_values([self.outdegree(v) for v in self.vertices()])

    def with_pair_values(self, extra: Sequence[Any]) -> "DiGraph":
        """Value each vertex ``v`` with ``(current_value(v), extra[v])``."""
        if len(extra) != self.n:
            raise ValueError(f"got {len(extra)} extra values for {self.n} vertices")
        base = self._values if self._values is not None else (None,) * self.n
        return self.with_values([(base[v], extra[v]) for v in self.vertices()])

    def reverse(self) -> "DiGraph":
        """The graph with every edge reversed (colors preserved)."""
        specs = zip(self._targets, self._sources, self.edge_colors())
        return DiGraph(self.n, specs, values=self._values)

    def symmetric_closure(self) -> "DiGraph":
        """Add the reverse of every edge that lacks one (simple semantics).

        Parallel-edge multiplicities are not matched; this is the closure of
        the *support* relation, used to turn arbitrary graphs into members
        of the symmetric network class.
        """
        present = set(zip(self._sources, self._targets))
        specs = self.edge_specs()
        for (s, t) in sorted(present):
            if (t, s) not in present:
                specs.append((t, s, None))
        return DiGraph(self.n, specs, values=self._values)

    def simple_support(self) -> "DiGraph":
        """The simple graph with one edge per distinct ``(source, target)``."""
        specs = dict.fromkeys(zip(self._sources, self._targets))
        return DiGraph(self.n, specs, values=self._values)

    # ------------------------------------------------------------------ #
    # matrices
    # ------------------------------------------------------------------ #

    def adjacency_matrix(self) -> List[List[int]]:
        """``A[i][j]`` = number of edges ``i -> j`` (pure-Python ints)."""
        a = [[0] * self.n for _ in range(self.n)]
        for s, t in zip(self._sources, self._targets):
            a[s][t] += 1
        return a

    # ------------------------------------------------------------------ #
    # dunder / misc
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:
        valued = "" if self._values is None else ", valued"
        return f"DiGraph(n={self.n}, m={self.num_edges}{valued})"

    def __eq__(self, other: object) -> bool:
        """Structural equality: same vertex count, edge multiset, values.

        This is equality *on the nose* (vertex ids matter); for equality up
        to renaming use :func:`repro.graphs.isomorphism.are_isomorphic`.
        """
        if not isinstance(other, DiGraph):
            return NotImplemented
        if self.n != other.n or self._values != other._values:
            return False
        return self._edge_keys() == other._edge_keys()

    def __hash__(self) -> int:
        return hash((self.n, self._values, tuple(self._edge_keys())))

    def _edge_keys(self) -> List[Tuple[int, int, str]]:
        """The sorted edge multiset, colors spelled by ``canonical_repr``
        (the fingerprint's spelling: equal frozensets key equally)."""
        from repro.core.metrics import canonical_repr  # repro.core imports this module

        spelled = map(canonical_repr, self.edge_colors())
        return sorted(zip(self._sources, self._targets, spelled))

    def __getstate__(self):
        # The edge cache may hold a hashlib object, which does not pickle,
        # and records a copy can rebuild; it starts with an empty cache
        # and refills it on demand.
        state = {name: getattr(self, name) for name in self.__slots__}
        state["_edge_cache"] = EdgeCache()
        return None, state

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices())

    def degree_signature(self) -> List[Tuple[int, int]]:
        """Per-vertex ``(indegree, outdegree)`` pairs."""
        return [(self.indegree(v), self.outdegree(v)) for v in self.vertices()]
