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
    builds shares its source's edges and therefore this cell, so each
    valuation of one edge structure pays for these once:

    * ``digest`` — the content fingerprint's edge digest
      (:mod:`repro.core.memo` fills it);
    * ``color_ids``, ``num_colors``, ``out_keys`` — the refiner's
      canonical color id per edge and, per vertex, one int per out-edge
      (:mod:`repro.fibrations.minimum_base` fills them).
    """

    __slots__ = ("digest", "color_ids", "num_colors", "out_keys")

    def __init__(self):
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
    """

    __slots__ = (
        "n",
        "_edges",
        "_values",
        "_out",
        "_in",
        "_out_ports",
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
        edge_list: List[Edge] = []
        for spec in edges:
            if len(spec) == 2:
                s, t = spec
                c: Hashable = None
            elif len(spec) == 3:
                s, t, c = spec
            else:
                raise ValueError(f"edge spec must be (s, t) or (s, t, color), got {spec!r}")
            if not (0 <= s < n and 0 <= t < n):
                raise ValueError(f"edge ({s}, {t}) out of range for n={n}")
            edge_list.append(Edge(len(edge_list), s, t, c))
        if ensure_self_loops:
            have_loop = [False] * n
            for e in edge_list:
                if e.source == e.target:
                    have_loop[e.source] = True
            for v in range(n):
                if not have_loop[v]:
                    edge_list.append(Edge(len(edge_list), v, v, None))
        self._edges: Tuple[Edge, ...] = tuple(edge_list)
        if values is not None:
            values = tuple(values)
            if len(values) != n:
                raise ValueError(f"got {len(values)} values for {n} vertices")
        self._values: Optional[Tuple[Any, ...]] = values

        out: List[List[Edge]] = [[] for _ in range(n)]
        inn: List[List[Edge]] = [[] for _ in range(n)]
        for e in self._edges:
            out[e.source].append(e)
            inn[e.target].append(e)
        self._out: Tuple[Tuple[Edge, ...], ...] = tuple(tuple(es) for es in out)
        self._in: Tuple[Tuple[Edge, ...], ...] = tuple(tuple(es) for es in inn)
        # Port numbering: the ℓ-th out-edge of a vertex (in edge-list order)
        # is its port ℓ (0-based).  Static by construction.
        ports: Dict[int, int] = {}
        for v in range(n):
            for port, e in enumerate(self._out[v]):
                ports[e.index] = port
        self._out_ports: Dict[int, int] = ports
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
        return self._edges

    @property
    def num_edges(self) -> int:
        return len(self._edges)

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
        return self._out[v]

    def in_edges(self, v: int) -> Tuple[Edge, ...]:
        return self._in[v]

    def out_neighbors(self, v: int) -> List[int]:
        """Targets of ``v``'s out-edges (with multiplicity)."""
        return [e.target for e in self._out[v]]

    def in_neighbors(self, v: int) -> List[int]:
        """Sources of ``v``'s in-edges (with multiplicity)."""
        return [e.source for e in self._in[v]]

    def outdegree(self, v: int) -> int:
        """Number of out-edges of ``v`` — the paper's ``d⁻``, self-loop included."""
        return len(self._out[v])

    def indegree(self, v: int) -> int:
        return len(self._in[v])

    def port_of(self, edge: Edge) -> int:
        """The output port (0-based) that ``edge`` occupies at its source."""
        return self._out_ports[edge.index]

    def edge_multiplicity(self, source: int, target: int) -> int:
        """Number of parallel ``source -> target`` edges."""
        return sum(1 for e in self._out[source] if e.target == target)

    def has_edge(self, source: int, target: int) -> bool:
        return any(e.target == target for e in self._out[source])

    def has_self_loop(self, v: int) -> bool:
        return self.has_edge(v, v)

    def all_have_self_loops(self) -> bool:
        """Whether every vertex has a self-loop (§2.1), in one pass over the edges."""
        loops = [False] * self.n
        for e in self._edges:
            if e.source == e.target:
                loops[e.source] = True
        return all(loops)

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #

    def edge_specs(self) -> List[Tuple[int, int, Hashable]]:
        """The edge list as plain tuples, suitable for re-construction."""
        return [(e.source, e.target, e.color) for e in self._edges]

    def with_values(self, values: Sequence[Any]) -> "DiGraph":
        """This graph carrying the given vertex valuation.

        The result shares this graph's immutable edge tuple, adjacency,
        port map and :class:`EdgeCache`, so building it costs O(n),
        not an O(m) rebuild.  It is equal to
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
        clone._edges = self._edges
        clone._values = values
        clone._out = self._out
        clone._in = self._in
        clone._out_ports = self._out_ports
        clone._fingerprint = None
        clone._edge_cache = self._edge_cache
        return clone

    def with_colors(self, color_fn: Callable[[Edge], Hashable]) -> "DiGraph":
        """A copy with each edge re-colored by ``color_fn(edge)``."""
        specs = [(e.source, e.target, color_fn(e)) for e in self._edges]
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
        specs = [(e.target, e.source, e.color) for e in self._edges]
        return DiGraph(self.n, specs, values=self._values)

    def symmetric_closure(self) -> "DiGraph":
        """Add the reverse of every edge that lacks one (simple semantics).

        Parallel-edge multiplicities are not matched; this is the closure of
        the *support* relation, used to turn arbitrary graphs into members
        of the symmetric network class.
        """
        present = {(e.source, e.target) for e in self._edges}
        specs = self.edge_specs()
        for (s, t) in sorted(present):
            if (t, s) not in present:
                specs.append((t, s, None))
        return DiGraph(self.n, specs, values=self._values)

    def simple_support(self) -> "DiGraph":
        """The simple graph with one edge per distinct ``(source, target)``."""
        seen = set()
        specs = []
        for e in self._edges:
            key = (e.source, e.target)
            if key not in seen:
                seen.add(key)
                specs.append((e.source, e.target, None))
        return DiGraph(self.n, specs, values=self._values)

    # ------------------------------------------------------------------ #
    # matrices
    # ------------------------------------------------------------------ #

    def adjacency_matrix(self) -> List[List[int]]:
        """``A[i][j]`` = number of edges ``i -> j`` (pure-Python ints)."""
        a = [[0] * self.n for _ in range(self.n)]
        for e in self._edges:
            a[e.source][e.target] += 1
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

        return sorted((e.source, e.target, canonical_repr(e.color)) for e in self._edges)

    def __getstate__(self):
        # The edge cache may hold a hashlib object, which does not pickle;
        # a copy starts with an empty cache and refills it on demand.
        state = {name: getattr(self, name) for name in self.__slots__}
        state["_edge_cache"] = EdgeCache()
        return None, state

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices())

    def degree_signature(self) -> List[Tuple[int, int]]:
        """Per-vertex ``(indegree, outdegree)`` pairs."""
        return [(self.indegree(v), self.outdegree(v)) for v in self.vertices()]
