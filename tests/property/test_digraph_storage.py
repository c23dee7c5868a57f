"""Property test: ``DiGraph``'s integer edge storage is invisible.

A graph keeps its edges as integer arrays and builds ``Edge`` records and
port numbers only when something reads them.  Every public reading must
equal the eager construction — one record per edge, adjacency lists of
records and a port map, all built up front — restated inline below as
the reference, over drawn multigraphs with parallel edges, self-loops
(with and without ``ensure_self_loops``), ``None``, int, ``Fraction`` and
port colors, valued and unvalued graphs and their value-sharing clones.
"""

import pickle
from fractions import Fraction
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import canonical_repr
from repro.graphs.digraph import DiGraph, Edge

COLORS = [None, 0, 1, 2, Fraction(1, 2), Fraction(2, 1)]
VALUES = [0, 1, "x", Fraction(1, 3), (1, None)]


@st.composite
def drawn_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    vertex = st.integers(0, n - 1)
    spec = st.one_of(
        st.tuples(vertex, vertex),
        st.tuples(vertex, vertex, st.sampled_from(COLORS)),
    )
    specs = draw(st.lists(spec, max_size=3 * n))
    # Parallel edges and self-loops on purpose, beyond what chance draws.
    if specs and draw(st.booleans()):
        specs.append(specs[0])
    if draw(st.booleans()):
        v = draw(vertex)
        specs.append((v, v))
    values = draw(st.one_of(st.none(), st.lists(st.sampled_from(VALUES), min_size=n, max_size=n)))
    return SimpleNamespace(
        n=n,
        specs=specs,
        values=values,
        ensure=draw(st.booleans()),
        ports=draw(st.booleans()),
        clone=draw(st.sampled_from(["none", "with_values", "without_values"])),
        clone_values=draw(st.lists(st.sampled_from(VALUES), min_size=n, max_size=n)),
    )


def eager(n, specs, values, ensure):
    """The eager construction: every record, adjacency list and port up front."""
    edges = []
    for spec in specs:
        s, t = spec[0], spec[1]
        edges.append(Edge(len(edges), s, t, spec[2] if len(spec) == 3 else None))
    if ensure:
        looped = {e.source for e in edges if e.source == e.target}
        for v in range(n):
            if v not in looped:
                edges.append(Edge(len(edges), v, v, None))
    out = [tuple(e for e in edges if e.source == v) for v in range(n)]
    inn = [tuple(e for e in edges if e.target == v) for v in range(n)]
    ports = {}
    for v in range(n):
        for port, e in enumerate(out[v]):
            ports[e.index] = port
    values = None if values is None else tuple(values)
    return SimpleNamespace(n=n, edges=tuple(edges), out=out, inn=inn, ports=ports, values=values)


def with_port_colors(ref):
    specs = [(e.source, e.target, ref.ports[e.index]) for e in ref.edges]
    return eager(ref.n, specs, ref.values, False)


def build(case):
    """The graph under test and its eager reference."""
    g = DiGraph(case.n, case.specs, values=case.values, ensure_self_loops=case.ensure)
    ref = eager(case.n, case.specs, case.values, case.ensure)
    if case.ports:
        g, ref = g.with_port_colors(), with_port_colors(ref)
    if case.clone == "with_values":
        g = g.with_values(case.clone_values)
        ref.values = tuple(case.clone_values)
    elif case.clone == "without_values":
        g = g.without_values()
        ref.values = None
    return g, ref


def assert_matches(g, ref):
    n = ref.n
    assert g.n == n and g.values == ref.values
    assert g.edges == ref.edges
    assert g.num_edges == len(ref.edges)
    assert g.edge_specs() == [(e.source, e.target, e.color) for e in ref.edges]
    assert g.edge_colors() == tuple(e.color for e in ref.edges)
    assert [g.port_of(e) for e in g.edges] == [ref.ports[e.index] for e in ref.edges]
    for v in range(n):
        assert g.out_edges(v) == ref.out[v]
        assert g.in_edges(v) == ref.inn[v]
        assert g.out_edge_ids(v) == tuple(e.index for e in ref.out[v])
        assert g.in_edge_ids(v) == tuple(e.index for e in ref.inn[v])
        assert g.out_neighbors(v) == [e.target for e in ref.out[v]]
        assert g.in_neighbors(v) == [e.source for e in ref.inn[v]]
        assert g.outdegree(v) == len(ref.out[v])
        assert g.indegree(v) == len(ref.inn[v])
    loops = {e.source for e in ref.edges if e.source == e.target}
    assert g.all_have_self_loops() == (len(loops) == n)
    rebuilt = DiGraph(n, [(e.source, e.target, e.color) for e in ref.edges], values=ref.values)
    assert g == rebuilt
    keys = sorted((e.source, e.target, canonical_repr(e.color)) for e in ref.edges)
    assert hash(g) == hash((n, ref.values, tuple(keys)))


@settings(max_examples=150, deadline=None)
@given(case=drawn_graphs())
def test_integer_storage_reads_like_eager_records(case):
    g, ref = build(case)
    assert_matches(g, ref)


@settings(max_examples=60, deadline=None)
@given(case=drawn_graphs())
def test_pickle_round_trip(case):
    g, ref = build(case)
    assert_matches(pickle.loads(pickle.dumps(g)), ref)
    assert_matches(g, ref)
    # A copy of a graph whose records and ports were built reads the same.
    assert_matches(pickle.loads(pickle.dumps(g)), ref)


@settings(max_examples=60, deadline=None)
@given(case=drawn_graphs(), clone_first=st.booleans())
def test_clones_share_one_record_tuple(case, clone_first):
    g = DiGraph(case.n, case.specs, values=case.values, ensure_self_loops=case.ensure)
    clone = g.with_values(case.clone_values)
    bare = g.without_values()
    first, second = (clone, g) if clone_first else (g, clone)
    assert first.edges is second.edges
    assert bare.edges is g.edges
    for v in range(case.n):
        assert first.in_edges(v) is second.in_edges(v)
        assert first.out_edges(v) is bare.out_edges(v)
