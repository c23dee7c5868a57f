"""Unit tests for the directed multigraph core."""

import pytest

from repro.graphs.digraph import DiGraph, Edge


class TestConstruction:
    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            DiGraph(0)

    def test_single_vertex(self):
        g = DiGraph(1)
        assert g.n == 1
        assert g.num_edges == 0

    def test_edge_out_of_range(self):
        with pytest.raises(ValueError):
            DiGraph(2, [(0, 2)])

    def test_bad_edge_spec(self):
        with pytest.raises(ValueError):
            DiGraph(2, [(0,)])

    def test_values_length_checked(self):
        with pytest.raises(ValueError):
            DiGraph(2, [], values=[1])

    def test_parallel_edges_kept(self):
        g = DiGraph(2, [(0, 1), (0, 1)])
        assert g.num_edges == 2
        assert g.edge_multiplicity(0, 1) == 2

    def test_ensure_self_loops(self):
        g = DiGraph(3, [(0, 1), (1, 1)], ensure_self_loops=True)
        assert g.all_have_self_loops()
        # The existing self-loop at 1 is not duplicated.
        assert g.edge_multiplicity(1, 1) == 1

    def test_all_have_self_loops_needs_every_vertex(self):
        g = DiGraph(3, [(0, 0), (0, 2), (2, 0), (1, 1)])
        assert not g.all_have_self_loops()
        assert [g.has_self_loop(v) for v in g.vertices()] == [True, True, False]
        assert DiGraph(3, g.edge_specs() + [(2, 2)]).all_have_self_loops()

    def test_colored_edges(self):
        g = DiGraph(2, [(0, 1, "red"), (1, 0, "blue")])
        colors = {e.color for e in g.edges}
        assert colors == {"red", "blue"}


class TestDegreesAndNeighbors:
    def test_degrees(self):
        g = DiGraph(3, [(0, 1), (0, 2), (1, 2)])
        assert g.outdegree(0) == 2
        assert g.indegree(2) == 2
        assert g.outdegree(2) == 0

    def test_neighbors_with_multiplicity(self):
        g = DiGraph(2, [(0, 1), (0, 1)])
        assert g.out_neighbors(0) == [1, 1]
        assert g.in_neighbors(1) == [0, 0]

    def test_self_loop_counts_in_both_degrees(self):
        g = DiGraph(1, [(0, 0)])
        assert g.outdegree(0) == 1
        assert g.indegree(0) == 1

    def test_degree_signature(self):
        g = DiGraph(2, [(0, 1)])
        assert g.degree_signature() == [(0, 1), (1, 0)]


class TestPorts:
    def test_ports_follow_out_edge_order(self):
        g = DiGraph(3, [(0, 1), (0, 2), (1, 0)])
        e01, e02, _ = g.edges
        assert g.port_of(e01) == 0
        assert g.port_of(e02) == 1

    def test_with_port_colors(self):
        g = DiGraph(3, [(0, 1), (0, 2), (1, 0)]).with_port_colors()
        by_target = {e.target: e.color for e in g.out_edges(0)}
        assert by_target == {1: 0, 2: 1}


class TestDerivedGraphs:
    def test_with_values(self):
        g = DiGraph(2, [(0, 1)]).with_values(["a", "b"])
        assert g.value(0) == "a"
        assert g.without_values().values is None

    def test_with_outdegree_values(self):
        g = DiGraph(2, [(0, 1), (1, 0), (0, 0)]).with_outdegree_values()
        assert g.values == (2, 1)

    def test_reverse(self):
        g = DiGraph(2, [(0, 1, "c")])
        r = g.reverse()
        assert r.has_edge(1, 0)
        assert not r.has_edge(0, 1)
        assert r.edges[0].color == "c"

    def test_reverse_involution(self):
        g = DiGraph(3, [(0, 1), (1, 2), (2, 0), (0, 0)])
        assert g.reverse().reverse() == g

    def test_symmetric_closure(self):
        g = DiGraph(3, [(0, 1), (1, 2)]).symmetric_closure()
        assert g.has_edge(1, 0)
        assert g.has_edge(2, 1)

    def test_simple_support_collapses_parallels(self):
        g = DiGraph(2, [(0, 1), (0, 1), (1, 0)]).simple_support()
        assert g.num_edges == 2

    def test_with_pair_values(self):
        g = DiGraph(2, [(0, 1)], values=["a", "b"]).with_pair_values([1, 2])
        assert g.values == (("a", 1), ("b", 2))


class TestStructureSharing:
    """with_values/without_values share the edge structure, and the
    result is indistinguishable from a rebuild from edge specs."""

    def graph(self):
        return DiGraph(
            4,
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (0, 0), (2, 2)],
            values=[5, 6, 7, 8],
        ).with_port_colors()

    def test_shared_graph_equals_rebuild(self):
        from repro.core.memo import graph_fingerprint

        g = self.graph()
        graph_fingerprint(g)  # the edge digest is then reused below
        values = ["a", ("b", 1), None, frozenset([2, 1])]
        shared = g.with_values(values)
        fresh = DiGraph(g.n, g.edge_specs(), values=values)
        assert shared == fresh and hash(shared) == hash(fresh)
        assert graph_fingerprint(shared) == graph_fingerprint(fresh)
        assert [shared.port_of(e) for e in shared.edges] == [
            fresh.port_of(e) for e in fresh.edges
        ]
        assert [shared.in_edges(v) for v in shared.vertices()] == [
            fresh.in_edges(v) for v in fresh.vertices()
        ]
        assert shared.edges is g.edges
        assert graph_fingerprint(g) != graph_fingerprint(shared)

    def test_without_values_shares_too(self):
        from repro.core.memo import graph_fingerprint

        g = self.graph()
        bare = g.without_values()
        assert bare.values is None and bare.edges is g.edges
        assert bare == DiGraph(g.n, g.edge_specs())
        assert graph_fingerprint(bare) == graph_fingerprint(DiGraph(g.n, g.edge_specs()))

    def test_wrong_length_valuation_rejected(self):
        g = self.graph()
        with pytest.raises(ValueError):
            g.with_values([1, 2, 3])
        with pytest.raises(ValueError):
            g.with_values([1, 2, 3, 4, 5])

    def test_fingerprinted_graph_pickles(self):
        import pickle

        from repro.core.memo import graph_fingerprint

        g = self.graph()
        fp = graph_fingerprint(g)
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and copy.edges is not g.edges
        assert graph_fingerprint(copy) == fp
        assert graph_fingerprint(copy.with_values([0, 0, 0, 0])) == graph_fingerprint(
            g.with_values([0, 0, 0, 0])
        )


class TestMatrixAndEquality:
    def test_adjacency_matrix_counts_multiplicity(self):
        g = DiGraph(2, [(0, 1), (0, 1), (1, 1)])
        assert g.adjacency_matrix() == [[0, 2], [0, 1]]

    def test_structural_equality_ignores_edge_order(self):
        g = DiGraph(2, [(0, 1), (1, 0)])
        h = DiGraph(2, [(1, 0), (0, 1)])
        assert g == h
        assert hash(g) == hash(h)

    def test_set_colors_compare_by_content(self):
        # Equal frozensets may print in different orders; equality and
        # hashing key colors by canonical repr, as the fingerprint does.
        g = DiGraph(2, [(0, 1, frozenset([1, 9]))])
        h = DiGraph(2, [(0, 1, frozenset([9, 1]))])
        assert g == h
        assert hash(g) == hash(h)
        assert g != DiGraph(2, [(0, 1, frozenset([1, 8]))])

    def test_inequality_on_values(self):
        g = DiGraph(2, [(0, 1)], values=[1, 2])
        h = DiGraph(2, [(0, 1)], values=[2, 1])
        assert g != h

    def test_edge_equality(self):
        assert Edge(0, 1, 2, None) == Edge(0, 1, 2, None)
        assert Edge(0, 1, 2, "a") != Edge(0, 1, 2, "b")
