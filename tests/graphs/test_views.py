"""Tests for hash-consed in-views (Boldi–Vigna universal structures)."""

from repro.graphs.builders import bidirectional_ring, directed_ring, star_graph
from repro.graphs.views import (
    ViewBuilder,
    all_views,
    dag_size,
    nodes_within_levels,
    tree_size,
    view_of,
)


class TestInterning:
    def test_equal_views_are_identical(self):
        b = ViewBuilder()
        leaf1 = b.leaf("x")
        leaf2 = b.leaf("x")
        assert leaf1 is leaf2

    def test_child_order_is_canonical(self):
        b = ViewBuilder()
        x, y = b.leaf("x"), b.leaf("y")
        n1 = b.node("r", [(None, x), (None, y)])
        n2 = b.node("r", [(None, y), (None, x)])
        assert n1 is n2

    def test_multiplicity_matters(self):
        b = ViewBuilder()
        x = b.leaf("x")
        once = b.node("r", [(None, x)])
        twice = b.node("r", [(None, x), (None, x)])
        assert once is not twice

    def test_colors_distinguish(self):
        b = ViewBuilder()
        x = b.leaf("x")
        assert b.node("r", [(0, x)]) is not b.node("r", [(1, x)])

    def test_depth(self):
        b = ViewBuilder()
        leaf = b.leaf("x")
        assert leaf.depth == 0
        assert b.node("r", [(None, leaf)]).depth == 1


class TestTruncation:
    def test_truncate_to_leaf(self):
        b = ViewBuilder()
        deep = b.node("r", [(None, b.node("m", [(None, b.leaf("x"))]))])
        cut = b.truncate(deep, 0)
        assert cut is b.leaf("r")

    def test_truncate_noop_when_shallow(self):
        b = ViewBuilder()
        v = b.node("r", [(None, b.leaf("x"))])
        assert b.truncate(v, 5) is v

    def test_truncate_depth(self):
        b = ViewBuilder()
        v = b.leaf("x")
        for label in "abcd":
            v = b.node(label, [(None, v)])
        assert b.truncate(v, 2).depth == 2


class TestGraphViews:
    def test_anonymous_symmetric_vertices_share_views(self, valued_ring6):
        views = all_views(valued_ring6, depth=10)
        # Alternating values on an even ring: exactly two view classes.
        assert len({v.uid for v in views}) == 2
        assert views[0] is views[2] is views[4]
        assert views[1] is views[3] is views[5]

    def test_view_of_matches_all_views(self):
        g = star_graph(4, values=["h", "l", "l", "l"])
        b = ViewBuilder()
        singles = [view_of(g, v, 6, builder=b) for v in g.vertices()]
        batch = all_views(g, 6, builder=b)
        assert all(s is t for s, t in zip(singles, batch))

    def test_leaves_share_view_hub_does_not(self):
        g = star_graph(5, values=["h", "l", "l", "l", "l"])
        views = all_views(g, depth=8)
        assert len({views[i].uid for i in range(1, 5)}) == 1
        assert views[0] is not views[1]

    def test_port_views_distinguish_directions(self):
        # On an unvalued directed ring all views agree; with ports the
        # labels are still rotation-invariant so they agree too.
        g = directed_ring(4)
        plain = all_views(g, 6)
        assert len({v.uid for v in plain}) == 1

    def test_fanin_matches_indegree(self):
        g = bidirectional_ring(5)
        v0 = view_of(g, 0, 3)
        assert len(v0.children) == g.indegree(0)


class TestSizes:
    def test_dag_vs_tree_size(self):
        g = bidirectional_ring(6)
        v = view_of(g, 0, 10)
        assert dag_size(v) <= 6 * 11  # at most n distinct nodes per level
        assert tree_size(v) > dag_size(v)  # exponential unfolding

    def test_tree_size_exact_small(self):
        b = ViewBuilder()
        x = b.leaf("x")
        n = b.node("r", [(None, x), (None, x)])
        assert tree_size(n) == 3
        assert dag_size(n) == 2


class TestLevelCollection:
    def test_levels_and_dedup(self):
        g = bidirectional_ring(4, values=[0, 1, 0, 1])
        v = view_of(g, 0, 8)
        pairs = nodes_within_levels(v, 2)
        assert pairs[0] == (0, v)
        levels = [lv for lv, _ in pairs]
        assert levels == sorted(levels)
        uids = [node.uid for _, node in pairs]
        assert len(uids) == len(set(uids))
