"""Tests for the coarsest equitable partition and minimum bases (§3.2)."""

import pytest

from repro.fibrations.fibration import is_fibration
from repro.fibrations.minimum_base import (
    equitable_partition,
    minimum_base,
    quotient_by_partition,
)
from repro.fibrations.prime import is_fibration_prime
from repro.graphs.builders import (
    bidirectional_ring,
    complete_graph,
    de_bruijn_graph,
    directed_ring,
    random_strongly_connected,
    star_graph,
    torus,
)
from repro.graphs.digraph import DiGraph
from repro.graphs.isomorphism import are_isomorphic


class TestEquitablePartition:
    def test_unvalued_ring_collapses_fully(self):
        classes = equitable_partition(bidirectional_ring(6))
        assert len(set(classes)) == 1

    def test_values_refine(self):
        classes = equitable_partition(bidirectional_ring(6, values=[1, 2, 1, 2, 1, 2]))
        assert len(set(classes)) == 2

    def test_asymmetric_values_fully_refine(self):
        g = directed_ring(4, values=[1, 2, 3, 4])
        assert len(set(equitable_partition(g))) == 4

    def test_star_two_classes(self):
        classes = equitable_partition(star_graph(5))
        assert len(set(classes)) == 2
        assert classes[1] == classes[2] == classes[3] == classes[4]
        assert classes[0] != classes[1]

    def test_torus_collapses(self):
        # Vertex-transitive and unvalued: single class.
        assert len(set(equitable_partition(torus(3, 3)))) == 1

    def test_colors_refine(self):
        plain = DiGraph(2, [(0, 1), (1, 0), (0, 0), (1, 1)])
        assert len(set(equitable_partition(plain))) == 1
        colored = DiGraph(2, [(0, 1, "a"), (1, 0, "b"), (0, 0, "s"), (1, 1, "s")])
        assert len(set(equitable_partition(colored))) == 2


class TestQuotient:
    def test_quotient_is_fibration(self, valued_ring6):
        mb = minimum_base(valued_ring6)
        assert is_fibration(mb.fibration)

    def test_non_equitable_rejected(self):
        g = star_graph(4)
        for verify in (True, False):
            with pytest.raises(ValueError, match="not equitable"):
                quotient_by_partition(g, [0, 0, 0, 0], verify=verify)  # hub and leaves differ

    def test_value_refinement_enforced(self):
        g = DiGraph(2, [(0, 1), (1, 0), (0, 0), (1, 1)], values=["a", "b"])
        with pytest.raises(ValueError):
            quotient_by_partition(g, [0, 0])

    def test_partition_length_checked(self):
        with pytest.raises(ValueError):
            quotient_by_partition(directed_ring(3), [0, 0])

    def test_noncontiguous_labels_accepted(self):
        g = bidirectional_ring(4, values=[1, 2, 1, 2])
        mb = quotient_by_partition(g, [7, 3, 7, 3])
        assert mb.base.n == 2

    def test_fibre_accessors(self, valued_ring6):
        mb = minimum_base(valued_ring6)
        assert sorted(sum((mb.fibre(i) for i in range(mb.base.n)), [])) == list(range(6))
        assert mb.fibre_sizes == [3, 3]


class TestMinimumBase:
    def test_base_is_prime(self):
        for g in (
            bidirectional_ring(6, values=[1, 2, 1, 2, 1, 2]),
            star_graph(5),
            de_bruijn_graph(2, 3),
            random_strongly_connected(8, seed=1),
        ):
            mb = minimum_base(g)
            assert is_fibration_prime(mb.base)

    def test_idempotent(self):
        g = star_graph(6)
        base = minimum_base(g).base
        again = minimum_base(base).base
        assert are_isomorphic(base, again)

    def test_complete_graph_collapses_to_point(self):
        mb = minimum_base(complete_graph(5))
        assert mb.base.n == 1
        # The point base carries all n - 1 cross edges plus the self-loop.
        assert mb.base.num_edges == 5

    def test_base_preserves_values(self, valued_ring6):
        mb = minimum_base(valued_ring6)
        assert sorted(mb.base.values) == [1, 2]

    def test_base_edge_multiplicities(self):
        # Star: hub hears each of the k leaves -> base edge leaf->hub has
        # multiplicity k.
        g = star_graph(4, values=["h", "l", "l", "l"])
        mb = minimum_base(g)
        hub = mb.base.values.index("h")
        leaf = 1 - hub
        assert mb.base.edge_multiplicity(leaf, hub) == 3
        assert mb.base.edge_multiplicity(hub, leaf) == 1

    def test_isomorphism_invariance(self):
        # Relabeling vertices leaves the base unchanged up to isomorphism.
        g = random_strongly_connected(7, seed=5).with_values([1, 1, 2, 2, 1, 2, 1])
        perm = [3, 0, 6, 2, 5, 1, 4]
        specs = [(perm[e.source], perm[e.target], e.color) for e in g.edges]
        values = [None] * 7
        for v in g.vertices():
            values[perm[v]] = g.value(v)
        h = DiGraph(7, specs, values=values)
        assert are_isomorphic(minimum_base(g).base, minimum_base(h).base)


class TestEqualityKeying:
    """Colors and values key by equality (PR 1's ``unanimous_output``
    convention), not raw ``repr`` — ``Fraction(2, 1)`` and ``2`` are the
    same payload."""

    def test_fraction_and_int_values_share_a_class(self):
        from fractions import Fraction

        g = bidirectional_ring(6, values=[Fraction(2, 1), 2, 2.0, Fraction(2, 1), 2, 2.0])
        classes = equitable_partition(g)
        assert len(set(classes)) == 1
        assert minimum_base(g).base.n == 1

    def test_fraction_colored_graph_matches_int_colored_twin(self):
        from fractions import Fraction

        specs_frac = [(0, 1, Fraction(1, 1)), (1, 2, 2), (2, 0, Fraction(1, 1)), (0, 0, 2)]
        specs_int = [(0, 1, 1), (1, 2, 2), (2, 0, 1), (0, 0, 2)]
        g_frac = DiGraph(3, specs_frac, values=[5, 5, 5])
        g_int = DiGraph(3, specs_int, values=[5, 5, 5])
        # Same partition (labels may differ: canonical numbering keys on
        # the reprs of the representatives actually present).
        from repro.fibrations.minimum_base import same_partition

        assert same_partition(equitable_partition(g_frac), equitable_partition(g_int))
        assert minimum_base(g_frac).base.n == minimum_base(g_int).base.n

    def test_quotient_accepts_mixed_representations(self):
        from fractions import Fraction

        # One class whose in-edges mix Fraction(1, 1)- and 1.0-colored
        # edges: the quotient must still extend to a valid fibration
        # (regression — repr-keyed morphism matching used to reject it).
        g = DiGraph(
            4,
            [(0, 1, Fraction(1, 1)), (0, 2, 1.0), (1, 0, None), (2, 0, None), (3, 3, None)],
            values=["a", "b", "b", "c"],
        )
        mb = quotient_by_partition(g, equitable_partition(g))
        assert mb.fibration.is_valid()

    def test_equal_frozensets_key_equally(self):
        a = frozenset(["x", "y", "zz"])
        b = frozenset(["zz", "y", "x"])
        g = bidirectional_ring(4, values=[a, b, a, b])
        assert len(set(equitable_partition(g))) == 1
