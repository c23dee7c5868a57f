"""Property tests for the worklist refiner and the memo layer (PR 4).

Two families of guarantees:

* the Hopcroft/Paige–Tarjan-style worklist refiner induces exactly the
  partition of the retained naive reference, its canonical labels are
  invariant under vertex relabeling, and its output quotients cleanly;
* the quotient's one-pass fibration is the one the general
  :func:`~repro.fibrations.morphism.morphism_from_vertex_map` builds, and
  it refuses a partition that is not equitable even unverified;
* memoization is invisible: whole Table-1/2 documents serialize to the
  same bytes with the memo layer on or off.
"""

import json
import os
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.tables import reproduce_table1, reproduce_table2
from repro.core.memo import clear_memos, memo_disabled
from repro.fibrations.minimum_base import (
    equitable_partition,
    equitable_partition_reference,
    quotient_by_partition,
    same_partition,
)
from repro.fibrations.keys import equality_key
from repro.fibrations.morphism import morphism_from_vertex_map
from repro.graphs.digraph import DiGraph

# Colors/values deliberately mix ==-equal payloads with different reprs
# (Fraction(1, 1) vs 1.0, True vs 1) and unhashable containers.
COLORS = [None, 0, 1, "a", Fraction(1, 1), 1.0, frozenset({1, 2})]
VALUES = [0, 1, True, Fraction(2, 1), 2, "x", (1, True)]

random_digraphs = st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.sampled_from(COLORS),
            ),
            max_size=3 * n,
        ),
        st.one_of(
            st.none(),
            st.lists(st.sampled_from(VALUES), min_size=n, max_size=n),
        ),
    )
)


def build(params) -> DiGraph:
    n, specs, values = params
    return DiGraph(n, specs, values=values)


class TestWorklistAgainstReference:
    @settings(max_examples=120, deadline=None)
    @given(random_digraphs)
    def test_same_partition_as_naive_reference(self, params):
        g = build(params)
        assert same_partition(equitable_partition(g), equitable_partition_reference(g))

    @settings(max_examples=60, deadline=None)
    @given(random_digraphs)
    def test_refiner_output_quotients_cleanly(self, params):
        g = build(params)
        classes = equitable_partition(g)
        mb = quotient_by_partition(g, classes)  # verify=True must accept
        assert mb.fibration.is_valid()
        assert sum(mb.fibre_sizes) == g.n

    @settings(max_examples=60, deadline=None)
    @given(random_digraphs, st.randoms(use_true_random=False))
    def test_canonical_labels_are_relabel_invariant(self, params, rnd):
        n, specs, values = params
        g = build(params)
        perm = list(range(n))
        rnd.shuffle(perm)
        specs2 = [(perm[s], perm[t], c) for (s, t, c) in specs]
        values2 = None
        if values is not None:
            values2 = [None] * n
            for v in range(n):
                values2[perm[v]] = values[v]
        g2 = DiGraph(n, specs2, values=values2)
        a, a2 = equitable_partition(g), equitable_partition(g2)
        assert [a2[perm[v]] for v in range(n)] == a


class TestOnePassFibration:
    @settings(max_examples=120, deadline=None)
    @given(random_digraphs)
    def test_quotient_fibration_is_the_general_one(self, params):
        g = build(params)
        mb = quotient_by_partition(g, equitable_partition(g), verify=False)
        assert mb.fibration.validate() == []
        general = morphism_from_vertex_map(g, mb.base, mb.classes)
        assert general is not None
        assert mb.fibration.edge_map == general.edge_map

    @settings(max_examples=120, deadline=None)
    @given(random_digraphs, st.data())
    def test_unverified_quotient_refuses_unequal_in_edges(self, params, data):
        """Merging two of the refiner's classes: the unverified quotient
        raises exactly when some vertex's in-edges (source class, color)
        differ from its class representative's."""
        g = build(params)
        classes = equitable_partition(g)
        k = len(set(classes))
        a = data.draw(st.integers(0, k - 1))
        b = data.draw(st.integers(0, k - 1))
        merged = [a if c == b else c for c in classes]

        def in_keys(v):
            return Counter(
                (merged[e.source], equality_key(e.color)) for e in g.in_edges(v)
            )

        rep = {}
        for v in g.vertices():
            rep.setdefault(merged[v], v)
        fibred = all(in_keys(v) == in_keys(rep[merged[v]]) for v in g.vertices())
        if fibred:
            mb = quotient_by_partition(g, merged, verify=False)
            assert mb.fibration.validate(check_values=False) == []
        else:
            with pytest.raises(ValueError, match="not equitable"):
                quotient_by_partition(g, merged, verify=False)


# ---------------------------------------------------------------------- #
# memoization is invisible in whole documents
# ---------------------------------------------------------------------- #

def _document_bytes(results) -> bytes:
    """A canonical byte serialization of a table document."""
    return json.dumps(
        [
            {
                "model": r.model.value,
                "knowledge": r.knowledge.value,
                "dynamic": r.dynamic,
                "label": r.label(),
                "consistent": r.consistent,
                "details": r.details,
                "manifest": r.manifest.to_dict() if r.manifest else None,
            }
            for r in results
        ],
        sort_keys=True,
    ).encode("utf-8")


class TestMemoizedDocumentsByteIdentical:
    @settings(max_examples=2, deadline=None)
    @given(st.integers(min_value=0, max_value=1))
    def test_table1_sequential(self, seed):
        clear_memos()
        memoized = _document_bytes(reproduce_table1(n=4, seed=seed))
        with memo_disabled():
            plain = _document_bytes(reproduce_table1(n=4, seed=seed))
        assert memoized == plain

    def test_table2_sequential(self):
        clear_memos()
        memoized = _document_bytes(reproduce_table2(n=4, seed=0))
        with memo_disabled():
            plain = _document_bytes(reproduce_table2(n=4, seed=0))
        assert memoized == plain

    def test_env_switch_disables_memo(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMO", "0")
        from repro.core import memo

        assert not memo.memo_enabled()
        monkeypatch.delenv("REPRO_MEMO")
        assert memo.memo_enabled()
        # os.environ really is the switch (no import-time freeze).
        assert os.environ.get("REPRO_MEMO") is None
