"""Tests for the content-addressed memo layer (``repro.core.memo``)."""

from fractions import Fraction

import pytest

from repro.core.engine.plan import PlanCache
from repro.core.engine.trace import MetricsRegistry
from repro.core.memo import (
    MemoCache,
    cached_plan,
    clear_memos,
    graph_fingerprint,
    intern_graph,
    memo_disabled,
    memo_enabled,
    memo_stats,
    memoized_equitable_partition,
    memoized_minimum_base,
    publish_memo_metrics,
)
from repro.fibrations.minimum_base import equitable_partition, minimum_base
from repro.graphs.builders import (
    bidirectional_ring,
    complete_graph,
    directed_ring,
    random_strongly_connected,
)
from repro.graphs.digraph import DiGraph


@pytest.fixture(autouse=True)
def fresh_memos():
    clear_memos()
    yield
    clear_memos()


class TestMemoCache:
    def test_hit_miss_counters(self):
        cache = MemoCache("t", maxsize=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats() == {"hits": 1, "misses": 1, "size": 1}

    def test_lru_eviction_order(self):
        cache = MemoCache("t", maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a: b is now least recent
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_clear_resets_counters(self):
        cache = MemoCache("t")
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        cache.clear()
        assert cache.stats() == {"hits": 0, "misses": 0, "size": 0}

    def test_needs_positive_capacity(self):
        with pytest.raises(ValueError):
            MemoCache("t", maxsize=0)


class TestFingerprint:
    def test_matches_provenance_fingerprint(self):
        from repro.analysis.provenance import graph_fingerprint as provenance_fp

        g = random_strongly_connected(6, seed=3)
        assert provenance_fp(g) == graph_fingerprint(g)

    def test_cached_on_the_graph(self):
        g = directed_ring(5)
        assert g._fingerprint is None
        fp = graph_fingerprint(g)
        assert g._fingerprint == fp
        assert graph_fingerprint(g) == fp

    def test_content_equal_graphs_share_fingerprints(self):
        assert graph_fingerprint(directed_ring(5)) == graph_fingerprint(directed_ring(5))
        assert graph_fingerprint(directed_ring(5)) != graph_fingerprint(directed_ring(6))

    @pytest.mark.parametrize(
        "build, expected",
        [
            (lambda: complete_graph(4), "455d141ced49f619"),
            (lambda: bidirectional_ring(5).with_values([0, 1, 0, 1, 0]), "a08d294aa44765a8"),
            (lambda: directed_ring(3).with_port_colors(), "f6e0490f5aedba59"),
            (
                lambda: DiGraph(
                    2,
                    [(0, 1, frozenset([9, 1])), (1, 0, Fraction(1, 2))],
                    values=["a", (1, 2)],
                ),
                "8a0cb2590fbc6d59",
            ),
            (lambda: DiGraph(1), "fdfa466a5d7cdc55"),
        ],
    )
    def test_pinned_fingerprints(self, build, expected):
        # Provenance manifests store these hashes: the bytes hashed must
        # never change, whether or not the edge digest is shared.
        assert graph_fingerprint(build()) == expected

    def test_edge_digest_hashed_once_per_edge_structure(self, monkeypatch):
        from repro.core import memo

        calls = []
        real = memo._hash_edges
        monkeypatch.setattr(memo, "_hash_edges", lambda g: calls.append(g) or real(g))
        g = bidirectional_ring(5)
        valued = [g.with_values([v % k for v in range(5)]) for k in (1, 2, 3)]
        fps = [graph_fingerprint(h) for h in valued + [g, g.without_values()]]
        assert len(calls) == 1
        rebuilt = [DiGraph(5, g.edge_specs(), values=h.values) for h in valued + [g, g]]
        assert fps == [graph_fingerprint(h) for h in rebuilt]
        assert len(calls) == 1 + len(rebuilt)  # a rebuild has its own structure


class TestActivationKeying:
    """Quotient activation refines the graph it runs on and quotients the
    class list it holds: it hashes no graph and leaves the content memo
    alone."""

    ONE_HOT = [1] + [0] * 63

    def activate(self, graph):
        from repro.algorithms import GossipAlgorithm
        from repro.core.engine.quotient import QuotientExecution

        execution = QuotientExecution(GossipAlgorithm(max), graph, inputs=self.ONE_HOT)
        assert execution.quotient_active and execution.base_n == 2
        assert execution.minimum_base.classes == minimum_base(
            graph.with_values(self.ONE_HOT)
        ).classes
        return execution

    def test_anonymous_graph_is_never_hashed(self, monkeypatch):
        from repro.core import memo

        calls = []
        real = memo._hash_edges
        monkeypatch.setattr(memo, "_hash_edges", lambda g: calls.append(g) or real(g))
        g = complete_graph(64)
        self.activate(g)
        assert calls == []
        assert g._fingerprint is None
        assert all(stats["size"] == 0 for stats in memo_stats().values())

    def test_fingerprinted_graph_leaves_the_memo_alone(self):
        graphs = [complete_graph(64), complete_graph(64)]
        for g in graphs:
            graph_fingerprint(g)
        before = memo_stats()
        for g in graphs:
            self.activate(g)
        assert memo_stats() == before


class TestInterning:
    def test_first_seen_instance_wins(self):
        g1 = directed_ring(6)
        g2 = directed_ring(6)
        assert intern_graph(g1) is g1
        assert intern_graph(g2) is g1
        assert intern_graph(g1) is g1

    def test_disabled_is_identity(self):
        g1, g2 = directed_ring(6), directed_ring(6)
        with memo_disabled():
            assert intern_graph(g1) is g1
            assert intern_graph(g2) is g2


class TestMemoizedFibrations:
    def test_minimum_base_computed_once_per_content(self):
        mb1 = memoized_minimum_base(directed_ring(6))
        mb2 = memoized_minimum_base(directed_ring(6))
        assert mb1 is mb2
        stats = memo_stats()["minimum_base"]
        assert stats == {"hits": 1, "misses": 1, "size": 1}

    def test_minimum_base_agrees_with_direct_computation(self):
        g = random_strongly_connected(7, seed=1).with_values([v % 2 for v in range(7)])
        mb = memoized_minimum_base(g)
        direct = minimum_base(g)
        assert mb.classes == direct.classes
        assert mb.base.n == direct.base.n
        assert mb.fibre_sizes == direct.fibre_sizes

    def test_equitable_partition_returns_fresh_lists(self):
        g = random_strongly_connected(6, seed=2)
        first = memoized_equitable_partition(g)
        second = memoized_equitable_partition(g)
        assert first == second == equitable_partition(g)
        assert first is not second  # callers may mutate their copy
        first[0] = 999
        assert memoized_equitable_partition(g) == second

    def test_disabled_bypasses_cache(self):
        with memo_disabled():
            memoized_minimum_base(directed_ring(4))
        assert memo_stats()["minimum_base"]["size"] == 0

    def test_env_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMO", "0")
        assert not memo_enabled()
        memoized_minimum_base(directed_ring(4))
        assert memo_stats()["minimum_base"]["size"] == 0


class TestPlanMemo:
    def test_plans_shared_across_plan_caches(self):
        g1 = intern_graph(directed_ring(8))
        plan1 = PlanCache().plan_for(g1)
        # A content-equal twin in a brand-new cache: the memo hands the
        # compiled plan over, no recompile.
        g2 = intern_graph(DiGraph(8, directed_ring(8).edge_specs()))
        assert g2 is g1  # interning collapsed it
        cache = PlanCache()
        assert cache.plan_for(g2) is plan1
        assert cache.hits == 1 and cache.misses == 0

    def test_anonymous_graphs_skip_the_memo(self):
        g = directed_ring(8)  # never fingerprinted
        PlanCache().plan_for(g)
        assert cached_plan(g) is None
        assert memo_stats()["delivery_plan"]["size"] == 0

    def test_fingerprinted_twins_share_without_interning(self):
        g1, g2 = directed_ring(8), directed_ring(8)
        graph_fingerprint(g1), graph_fingerprint(g2)
        plan1 = PlanCache().plan_for(g1)
        assert PlanCache().plan_for(g2) is plan1


class TestMetricsPublication:
    def test_counters_land_in_registry(self):
        memoized_minimum_base(directed_ring(5))
        memoized_minimum_base(directed_ring(5))
        registry = MetricsRegistry()
        publish_memo_metrics(registry)
        assert registry.counter("memo_minimum_base_hits").value == 1
        assert registry.counter("memo_minimum_base_misses").value == 1

    def test_baseline_scopes_the_delta(self):
        memoized_minimum_base(directed_ring(5))
        baseline = memo_stats()
        memoized_minimum_base(directed_ring(5))  # one hit after the snapshot
        registry = MetricsRegistry()
        publish_memo_metrics(registry, baseline)
        assert registry.counter("memo_minimum_base_hits").value == 1
        assert registry.counter("memo_minimum_base_misses").value == 0


class TestSumRefutationMemo:
    """The tables' §4.1 ring-collapse refutation is pure in its
    arguments, so a table computes each distinct model's once."""

    @staticmethod
    def run_tables(monkeypatch, memo):
        """Tables 1 and 2, each from cold memos as in the benchmark:
        per table, its cell payloads, the memo's calls and misses, and
        how many refutations were computed."""
        import collections

        from repro.analysis import tables

        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.setenv("REPRO_MEMO", "1" if memo else "0")
        computed = collections.Counter()
        real = tables.demonstrate_collapse

        def counting(*args, **kwargs):
            computed["refutations"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(tables, "demonstrate_collapse", counting)
        results = []
        for reproduce, n in ((tables.reproduce_table1, 6), (tables.reproduce_table2, 5)):
            clear_memos()
            computed.clear()
            cells = [tables.cell_to_payload(cell) for cell in reproduce(n, 0)]
            stats = memo_stats()["sum_refutation"]
            results.append(
                (cells, stats["hits"] + stats["misses"], stats["misses"], computed["refutations"])
            )
        return results

    def test_each_table_computes_each_model_once(self, monkeypatch):
        table1, table2 = self.run_tables(monkeypatch, memo=True)
        assert table1[1:] == (6, 3, 3)
        assert table2[1:] == (4, 2, 2)

    def test_memo_off_computes_every_call_and_changes_no_cell(self, monkeypatch):
        on = self.run_tables(monkeypatch, memo=True)
        off = self.run_tables(monkeypatch, memo=False)
        assert [table[3] for table in off] == [6, 4]
        assert [table[0] for table in off] == [table[0] for table in on]
