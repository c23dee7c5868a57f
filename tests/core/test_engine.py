"""Unit tests for the layered engine: plans, transports, batch, hooks."""

import pytest

from repro.core.agent import BroadcastAlgorithm
from repro.core.engine import (
    BandwidthObserver,
    BatchJob,
    MessageCountObserver,
    PlanCache,
    SpreadObserver,
    StateDigestObserver,
    WallTimeObserver,
    compile_plan,
    run_batch,
    state_digest,
    transport_for,
    BroadcastTransport,
    OutdegreeTransport,
    OutputPortTransport,
)
from repro.core.execution import Execution
from repro.core.metrics import discrete_metric
from repro.algorithms.gossip import GossipAlgorithm
from repro.algorithms.push_sum import PushSumAlgorithm
from repro.dynamics.dynamic_graph import FunctionDynamicGraph, StaticAsDynamic
from repro.graphs.builders import (
    bidirectional_ring,
    complete_graph,
    directed_ring,
    star_graph,
)


class CountMessages(BroadcastAlgorithm):
    def initial_state(self, input_value):
        return 0

    def message(self, state):
        return "ping"

    def transition(self, state, received):
        return state + len(received)

    def output(self, state):
        return state


class TestDeliveryPlan:
    def test_flat_schedule_matches_graph(self):
        g = star_graph(4)
        plan = compile_plan(g)
        assert plan.n == 4
        assert plan.num_messages == g.num_edges
        for j in range(4):
            assert list(plan.sources[j]) == [e.source for e in g.in_edges(j)]
            assert list(plan.source_ports[j]) == [g.port_of(e) for e in g.in_edges(j)]
        assert list(plan.outdegrees) == [g.outdegree(v) for v in range(4)]
        assert plan.all_self_loops

    def test_missing_self_loop_detected(self):
        from repro.graphs.digraph import DiGraph

        plan = compile_plan(DiGraph(2, [(0, 1), (1, 0)]))
        assert not plan.all_self_loops

    def test_symmetry_flag(self):
        assert compile_plan(bidirectional_ring(4)).symmetric
        assert not compile_plan(directed_ring(4)).symmetric


class TestPlanCache:
    def test_static_graph_compiles_once(self):
        g = directed_ring(8)
        cache = PlanCache()
        ex = Execution(CountMessages(), g, inputs=[0] * 8).share_plan_cache(cache)
        ex.run(10)
        assert cache.misses == 1
        assert cache.hits == 9

    def test_shared_across_executions(self):
        g = directed_ring(8)
        cache = PlanCache()
        for _ in range(3):
            Execution(CountMessages(), g, inputs=[0] * 8).share_plan_cache(cache).run(2)
        assert cache.misses == 1

    def test_lru_eviction_bounds_size(self):
        cache = PlanCache(maxsize=2)
        graphs = [directed_ring(3), directed_ring(4), directed_ring(5)]
        for g in graphs:
            cache.plan_for(g)
        assert len(cache) == 2

    def test_invalidate_by_graph(self):
        g = directed_ring(3)
        cache = PlanCache()
        cache.plan_for(g)
        cache.invalidate(g)
        assert len(cache) == 0
        cache.plan_for(g)
        assert cache.misses == 2

    def test_plan_epoch_retires_plans(self):
        calls = []

        def fn(t):
            calls.append(t)
            return directed_ring(3)

        dyn = FunctionDynamicGraph(3, fn)
        cache = PlanCache()
        ex = Execution(CountMessages(), dyn, inputs=[0] * 3).share_plan_cache(cache)
        ex.run(2)
        before = cache.misses
        assert dyn.plan_epoch == 0
        dyn.invalidate_plans()
        assert dyn.plan_epoch == 1
        ex.run(1)  # round 3: memo cleared + epoch bumped -> fresh compile
        assert cache.misses > before

    def test_rejects_empty_cache(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)


class TestTransportDispatch:
    def test_flavors_resolve_once(self):
        from repro.algorithms.push_sum import PushSumAlgorithm
        from tests.core.test_execution import PortSpray

        assert isinstance(transport_for(GossipAlgorithm()), BroadcastTransport)
        assert isinstance(transport_for(PushSumAlgorithm()), OutdegreeTransport)
        assert isinstance(transport_for(PortSpray()), OutputPortTransport)

    def test_unknown_flavor_rejected(self):
        class NotAnAlgorithm:
            pass

        with pytest.raises(TypeError, match="unknown algorithm flavor"):
            transport_for(NotAnAlgorithm())


class TestBatchRunner:
    def test_jobs_share_plans(self):
        g = complete_graph(5)
        cache = PlanCache()
        jobs = [
            BatchJob(GossipAlgorithm(), g, inputs=[1, 2, 3, 4, 5], runner="rounds", rounds=4)
            for _ in range(3)
        ]
        results = run_batch(jobs, plan_cache=cache)
        assert len(results) == 3
        assert cache.misses == 1  # one graph, one plan, twelve rounds

    def test_detector_runners_need_round_budget(self):
        # Regression: rounds=0 with a convergence detector used to be
        # accepted silently and report non-convergence after zero rounds.
        g = complete_graph(3)
        with pytest.raises(ValueError, match="positive round budget"):
            BatchJob(
                GossipAlgorithm(),
                g,
                inputs=[1, 2, 3],
                runner="stable",
                target=frozenset({1, 2, 3}),
            )
        with pytest.raises(ValueError, match="positive round budget"):
            BatchJob(
                PushSumAlgorithm(),
                g,
                inputs=[1.0, 2.0, 3.0],
                runner="asymptotic",
                rounds=0,
                tolerance=1e-6,
                target=2.0,
            )

    def test_stable_runner_reports(self):
        g = complete_graph(4)
        (result,) = run_batch(
            [
                BatchJob(
                    GossipAlgorithm(),
                    g,
                    inputs=[1, 2, 3, 4],
                    runner="stable",
                    rounds=20,
                    target=frozenset({1, 2, 3, 4}),
                )
            ]
        )
        assert result.converged
        assert result.report.stabilization_round is not None
        assert discrete_metric(result.report.value, frozenset({1, 2, 3, 4})) == 0.0

    def test_asymptotic_runner_reports(self):
        g = complete_graph(4)
        (result,) = run_batch(
            [
                BatchJob(
                    PushSumAlgorithm(),
                    g,
                    inputs=[1.0, 2.0, 3.0, 4.0],
                    runner="asymptotic",
                    rounds=200,
                    tolerance=1e-6,
                    target=2.5,
                )
            ]
        )
        assert result.converged

    def test_results_in_job_order_with_labels(self):
        g = directed_ring(4)
        jobs = [
            BatchJob(CountMessages(), g, inputs=[0] * 4, rounds=k, label=f"job{k}")
            for k in (1, 2, 3)
        ]
        results = run_batch(jobs)
        assert [r.label for r in results] == ["job1", "job2", "job3"]
        assert [r.execution.round_number for r in results] == [1, 2, 3]

    def test_unknown_runner_rejected(self):
        with pytest.raises(ValueError, match="unknown runner"):
            BatchJob(CountMessages(), directed_ring(3), inputs=[0] * 3, runner="warp")

    def test_observers_ride_along(self, monkeypatch):
        # Counts the full graph's messages: under REPRO_QUOTIENT=1 the
        # ring would run on its one-vertex base instead.
        monkeypatch.delenv("REPRO_QUOTIENT", raising=False)
        g = directed_ring(4)
        counter = MessageCountObserver()
        run_batch(
            [BatchJob(CountMessages(), g, inputs=[0] * 4, rounds=3, observers=[counter])]
        )
        assert counter.counts == [8, 8, 8]  # ring + self-loops = 2n edges


class TestInstrumentation:
    def test_message_counts(self):
        counter = MessageCountObserver()
        Execution(CountMessages(), star_graph(4), inputs=[0] * 4).attach(counter).run(2)
        assert counter.counts == [10, 10]  # 2*(n-1) star edges + n loops
        assert counter.total == 20

    def test_state_digest_canonicalizes_sets(self):
        assert state_digest([frozenset("ab")]) == state_digest([frozenset("ba")])
        assert state_digest([frozenset("ab")]) != state_digest([frozenset("ac")])

    def test_digest_observer_tracks_trajectory(self):
        digests = StateDigestObserver()
        Execution(GossipAlgorithm(), complete_graph(3), inputs=[1, 2, 3]).attach(
            digests
        ).run(3)
        # Gossip saturates on a complete graph after one round: the state
        # vector (hence its digest) is constant from round 1 on.
        assert len(digests.digests) == 3
        assert digests.digests[0] == digests.digests[1] == digests.digests[2]

    def test_bandwidth_observer_measures_sent_payloads(self):
        peaks = BandwidthObserver()
        Execution(GossipAlgorithm(), directed_ring(4), inputs=[1, 2, 3, 4]).attach(
            peaks
        ).run(3)
        # Round 1 ships singleton sets; sets only grow along the ring.
        assert peaks.peaks[0] == 1
        assert peaks.peaks == sorted(peaks.peaks)

    def test_spread_observer_feeds_metrics(self):
        spreads = SpreadObserver()
        Execution(
            PushSumAlgorithm(), bidirectional_ring(6), inputs=[0.0] * 5 + [12.0]
        ).attach(spreads).run(40)
        assert spreads.spreads[0] > 0.0
        assert spreads.spreads[-1] < spreads.spreads[0]

    def test_wall_time_observer(self):
        timer = WallTimeObserver()
        Execution(CountMessages(), directed_ring(4), inputs=[0] * 4).attach(timer).run(5)
        assert len(timer.seconds) == 5
        assert all(s >= 0.0 for s in timer.seconds)
        assert timer.total >= 0.0

    def test_detach_stops_observation(self):
        counter = MessageCountObserver()
        ex = Execution(CountMessages(), directed_ring(4), inputs=[0] * 4)
        ex.attach(counter).run(2)
        ex.detach(counter)
        ex.run(2)
        assert len(counter.counts) == 2


class TestFacade:
    def test_states_settable_for_self_stabilization_harnesses(self):
        ex = Execution(CountMessages(), directed_ring(3), inputs=[0] * 3)
        ex.states = [5, 5, 5]
        assert ex.states == [5, 5, 5]
        ex.step()
        assert ex.outputs() == [7, 7, 7]

    def test_static_wrapping_preserved(self):
        g = directed_ring(3)
        ex = Execution(CountMessages(), g, inputs=[0] * 3)
        assert isinstance(ex.network, StaticAsDynamic)
        assert ex.network.graph is g
