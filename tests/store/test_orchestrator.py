"""The asyncio dispatcher: saturation, dedup, heartbeats, crash recovery."""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.engine.trace import MetricsRegistry
from repro.store.jobs import expected_result_key, open_queue, open_store
from repro.store.orchestrator import (
    Orchestrator,
    orchestrate,
    publish_orchestrator_metrics,
)

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(REPO_SRC)
    env.update(extra)
    return env


class TestOrchestrate:
    def test_drains_a_sharded_queue(self, tmp_path):
        queue = open_queue(tmp_path, shards=4)
        for i in range(25):
            queue.submit("noop", {"i": i})
        stats = orchestrate(tmp_path, queue=queue, pools=2)
        assert stats["completed"] == 25
        assert stats["failed"] == 0
        assert stats["dispatched"] == 25
        assert stats["claimed"] == 25
        assert queue.counts() == {"queued": 0, "running": 0, "done": 25, "failed": 0}
        store = open_store(tmp_path)
        for record in queue.jobs():
            assert record.result_key in store

    def test_flat_queue_also_works(self, tmp_path):
        queue = open_queue(tmp_path)
        for i in range(5):
            queue.submit("noop", {"i": i})
        stats = orchestrate(tmp_path, queue=queue, pools=1)
        assert stats["completed"] == 5
        assert queue.counts()["done"] == 5

    def test_identical_work_dispatches_once(self, tmp_path):
        queue = open_queue(tmp_path, shards=2)
        # Same noop identity, different acceleration flags: distinct job
        # ids (content-addressed on full params) but one result_key.
        a = queue.submit("noop", {"i": 1})
        b = queue.submit("noop", {"i": 1, "quotient": True})
        assert a.id != b.id
        stats = orchestrate(tmp_path, queue=queue, pools=1)
        assert stats["completed"] == 2
        assert stats["dispatched"] == 1
        # The duplicate is parked behind the in-flight twin, then served
        # from the store once the twin's document lands.
        assert stats["dedup_inflight"] == 1
        assert stats["dedup_store"] == 1
        key = expected_result_key("noop", {"i": 1})
        assert queue.get(a.id).result_key == key
        assert queue.get(b.id).result_key == key

    def test_already_stored_results_skip_dispatch(self, tmp_path):
        queue = open_queue(tmp_path, shards=2)
        queue.submit("noop", {"i": 9})
        orchestrate(tmp_path, queue=queue, pools=1)
        # Re-queue the same work under a different job id; its document
        # is already in the store, so no pool execution happens.
        queue.submit("noop", {"i": 9, "vector": True})
        stats = orchestrate(tmp_path, queue=queue, pools=1)
        assert stats["completed"] == 1
        assert stats["dispatched"] == 0
        assert stats["dedup_store"] == 1

    def test_max_jobs_bounds_admission(self, tmp_path):
        queue = open_queue(tmp_path, shards=2)
        for i in range(10):
            queue.submit("noop", {"i": i})
        stats = orchestrate(tmp_path, queue=queue, pools=1, max_jobs=4)
        assert stats["claimed"] == 4
        assert queue.counts()["done"] == 4
        assert queue.counts()["queued"] == 6

    def test_failed_jobs_surface_in_stats(self, tmp_path):
        queue = open_queue(tmp_path, shards=2)
        queue.submit("haruspicy", {"i": 1}, max_attempts=1)
        queue.submit("noop", {"i": 2})
        stats = orchestrate(tmp_path, queue=queue, pools=1)
        assert stats["failed"] == 1
        assert stats["completed"] == 1
        assert queue.counts()["failed"] == 1

    def test_rejects_zero_pools(self, tmp_path):
        with pytest.raises(ValueError):
            Orchestrator(tmp_path, pools=0)

    def test_window_defaults_scale_with_pools(self, tmp_path):
        orch = Orchestrator(tmp_path, pools=3, pool_workers=2)
        assert orch.window == 24
        assert Orchestrator(tmp_path, pools=1, window=5).window == 5


class TestWakeUps:
    def test_runs_under_a_loop_made_after_construction(self, tmp_path):
        """The wake-up event belongs to the loop running the orchestrator:
        one instance built outside any loop runs under two successive
        ones (Python 3.9 bound the event to the loop current at
        construction, and 3.10+ binds it to the first loop that waits)."""
        queue = open_queue(tmp_path, shards=2)
        orch = Orchestrator(tmp_path, queue=queue, pools=1)
        for run in range(2):
            for i in range(3):
                queue.submit("noop", {"i": i, "run": run})
            asyncio.run(orch.run())
        assert orch.stats["completed"] == 6
        assert queue.counts()["done"] == 6

    def test_idle_claims_once_per_poll_interval_unless_woken(self, tmp_path):
        orch = Orchestrator(tmp_path, pools=1, idle_exit=False, poll_interval=0.2)
        passes = []
        claim_batch = orch.queue.claim_batch

        def counted(limit):
            passes.append(limit)
            return claim_batch(limit)

        orch.queue.claim_batch = counted

        async def scenario():
            task = asyncio.ensure_future(orch.run())
            await asyncio.sleep(1.0)
            idle = len(passes)
            orch.wake()
            await asyncio.sleep(0.1)
            woken = len(passes) - idle
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            return idle, woken

        idle, woken = asyncio.run(scenario())
        # One pass at start-up, then one per 0.2 s nap: no busy loop.
        assert 1 <= idle <= 1.0 / 0.2 + 2
        # A wake-up ends the nap: a pass at once, not 0.2 s later.
        assert 1 <= woken <= 2

    def test_reports_every_settled_job(self, tmp_path):
        queue = open_queue(tmp_path, shards=2)
        queue.submit("noop", {"i": 1})
        queue.submit("noop", {"i": 1, "quotient": True})  # parked twin
        failing = queue.submit("haruspicy", {"i": 2}, max_attempts=1)
        orch = Orchestrator(tmp_path, queue=queue, pools=1)
        settled = []
        orch.on_settle = settled.append
        asyncio.run(orch.run())
        assert sorted(settled) == sorted(r.id for r in queue.jobs())
        assert queue.get(failing.id).status == "failed"


class TestHeartbeat:
    def test_long_job_survives_a_tiny_lease_ttl(self, tmp_path, monkeypatch):
        """The event-loop heartbeat outlives the lease TTL: a job running
        for many TTLs is never stolen or double-run."""
        import repro.store.jobs as jobs_mod

        sleepy_original = jobs_mod._RUNNERS["noop"]

        def slow_noop(queue, store, record):
            time.sleep(1.2)  # many multiples of the 0.3s TTL below
            return sleepy_original(queue, store, record)

        # Pools fork, so children inherit the patched runner table.
        monkeypatch.setitem(jobs_mod._RUNNERS, "noop", slow_noop)
        monkeypatch.setenv("REPRO_LEASE_STALE_SECONDS", "0.3")
        monkeypatch.setenv("REPRO_HEARTBEAT_SECONDS", "0.1")
        queue = open_queue(tmp_path, shards=2)
        record = queue.submit("noop", {"i": 1}, max_attempts=3)
        stats = orchestrate(tmp_path, queue=queue, pools=1)
        assert stats["completed"] == 1
        assert stats["lease_lost"] == 0
        assert stats["heartbeats"] > 0
        finished = queue.get(record.id)
        assert finished.status == "done"
        assert finished.attempts == 0  # never taken over


class TestMetrics:
    def test_publish_folds_orchestrator_and_queue_counters(self, tmp_path):
        queue = open_queue(tmp_path, shards=2)
        for i in range(6):
            queue.submit("noop", {"i": i})
        stats = orchestrate(tmp_path, queue=queue, pools=1)
        registry = MetricsRegistry()
        publish_orchestrator_metrics(registry, stats, queue_stats=queue.stats())
        snapshot = registry.as_dict()
        assert snapshot["orchestrator_dispatched"]["value"] == 6
        assert snapshot["orchestrator_completed"]["value"] == 6
        assert snapshot["scheduler_claims"]["value"] == 6
        assert snapshot["scheduler_takeovers"]["value"] == 0


class TestCLI:
    def test_run_pools_flag(self, tmp_path):
        root = str(tmp_path)
        base = [sys.executable, "-m", "repro", "store", "--root", root]
        subprocess.run(
            base + ["--shards", "2", "submit", "noop", "--param", "i=1"],
            env=_env(),
            check=True,
            stdout=subprocess.DEVNULL,
        )
        ran = subprocess.run(
            base + ["run", "--pools", "1"], env=_env(), capture_output=True, text=True
        )
        assert ran.returncode == 0, ran.stderr
        payload = json.loads(ran.stdout)
        assert payload["orchestrator"]["completed"] == 1
        assert payload["queue"]["done"] == 1


class TestKillHalfTheFleet:
    """The acceptance scenario at reduced scale: two orchestrator
    fleets, one SIGKILLed mid-campaign; survivors finish the campaign
    and every document is byte-identical to a sequential reference."""

    @pytest.mark.slow
    def test_campaign_survives_killing_an_orchestrator(self, tmp_path):
        fleet_root = tmp_path / "fleet"
        reference_root = tmp_path / "reference"
        jobs = 40

        for root in (fleet_root, reference_root):
            queue = open_queue(root, shards=4)
            for i in range(jobs):
                queue.submit("noop", {"i": i // 4, "seed": i % 4}, max_attempts=5)

        # Sequential reference run.
        from repro.store.jobs import run_worker

        run_worker(reference_root, queue=open_queue(reference_root))

        env = _env(REPRO_LEASE_STALE_SECONDS="1.0", REPRO_HEARTBEAT_SECONDS="0.2")
        cmd = [
            sys.executable, "-m", "repro", "store", "--root", str(fleet_root),
            "run", "--wait", "--pools", "1",
        ]
        # start_new_session so SIGKILLing the group takes the pool
        # children (and their held leases) down with the orchestrator.
        workers = [
            subprocess.Popen(
                cmd, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, start_new_session=True,
            )
            for _ in range(2)
        ]
        victim, survivor = workers
        fleet_queue = open_queue(fleet_root)
        try:
            deadline = time.time() + 120
            while time.time() < deadline:
                done = fleet_queue.counts()["done"]
                if done >= jobs // 8:
                    break
                time.sleep(0.05)
            os.killpg(victim.pid, signal.SIGKILL)
            victim.wait()
            while time.time() < deadline:
                if fleet_queue.counts()["done"] >= jobs:
                    break
                time.sleep(0.1)
            counts = fleet_queue.counts()
            assert counts["done"] == jobs, counts
        finally:
            for worker in workers:
                if worker.poll() is None:
                    os.killpg(worker.pid, signal.SIGTERM)
                worker.wait()

        # Byte-identity of every document against the reference.
        ref_queue = open_queue(reference_root)
        ref_store = open_store(reference_root)
        fleet_store = open_store(fleet_root)
        ref_keys = {r.id: r.result_key for r in ref_queue.jobs()}
        fleet_records = fleet_queue.jobs()
        assert len(fleet_records) == jobs
        for record in fleet_records:
            assert record.result_key == ref_keys[record.id]
            with open(ref_store.entry_path(record.result_key), "rb") as fh:
                ref_bytes = fh.read()
            with open(fleet_store.entry_path(record.result_key), "rb") as fh:
                fleet_bytes = fh.read()
            assert fleet_bytes == ref_bytes
