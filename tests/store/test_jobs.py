"""End-to-end tests of the durable runners: worker loop, CLI, kill -9."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.store.cache import ResultStore
from repro.store.jobs import (
    JOB_KINDS,
    document_key,
    expected_result_key,
    noop_document,
    open_queue,
    open_store,
    run_job,
    run_worker,
    table_document,
)
from repro.store.scheduler import DONE, FAILED, QUEUED, RUNNING, JobQueue

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(REPO_SRC)
    return env


def read_doc_bytes(store: ResultStore, key: str) -> bytes:
    with open(store.entry_path(key), "rb") as fh:
        return fh.read()


class TestRunWorker:
    def test_table_job_end_to_end(self, tmp_path):
        queue = open_queue(tmp_path)
        store = open_store(tmp_path)
        record = queue.submit("table1", {"n": 4, "seed": 0})
        assert run_worker(tmp_path, queue=queue, store=store) == 1
        finished = queue.get(record.id)
        assert finished.status == DONE
        assert finished.progress == {"units_done": 16, "units_total": 16}
        doc = store.get(finished.result_key)
        assert doc["kind"] == "table1"
        assert doc["summary"] == {"cells": 16, "consistent": 16, "verdict": "PASS"}
        assert finished.result_key == document_key("table1", {"n": 4, "seed": 0})

    def test_rerun_serves_cells_from_store(self, tmp_path):
        queue = open_queue(tmp_path)
        store = open_store(tmp_path)
        queue.submit("table1", {"n": 4, "seed": 0})
        run_worker(tmp_path, queue=queue, store=store)
        first_puts = store.puts
        # Same work, fresh job identity space: force a re-run by reviving.
        record = queue.submit("table1", {"n": 4, "seed": 0})
        job = queue.get(record.id)
        job.status = "queued"
        queue._write(job)
        run_worker(tmp_path, queue=queue, store=store)
        assert store.hits >= 16  # every cell came from disk
        assert store.puts == first_puts + 1  # only the document rewritten

    def test_sweep_job(self, tmp_path):
        queue = open_queue(tmp_path)
        store = open_store(tmp_path)
        params = {"specs": [[4, 3, 0, 12], [4, 3, 1, 12]]}
        record = queue.submit("sweep", params)
        assert run_worker(tmp_path, queue=queue, store=store) == 1
        doc = store.get(queue.get(record.id).result_key)
        assert doc["summary"] == {"checks": 2, "ok": 2, "verdict": "PASS"}

    def test_unknown_kind_fails_with_error(self, tmp_path):
        queue = open_queue(tmp_path)
        record = queue.submit("haruspicy", {}, max_attempts=1)
        run_worker(tmp_path, queue=queue, store=open_store(tmp_path))
        parked = queue.get(record.id)
        assert parked.status == FAILED
        assert "unknown job kind" in parked.error

    def test_failed_job_retries_until_budget(self, tmp_path):
        queue = JobQueue(os.path.join(tmp_path, "queue"), retry_base=0.0)
        record = queue.submit("haruspicy", {}, max_attempts=3)
        processed = run_worker(tmp_path, queue=queue, store=open_store(tmp_path))
        assert processed == 3  # claimed, failed, retried, retried, parked
        assert queue.get(record.id).status == FAILED
        assert queue.get(record.id).attempts == 3

    @pytest.mark.parametrize(
        "engine", [{}, {"quotient": True}, {"vector": True}], ids=["plain", "quotient", "vector"]
    )
    @pytest.mark.parametrize("table", [1, 2])
    def test_table_job_document_is_paper_table_document(
        self, tmp_path, monkeypatch, table, engine
    ):
        from repro.analysis.tables import paper_table_document

        monkeypatch.delenv("REPRO_STORE", raising=False)
        queue = open_queue(tmp_path)
        store = open_store(tmp_path)
        record = queue.submit(f"table{table}", {"n": 4, "seed": 0, **engine})
        assert run_worker(tmp_path, queue=queue, store=store) == 1
        doc = store.get(queue.get(record.id).result_key)
        assert doc == paper_table_document(table, 4, 0)

    def test_table_document_is_pure(self):
        cells = [{"consistent": True}, {"consistent": False}]
        doc = table_document("table1", 4, 0, cells)
        assert doc["summary"]["verdict"] == "FAIL"
        assert table_document("table1", 4, 0, cells) == doc
        assert set(JOB_KINDS) == {
            "table1",
            "table2",
            "certificate",
            "sweep",
            "scenario",
            "noop",
        }

    def test_noop_job_end_to_end(self, tmp_path):
        queue = open_queue(tmp_path)
        store = open_store(tmp_path)
        record = queue.submit("noop", {"i": 3, "seed": 1})
        assert run_worker(tmp_path, queue=queue, store=store) == 1
        finished = queue.get(record.id)
        assert finished.status == DONE
        doc = store.get(finished.result_key)
        assert doc["kind"] == "noop"
        assert doc["summary"]["verdict"] == "PASS"
        assert doc == noop_document({"i": 3, "seed": 1})

    def test_noop_document_ignores_acceleration_flags(self):
        plain = noop_document({"i": 1})
        accelerated = noop_document({"i": 1, "quotient": True, "vector": True})
        assert plain == accelerated


class TestExpectedResultKey:
    """The orchestrator's dedup handle predicts each runner's store key."""

    def test_noop_key_matches_runner(self, tmp_path):
        queue = open_queue(tmp_path)
        store = open_store(tmp_path)
        record = queue.submit("noop", {"i": 7, "quotient": True})
        run_worker(tmp_path, queue=queue, store=store)
        assert queue.get(record.id).result_key == expected_result_key(
            "noop", {"i": 7, "quotient": True}
        )
        # The prediction strips acceleration flags, like the runner.
        assert expected_result_key("noop", {"i": 7}) == expected_result_key(
            "noop", {"i": 7, "vector": True}
        )

    def test_sweep_key_matches_runner(self, tmp_path):
        queue = open_queue(tmp_path)
        store = open_store(tmp_path)
        params = {"specs": [[4, 3, 0, 12]]}
        record = queue.submit("sweep", params)
        run_worker(tmp_path, queue=queue, store=store)
        assert queue.get(record.id).result_key == expected_result_key("sweep", params)

    def test_table_key_fills_runner_defaults(self):
        assert expected_result_key("table2", {}) == document_key(
            "table2", {"n": 5, "seed": 0}
        )
        assert expected_result_key("table1", {"seed": 2}) == document_key(
            "table1", {"n": 6, "seed": 2}
        )

    def test_unpredictable_kinds_return_none(self):
        assert expected_result_key("haruspicy", {}) is None
        assert expected_result_key("scenario", {"config": {"bogus": True}}) is None


class TestLeaseTakeoverRace:
    """Two workers spotting the same stale lease: exactly one wins, and
    the loser's attempt leaves the record uncorrupted."""

    def _stale_job(self, tmp_path, max_attempts=5):
        queue = JobQueue(os.path.join(tmp_path, "queue"), lease_ttl=0.05)
        record = queue.submit("noop", {"i": 0}, max_attempts=max_attempts)
        claimed = queue.claim()
        assert claimed is not None and claimed.id == record.id
        time.sleep(0.08)  # let the lease age past its TTL
        return record.id

    def test_orphaned_lease_on_queued_record_is_broken(self, tmp_path):
        """A worker dying between lease acquisition and the RUNNING
        write leaves a QUEUED record under a dead lease; claimants must
        break the corpse instead of skipping the job forever."""
        queue = JobQueue(os.path.join(tmp_path, "queue"), lease_ttl=0.05, owner="survivor")
        record = queue.submit("noop", {"i": 1})
        os.makedirs(queue.leases_dir, exist_ok=True)
        with open(queue.lease_path(record.id), "w", encoding="utf-8") as fh:
            json.dump({"owner": "corpse", "heartbeat": time.time()}, fh)
        # Fresh lease: looks like a rival claim in flight — back off.
        assert queue.claim() is None
        assert queue.stats()["lease_conflicts"] == 1
        time.sleep(0.08)  # the corpse never heartbeats; the lease goes stale
        taken = queue.claim()
        assert taken is not None and taken.id == record.id
        assert taken.status == RUNNING
        assert queue.stats()["takeovers"] == 1
        queue.heartbeat(record.id)  # the lease is ours now

    def test_concurrent_stale_claims_resolve_to_one_owner(self, tmp_path):
        import threading

        for rep in range(10):
            root = tmp_path / f"rep{rep}"
            job_id = self._stale_job(root)
            workers = [
                JobQueue(os.path.join(root, "queue"), lease_ttl=0.05, owner=f"w{k}")
                for k in range(2)
            ]
            barrier = threading.Barrier(2)
            results = [None, None]

            def contend(k):
                barrier.wait()
                results[k] = workers[k].claim()

            threads = [
                threading.Thread(target=contend, args=(k,)) for k in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            winners = [r for r in results if r is not None]
            assert len(winners) == 1, f"rep {rep}: {len(winners)} workers won"
            assert winners[0].id == job_id
            # One takeover happened fleet-wide, and the loser recorded a
            # conflict instead of a second ownership.
            takeovers = sum(w.counters["takeovers"] for w in workers)
            assert takeovers == 1
            # The record survived the race intact: parsable, running,
            # exactly one attempt charged.
            record = workers[0].get(job_id)
            assert record is not None
            assert record.status == RUNNING
            assert record.attempts == 1
            # And the winner's lease is live: a third worker sees
            # nothing claimable.
            third = JobQueue(os.path.join(root, "queue"), lease_ttl=30.0, owner="w3")
            assert third.claim() is None

    def test_loser_cannot_break_fresh_lease(self, tmp_path):
        # A slow loser that decided to break the lease *before* the
        # winner re-acquired must not unseat the winner afterwards: the
        # rename-based break targets the old lease file, which is gone.
        job_id = self._stale_job(tmp_path)
        winner = JobQueue(os.path.join(tmp_path, "queue"), lease_ttl=0.05, owner="w0")
        loser = JobQueue(os.path.join(tmp_path, "queue"), lease_ttl=0.05, owner="w1")
        assert winner.claim() is not None
        # The loser saw the pre-takeover stale lease; by the time it
        # acts, the winner holds a fresh one.  _break_lease renames the
        # *current* path, so simulate the stalest possible loser: the
        # lease is fresh now, so _lease_stale says no and claim skips it.
        assert loser.claim() is None
        winner.heartbeat(job_id)  # the winner still owns the lease

    @pytest.mark.parametrize("status", [QUEUED, RUNNING])
    def test_break_after_rival_takeover_restores_rival_lease(self, tmp_path, status):
        """The loser judges the corpse's lease stale; before it acts, a
        rival breaks the corpse and re-acquires.  The loser's rename then
        takes the rival's *fresh* lease: it must put it back and back
        off, not claim the job a second time (RUNNING: stale takeover)
        or leave the rival without a lease (QUEUED: corpse branch)."""
        root = os.path.join(tmp_path, "queue")
        corpse = JobQueue(root, owner="corpse")
        record = corpse.submit("noop", {"i": 2})
        if status == RUNNING:
            assert corpse.claim() is not None
        else:  # died between taking the lease and writing RUNNING
            assert corpse._try_acquire_lease(record.id)
        with open(corpse.lease_path(record.id), "w", encoding="utf-8") as fh:
            json.dump({"owner": "corpse", "heartbeat": time.time() - 3600}, fh)
        rival = JobQueue(root, lease_ttl=30.0, owner="rival")
        loser = JobQueue(root, lease_ttl=30.0, owner="loser")
        judge = loser._lease_stale
        rival_claims = []

        def judge_then_let_rival_claim(job_id):
            verdict = judge(job_id)
            loser._lease_stale = judge
            rival_claims.append(rival.claim())
            return verdict

        loser._lease_stale = judge_then_let_rival_claim
        assert loser.claim() is None
        assert [r.id for r in rival_claims if r is not None] == [record.id]
        assert (rival.lease_info(record.id) or {}).get("owner") == "rival"
        rival.heartbeat(record.id)
        stored = rival.get(record.id)
        assert stored.status == RUNNING
        assert stored.attempts == (1 if status == RUNNING else 0)
        assert loser.counters["takeovers"] == 0
        assert os.listdir(rival.leases_dir) == [f"{record.id}.lock"]  # no tombstone left


class TestKillResume:
    """The acceptance scenario: SIGKILL a worker mid-table, resume, and
    the final document is byte-for-byte what an uninterrupted run emits."""

    @pytest.mark.slow
    def test_sigkill_then_resume_yields_identical_document(self, tmp_path):
        interrupted_root = tmp_path / "interrupted"
        clean_root = tmp_path / "clean"
        params = {"n": 4, "seed": 0}

        # Uninterrupted reference run.
        clean_queue = open_queue(clean_root)
        clean_store = open_store(clean_root)
        clean_record = clean_queue.submit("table2", params)
        run_worker(clean_root, queue=clean_queue, store=clean_store)
        clean_key = clean_queue.get(clean_record.id).result_key
        clean_bytes = read_doc_bytes(clean_store, clean_key)

        # Interrupted run: spawn a worker subprocess, kill -9 it once it
        # has persisted at least one cell but before it can finish.
        queue = JobQueue(os.path.join(interrupted_root, "queue"), lease_ttl=0.5)
        store = open_store(interrupted_root)
        record = queue.submit("table2", params)
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro", "store", "--root", str(interrupted_root), "run"],
            env=_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.time() + 120
            while time.time() < deadline:
                progress = queue.get(record.id).progress
                if progress.get("units_done", 0) >= 1:
                    break
                if worker.poll() is not None:  # finished too fast: still fine
                    break
                time.sleep(0.02)
            else:
                pytest.fail("worker never reported progress")
        finally:
            if worker.poll() is None:
                os.kill(worker.pid, signal.SIGKILL)
            worker.wait()

        interrupted = queue.get(record.id)
        if interrupted.status != DONE:
            # The crash left a stale lease and a partially filled store;
            # a fresh worker must break the lease and finish the rest.
            time.sleep(0.6)  # let the lease age past its TTL
            hits_before = store.hits
            assert run_worker(interrupted_root, queue=queue, store=store) == 1
            assert store.hits > hits_before or store.puts > 0
        resumed = queue.get(record.id)
        assert resumed.status == DONE

        resumed_bytes = read_doc_bytes(store, resumed.result_key)
        assert resumed.result_key == clean_key
        assert resumed_bytes == clean_bytes


def _child_pids(pid):
    """The child processes of ``pid`` (Linux ``/proc``; empty elsewhere)."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            return fh.read().split()
    except OSError:
        return []


class TestNoOrphans:
    """A SIGKILLed ``store run`` worker leaves no process behind, even
    with ``REPRO_PARALLEL=1`` in its environment (the variable once
    forked a process pool inside table cells, whose children outlived a
    killed worker)."""

    def test_sigkilled_worker_leaves_no_process_group(self, tmp_path):
        queue = open_queue(tmp_path)
        record = queue.submit("table2", {"n": 5, "seed": 0})  # 12 units
        env = _env()
        env["REPRO_PARALLEL"] = "1"
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro", "store", "--root", str(tmp_path), "run"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        pgid = worker.pid  # a new session leads its own process group
        try:
            # Kill mid-job, after the first unit: as soon as the worker
            # has a child process, or at half the units if none shows up.
            deadline = time.time() + 120
            while True:
                done = queue.get(record.id).progress.get("units_done", 0)
                if done >= 6 or (done >= 1 and _child_pids(worker.pid)):
                    break
                assert worker.poll() is None, "worker exited mid-job"
                assert time.time() < deadline, "worker never reported progress"
                time.sleep(0.002)
            os.kill(worker.pid, signal.SIGKILL)
            worker.wait()
            deadline = time.time() + 5
            while True:
                try:
                    os.killpg(pgid, 0)
                except ProcessLookupError:
                    break
                assert time.time() < deadline, "the killed worker's process group is alive"
                time.sleep(0.05)
        finally:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            if worker.poll() is None:
                worker.kill()
                worker.wait()


class TestStoreCLI:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", "store", *args],
            env=_env(),
            capture_output=True,
            text=True,
        )

    def test_submit_run_result_status_gc(self, tmp_path):
        root = str(tmp_path)
        submitted = self.run_cli("--root", root, "submit", "table1", "--n", "4")
        assert submitted.returncode == 0
        record = json.loads(submitted.stdout)
        assert record["kind"] == "table1" and record["status"] == "queued"

        ran = self.run_cli("--root", root, "run")
        assert ran.returncode == 0, ran.stderr
        assert "processed 1 job(s)" in ran.stdout

        result = self.run_cli("--root", root, "result", record["id"])
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        assert doc["summary"]["verdict"] == "PASS"

        status = self.run_cli("--root", root, "status")
        payload = json.loads(status.stdout)
        assert payload["queue"]["done"] == 1
        assert payload["store"]["entries"] == 17  # 16 cells + the document

        gc = self.run_cli("--root", root, "gc")
        assert gc.returncode == 0
        assert json.loads(gc.stdout)["store"]["corrupt_entries"] == 0

    def test_result_before_run_explains(self, tmp_path):
        root = str(tmp_path)
        record = json.loads(
            self.run_cli("--root", root, "submit", "table1", "--n", "4").stdout
        )
        result = self.run_cli("--root", root, "result", record["id"])
        assert result.returncode == 1
        assert "no result document yet" in result.stderr

    def test_sweep_submit_requires_specs(self, tmp_path):
        out = self.run_cli("--root", str(tmp_path), "submit", "sweep")
        assert out.returncode != 0

    def test_sweep_submit_and_run(self, tmp_path):
        root = str(tmp_path)
        record = json.loads(
            self.run_cli(
                "--root", root, "submit", "sweep", "--spec", "4,3,0,12"
            ).stdout
        )
        assert record["params"] == {"specs": [[4, 3, 0, 12]]}
        ran = self.run_cli("--root", root, "run")
        assert ran.returncode == 0, ran.stderr
