"""End-to-end: the service in front of real scenario execution.

The acceptance property of the whole serving layer is byte-identity —
a document fetched over HTTP (store envelope included) carries exactly
the payload a direct in-process :func:`run_scenario` produces.  The
serving layer adds transport, never interpretation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

import pytest

from repro.scenarios import document_bytes, run_scenario, validate_scenario
from repro.store.jobs import run_worker

#: One grid unit: tiny enough for CI, real enough to exercise the engine.
CONFIG = {
    "scenario": "service-e2e",
    "kind": "grid",
    "model": "one-bit broadcast",
    "rounds": 8,
    "seeds": [0],
    "graphs": [{"family": "complete", "sizes": [4]}],
    "probes": ["or-flood"],
    "inputs": "alternating",
}


@pytest.fixture(autouse=True)
def isolated_store_env(monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)


class TestHttpByteIdentity:
    def test_served_document_matches_direct_run(self, service_thread):
        with service_thread.client() as client:
            record = client.submit(CONFIG)
            assert record["status"] == "queued"
            run_worker(service_thread.service.root)
            done = client.wait(record["id"], timeout=60)
            assert done["status"] == "done"
            raw = client.result_bytes(done["result_key"])
        entry = json.loads(raw.decode("utf-8"))
        direct = run_scenario(validate_scenario(CONFIG, source="test"), store=None)
        assert document_bytes(entry["payload"]) == document_bytes(direct)

    def test_traced_run_streams_rounds_and_shares_the_key(self, service_thread):
        root = service_thread.service.root
        with service_thread.client() as client:
            record = client.submit(CONFIG, trace=True)
            assert record["status"] == "queued"
            worker = threading.Thread(target=run_worker, args=(root,), daemon=True)
            worker.start()
            events = list(client.events(record["id"]))
            worker.join(60)
            assert not worker.is_alive()

            traces = [e for e in events if e["event"] == "trace"]
            assert traces, f"no trace events in {[e['event'] for e in events]}"
            for trace in traces:
                assert trace["id"] is not None  # logged → resumable
                assert "round" in trace["data"]
                assert trace["data"]["graph"] == "complete"
            assert [e["event"] for e in events][-1] == "end"

            # The trace flag stays out of the scenario identity: an
            # untraced submission of the same config is already cached.
            second = client.submit(CONFIG)
        assert second["status"] == "cached"
        done = [e for e in events if e["event"] == "end"][0]
        assert second["result_key"] == done["data"]["result_key"]


class TestServeSubprocess:
    def test_embedded_orchestrator_end_to_end(self, tmp_path):
        """``python -m repro serve --port 0 --pools 1``: discover the
        ephemeral port from the announce line, run a scenario over HTTP
        end to end, and verify the served bytes against a direct run."""
        root = tmp_path / "root"
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--root",
                str(root),
                "--port",
                "0",
                "--pools",
                "1",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ),
            text=True,
        )
        try:
            announce = json.loads(process.stdout.readline())
            assert announce["event"] == "serving"
            assert announce["port"] != 0  # the *bound* port, not the request
            from repro.service.client import ServiceClient

            with ServiceClient(announce["host"], announce["port"], timeout=60) as client:
                health = client.healthz()
                assert health["status"] == "ok"
                assert health["orchestrator"] is not None  # embedded pools

                outcome = client.submit(CONFIG)
                if outcome.get("status") == "cached":  # pragma: no cover
                    raw = client.result_bytes(outcome["result_key"])
                else:
                    done = client.wait(outcome["id"], timeout=120)
                    assert done["status"] == "done", done.get("error")
                    raw = client.result_bytes(done["result_key"])
                stats = client.store_stats()
                assert stats["queue"]["done"] >= 1
            entry = json.loads(raw.decode("utf-8"))
            direct = run_scenario(
                validate_scenario(CONFIG, source="test"), store=None
            )
            assert document_bytes(entry["payload"]) == document_bytes(direct)
        finally:
            process.terminate()
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:  # pragma: no cover
                process.kill()
                process.wait(timeout=15)
            process.stdout.close()
            process.stderr.close()

    def test_sigterm_shuts_down_pool_workers(self, tmp_path):
        """SIGTERM must run the graceful path: the embedded
        orchestrator's fork children exit with the server instead of
        being orphaned (a leaked worker holds inherited stdio pipes
        open, which wedges any parent reading them to EOF)."""
        import time

        root = tmp_path / "root"
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--root",
                str(root),
                "--port",
                "0",
                "--pools",
                "1",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ),
            text=True,
        )
        try:
            announce = json.loads(process.stdout.readline())
            assert announce["event"] == "serving"
            time.sleep(1.0)  # let the orchestrator pre-warm its pool
            process.terminate()
            assert process.wait(timeout=15) == 0  # graceful, not -SIGTERM
            # The pool worker inherited our pipe handles; communicate()
            # only returns once every holder has exited.  A deadline'd
            # reader thread keeps a regression from hanging the suite.
            reader = threading.Thread(target=process.communicate, daemon=True)
            reader.start()
            reader.join(timeout=15)
            assert not reader.is_alive(), (
                "stdio pipes still open 15s after exit: orphaned workers"
            )
        finally:
            if process.poll() is None:  # pragma: no cover
                process.kill()
                process.wait(timeout=15)
