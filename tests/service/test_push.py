"""Push, not poll: wake-ups between the service and its orchestrator.

With an embedded orchestrator (``serve --pools N``) a submission wakes
the orchestrator's idle claim loop and every job it settles wakes that
job's SSE streams.  Most tests here set *both* poll intervals to 30 s and
bound every wait at 5 s, so only a push can pass them.  The rest pin the
paths that stay on the poll (``--pools 0`` with an external worker) and
the teardown contract: however a stream ends, it leaves no waiter and no
task behind, and :meth:`ExperimentService.close` ends live connections
itself.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import socket
import threading
import time

import pytest

import repro.store.jobs as jobs_mod
from repro.service.client import ServiceError
from repro.store.jobs import (
    document_key,
    noop_document,
    open_queue,
    open_store,
    run_worker,
)

from .conftest import ServiceThread

#: Both poll intervals in the embedded tests: far beyond every bound.
SLOW = 30.0
#: Every wait a push must end.
BOUND = 5.0


def submit(thread, params):
    with thread.client() as client:
        return client.submit({"kind": "noop", "params": params})["id"]


def wait_for(predicate, within=10.0, what="condition"):
    deadline = time.monotonic() + within
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)


def wait_for_status(thread, job_id, status):
    queue = open_queue(thread.service.root)
    wait_for(lambda: queue.get(job_id).status == status, what=f"{job_id} {status}")


def follow(thread, job_id, within=BOUND):
    """Every event of the job's feed through ``end``, which must come
    within ``within`` seconds."""
    started = time.monotonic()
    with thread.client(timeout=within) as client:
        events = list(client.events(job_id))
    assert events[-1]["event"] == "end", [e["event"] for e in events]
    assert time.monotonic() - started < within
    return events


def waiters(thread):
    """A copy of the service's settle-waiter registry, read on its loop."""
    return thread.call(lambda: dict(thread.service._settle_waiters))


def gated_noop(release, fail=False):
    """A noop runner that blocks until ``release`` exists, then succeeds
    or raises.  Pool children are forked, so they inherit it."""
    original = jobs_mod._RUNNERS["noop"]

    def runner(queue, store, record):
        deadline = time.monotonic() + 30
        while not release.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        if fail:
            raise RuntimeError("gated noop failed on purpose")
        return original(queue, store, record)

    return runner


@pytest.fixture
def embedded(tmp_path):
    """Start a service with an embedded one-pool orchestrator, both
    polling every 30 s, once its orchestrator has made its first claim
    pass and gone idle."""
    threads = []

    def start():
        thread = ServiceThread(
            tmp_path / "root",
            poll_interval=SLOW,
            orchestrator={"pools": 1, "poll_interval": SLOW},
        )
        threads.append(thread)
        wait_for(
            lambda: thread.orchestrator.queue.stats()["listings"] >= 1,
            what="the first claim pass",
        )
        time.sleep(0.2)
        return thread

    yield start
    for thread in threads:
        thread.stop()


class TestEmbeddedPush:
    def test_submitted_job_ends_without_a_poll(self, embedded):
        thread = embedded()
        started = time.monotonic()
        job_id = submit(thread, {"i": 1})
        events = follow(thread, job_id)
        assert events[-1]["data"]["status"] == "done"
        assert time.monotonic() - started < BOUND
        assert waiters(thread) == {}

    def test_client_wait_and_run_follow_the_feed(self, embedded):
        thread = embedded()
        with thread.client(timeout=BOUND) as client:
            record = client.submit({"kind": "noop", "params": {"i": 2}})
            done = client.wait(record["id"], timeout=BOUND)
            status = client.run_status(record["id"])
            raw = client.run({"kind": "noop", "params": {"i": 3}}, timeout=BOUND)
        # The end event carries the record GET /v1/runs/{id} serves.
        assert done["status"] == "done"
        assert sorted(done) == sorted(status)
        assert done["links"] == status["links"]
        assert json.loads(raw)["payload"] == noop_document({"i": 3})

    def test_requeued_failure_sends_status_and_no_end(self, embedded, monkeypatch, tmp_path):
        release = tmp_path / "release"
        monkeypatch.setitem(jobs_mod._RUNNERS, "noop", gated_noop(release, fail=True))
        thread = embedded()
        try:
            job_id = submit(thread, {"i": 4})
            wait_for_status(thread, job_id, "running")
            with thread.client(timeout=BOUND) as client:
                feed = client.events(job_id)
                assert next(feed)["data"]["status"] == "running"
                release.touch()
                event = next(feed)
                assert event["event"] == "status"
                assert event["data"]["status"] == "queued"
                assert event["data"]["attempts"] == 1
                # No end: the stream is still live, waiting on the job.
                assert job_id in waiters(thread)
                feed.close()
        finally:
            release.touch()
        assert thread.orchestrator.stats["failed"] == 1

    def test_every_parked_duplicate_gets_end(self, embedded, monkeypatch, tmp_path):
        release = tmp_path / "release"
        monkeypatch.setitem(jobs_mod._RUNNERS, "noop", gated_noop(release))
        thread = embedded()
        try:
            first = submit(thread, {"i": 5})
            wait_for_status(thread, first, "running")
            # Same document identity, distinct job ids: both park behind
            # the first copy.
            twins = [submit(thread, {"i": 5, flag: True}) for flag in ("quotient", "vector")]
            for twin in twins:
                wait_for_status(thread, twin, "running")
            # The claim marks a twin running on disk before the
            # orchestrator parks it, so read the counter on its loop.
            wait_for(
                lambda: thread.call(lambda: thread.orchestrator.stats["dedup_inflight"]) == 2,
                within=BOUND,
                what="both twins parked",
            )
            assert thread.orchestrator.stats["dedup_inflight"] == 2
            clients = [thread.client(timeout=BOUND) for _ in range(3)]
            feeds = [c.events(j) for c, j in zip(clients, [first, *twins])]
            for feed in feeds:
                assert next(feed)["event"] == "snapshot"
            started = time.monotonic()
            release.touch()
            ends = [list(feed)[-1] for feed in feeds]
            assert time.monotonic() - started < BOUND
            for client in clients:
                client.close()
        finally:
            release.touch()
        key = document_key("noop", {"i": 5})
        assert [e["event"] for e in ends] == ["end"] * 3
        assert [e["data"]["result_key"] for e in ends] == [key] * 3
        stats = thread.orchestrator.stats
        assert (stats["dispatched"], stats["dedup_store"]) == (1, 2)
        assert waiters(thread) == {}

    def test_store_dedup_completion_wakes_its_stream(self, embedded):
        thread = embedded()
        root = thread.service.root
        params = {"i": 6}
        key = document_key("noop", params)
        open_store(root).put(key, noop_document(params), kind="noop-doc", params=params)
        # Queued behind the service's back: no 303, no wake-up.
        job_id = open_queue(root).submit("noop", {**params, "vector": True}).id
        with thread.client(timeout=BOUND) as client:
            feed = client.events(job_id)
            assert next(feed)["data"]["status"] == "queued"
            thread.call(thread.orchestrator.wake)
            end = list(feed)[-1]
        assert end["event"] == "end"
        assert end["data"]["result_key"] == key
        stats = thread.orchestrator.stats
        assert (stats["dispatched"], stats["dedup_store"]) == (0, 1)


class TestNoLostWakeUp:
    def test_settle_between_record_read_and_wait(self, tmp_path):
        """The job settles after the stream's loop has read the record
        (still queued) but before it waits: the wait must end at once."""
        thread = ServiceThread(tmp_path / "root", poll_interval=SLOW)
        service = thread.service
        read_record = service._record_payload
        seen = []

        def read_then_settle(job_id):
            payload = read_record(job_id)
            seen.append(payload["status"])
            if len(seen) == 2:  # the loop's first read; the wait is next
                queue = open_queue(service.root)
                assert queue.claim().id == job_id
                queue.complete(job_id, result_key=None)
                settled = threading.Event()

                def notify():
                    service.job_settled(job_id)
                    settled.set()

                thread.loop.call_soon_threadsafe(notify)
                assert settled.wait(BOUND)
            return payload

        try:
            job_id = submit(thread, {"i": 7})
            service._record_payload = read_then_settle
            events = follow(thread, job_id)
            assert seen[:2] == ["queued", "queued"]
            assert events[-1]["data"]["status"] == "done"
        finally:
            thread.stop()


class TestPollPath:
    def test_external_worker_reaches_end_through_the_poll(self, service_thread):
        """``--pools 0``: nothing in the loop settles the job, so the
        stream's poll must see the external worker's completion."""
        root = service_thread.service.root
        job_id = submit(service_thread, {"i": 8})
        with service_thread.client(timeout=BOUND) as client:
            feed = client.events(job_id)
            assert next(feed)["event"] == "snapshot"
            assert run_worker(root) == 1
            tail = list(feed)
        assert tail[-1]["event"] == "end"
        assert tail[-1]["data"]["status"] == "done"
        with service_thread.client(timeout=BOUND) as client:
            assert client.wait(job_id, timeout=BOUND)["status"] == "done"

    def test_wait_times_out_with_the_last_status(self, service_thread):
        job_id = submit(service_thread, {"i": 9})
        with service_thread.client() as client:
            started = time.monotonic()
            with pytest.raises(TimeoutError, match="still queued"):
                client.wait(job_id, timeout=0.3)
        assert time.monotonic() - started < 3

    def test_wait_maps_unknown_and_gone_runs_to_404(self, service_thread):
        job_id = submit(service_thread, {"i": 10})
        queue = open_queue(service_thread.service.root)
        with service_thread.client(timeout=BOUND) as client:
            with pytest.raises(ServiceError) as unknown:
                client.wait("no-such-run", timeout=BOUND)
            # The record vanishes (say, collected) while the client waits.
            remove = threading.Timer(0.2, os.remove, args=(queue.job_path(job_id),))
            remove.start()
            with pytest.raises(ServiceError) as gone:
                client.wait(job_id, timeout=BOUND)
            remove.join()
        assert unknown.value.status == 404
        assert gone.value.status == 404


def open_stream(thread, job_id):
    """A raw SSE connection, returned once its snapshot has arrived."""
    sock = socket.create_connection((thread.host, thread.port), timeout=10)
    sock.sendall(f"GET /v1/runs/{job_id}/events HTTP/1.1\r\n\r\n".encode("latin-1"))
    received = b""
    while b"event: snapshot" not in received:
        chunk = sock.recv(65536)
        assert chunk, "stream closed before its snapshot"
        received += chunk
    return sock


def read_to_eof(sock, within=BOUND):
    sock.settimeout(within)
    while sock.recv(65536):
        pass


def close_service(thread):
    asyncio.run_coroutine_threadsafe(thread.service.close(), thread.loop).result(10)


class TestTeardown:
    @pytest.mark.parametrize("ending", ["end", "disconnect", "404", "close"])
    def test_a_finished_stream_leaves_no_waiter(self, service_thread, ending):
        root = service_thread.service.root
        job_id = submit(service_thread, {"i": 11})
        if ending == "end":
            run_worker(root)
            follow(service_thread, job_id)
        elif ending == "disconnect":
            open_stream(service_thread, job_id).close()
        elif ending == "404":
            with service_thread.client() as client:
                with pytest.raises(ServiceError) as excinfo:
                    next(client.events("no-such-run"))
            assert excinfo.value.status == 404
        else:
            sock = open_stream(service_thread, job_id)
            assert job_id in waiters(service_thread)
            close_service(service_thread)
            read_to_eof(sock)
            sock.close()
        assert service_thread.wait_idle(), service_thread.pending_tasks()
        assert waiters(service_thread) == {}

    def test_close_ends_streams_and_idle_keepalive_connections(self, service_thread):
        job_id = submit(service_thread, {"i": 12})
        stream = open_stream(service_thread, job_id)
        idle = http.client.HTTPConnection(
            service_thread.host, service_thread.port, timeout=10
        )
        idle.request("GET", "/healthz")
        response = idle.getresponse()
        response.read()
        assert not response.will_close  # kept alive, now idle
        assert len(service_thread.pending_tasks()) >= 2
        started = time.monotonic()
        close_service(service_thread)
        assert time.monotonic() - started < BOUND
        assert service_thread.pending_tasks() == []
        assert waiters(service_thread) == {}
        read_to_eof(stream)
        read_to_eof(idle.sock)
        stream.close()
        idle.close()
