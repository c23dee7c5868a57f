"""The service's routes, driven over real sockets.

Everything here goes through a live listener on an ephemeral port and
the blocking :class:`ServiceClient` (or a raw ``http.client`` connection
when the test needs to see status codes and headers the client
normalizes away).
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.service.client import ServiceError
from repro.store.cache import result_key
from repro.store.jobs import document_key, open_queue, open_store, run_worker


def raw_request(thread, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection(thread.host, thread.port, timeout=10)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(
            (k.lower(), v) for k, v in response.getheaders()
        ), response.read()
    finally:
        conn.close()


class TestBasicRoutes:
    def test_healthz(self, service_thread):
        with service_thread.client() as client:
            payload = client.healthz()
        assert payload["status"] == "ok"
        assert "requests" in payload["counters"]
        assert payload["orchestrator"] is None  # no embedded orchestrator here

    def test_store_stats_matches_cli_schema(self, service_thread):
        with service_thread.client() as client:
            payload = client.store_stats()
        # Same shape as `python -m repro store status --json`.
        from repro.store.jobs import store_status_payload

        direct = store_status_payload(
            open_queue(service_thread.service.root),
            open_store(service_thread.service.root),
        )
        assert sorted(payload) == sorted(direct)
        assert payload["engine_version"] == direct["engine_version"]

    def test_unknown_route_is_json_404(self, service_thread):
        status, headers, body = raw_request(service_thread, "GET", "/nope")
        assert status == 404
        assert headers["content-type"].startswith("application/json")
        error = json.loads(body)["error"]
        assert error["status"] == 404
        assert "/nope" in error["message"]

    def test_wrong_method_is_405_with_allow(self, service_thread):
        status, headers, body = raw_request(service_thread, "DELETE", "/healthz")
        assert status == 405
        assert headers["allow"] == "GET"
        assert json.loads(body)["error"]["status"] == 405

    def test_oversized_head_is_431(self, service_thread):
        status, _, body = raw_request(
            service_thread, "GET", "/healthz", headers={"X-Pad": "a" * 20_000}
        )
        assert status == 431
        assert json.loads(body)["error"]["status"] == 431

    def test_keep_alive_and_pipelining_over_one_socket(self, service_thread):
        import socket as socketlib

        with socketlib.create_connection(
            (service_thread.host, service_thread.port), timeout=10
        ) as sock:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\n\r\n" b"GET /healthz HTTP/1.1\r\n\r\n"
            )
            received = b""
            while received.count(b"HTTP/1.1 200 OK") < 2:
                chunk = sock.recv(65536)
                assert chunk, "connection closed before both responses"
                received += chunk
        assert received.count(b"Connection: keep-alive") == 2


class TestSubmission:
    def test_invalid_json_body_is_400(self, service_thread):
        status, _, body = raw_request(
            service_thread, "POST", "/v1/runs", body=b"{not json"
        )
        assert status == 400

    def test_non_object_body_is_422(self, service_thread):
        status, _, _ = raw_request(service_thread, "POST", "/v1/runs", body=b"[1]")
        assert status == 422

    def test_unknown_kind_is_422(self, service_thread):
        with service_thread.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.submit({"kind": "frobnicate"})
        assert excinfo.value.status == 422
        assert "frobnicate" in str(excinfo.value)

    def test_scenario_schema_violation_is_422(self, service_thread):
        with service_thread.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.submit({"scenario": "x", "kind": "grid"})  # missing keys
        assert excinfo.value.status == 422

    @pytest.mark.parametrize("flag, value", [("parallel", True), ("workers", 2)])
    def test_retired_pool_engine_flag_is_422(self, service_thread, flag, value):
        config = {
            "scenario": "retired",
            "kind": "table",
            "table": 1,
            "seed": 0,
            "engine": {flag: value},
        }
        with service_thread.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.submit(config)
        assert excinfo.value.status == 422
        assert f"engine.{flag}" in str(excinfo.value)

    def test_submit_noop_returns_202_with_links(self, service_thread):
        with service_thread.client() as client:
            record = client.submit({"kind": "noop", "params": {"i": 1}})
        assert record["status"] == "queued"
        assert record["kind"] == "noop"
        assert record["links"]["self"] == f"/v1/runs/{record['id']}"
        assert record["links"]["events"].endswith("/events")
        status, headers, _ = raw_request(
            service_thread,
            "POST",
            "/v1/runs",
            body=json.dumps({"kind": "noop", "params": {"i": 1}}).encode(),
        )
        assert status == 202  # resubmission is idempotent, still queued
        assert headers["location"] == f"/v1/runs/{record['id']}"

    def test_submit_is_303_once_result_is_cached(self, service_thread):
        job = {"kind": "noop", "params": {"i": 7}}
        with service_thread.client() as client:
            first = client.submit(job)
            assert first["status"] == "queued"
            run_worker(service_thread.service.root)  # execute it
            second = client.submit(job)
        assert second["status"] == "cached"
        assert second["result_key"] == document_key("noop", {"i": 7})
        status, headers, _ = raw_request(
            service_thread, "POST", "/v1/runs", body=json.dumps(job).encode()
        )
        assert status == 303
        assert headers["location"] == f"/v1/results/{second['result_key']}"

    def test_run_status_and_404(self, service_thread):
        with service_thread.client() as client:
            record = client.submit({"kind": "noop", "params": {"i": 9}})
            fetched = client.run_status(record["id"])
            assert fetched["status"] == "queued"
            assert fetched["heartbeat_age"] is None  # not leased yet
            run_worker(service_thread.service.root)
            done = client.wait(record["id"], timeout=30)
            assert done["status"] == "done"
            assert done["links"]["result"] == f"/v1/results/{done['result_key']}"
            with pytest.raises(ServiceError) as excinfo:
                client.run_status("no-such-job")
        assert excinfo.value.status == 404


class TestResults:
    def put_one(self, service_thread, payload=None):
        store = open_store(service_thread.service.root)
        key = result_key("demo", {"x": 1})
        store.put(key, payload or {"hello": "world"}, kind="demo", params={"x": 1})
        return store, key

    def test_served_bytes_are_the_entry_bytes(self, service_thread):
        store, key = self.put_one(service_thread)
        with service_thread.client() as client:
            served = client.result_bytes(key)
        with open(store.entry_path(key), "rb") as fh:
            assert served == fh.read()

    def test_etag_and_304(self, service_thread):
        _, key = self.put_one(service_thread)
        status, headers, body = raw_request(service_thread, "GET", f"/v1/results/{key}")
        assert status == 200
        assert headers["etag"] == f'"{key}"'
        assert "immutable" in headers["cache-control"]
        status, headers, body = raw_request(
            service_thread,
            "GET",
            f"/v1/results/{key}",
            headers={"If-None-Match": f'"{key}"'},
        )
        assert status == 304
        assert headers["etag"] == f'"{key}"'
        assert body == b""
        with service_thread.client() as client:
            assert client.result_bytes(key, etag=key) is None  # revalidated

    def test_if_none_match_variants(self, service_thread):
        _, key = self.put_one(service_thread)
        for header in ("*", f'W/"{key}"', f'"other", "{key}"'):
            status, _, _ = raw_request(
                service_thread,
                "GET",
                f"/v1/results/{key}",
                headers={"If-None-Match": header},
            )
            assert status == 304, header
        status, _, _ = raw_request(
            service_thread,
            "GET",
            f"/v1/results/{key}",
            headers={"If-None-Match": '"mismatch"'},
        )
        assert status == 200

    def test_missing_and_malformed_keys_are_404(self, service_thread):
        with service_thread.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.result_bytes("0" * 32)
            assert excinfo.value.status == 404
            with pytest.raises(ServiceError) as excinfo:
                client.result_bytes("not-a-key")
            assert excinfo.value.status == 404
        # A conditional request for a missing entry must not 304.
        status, _, _ = raw_request(
            service_thread,
            "GET",
            f"/v1/results/{'0' * 32}",
            headers={"If-None-Match": "*"},
        )
        assert status == 404

    def test_counters_track_serving(self, service_thread):
        _, key = self.put_one(service_thread)
        with service_thread.client() as client:
            client.result_bytes(key)
            client.result_bytes(key, etag=key)
            health = client.healthz()
        assert health["counters"]["results_served"] >= 1
        assert health["counters"]["results_not_modified"] >= 1
