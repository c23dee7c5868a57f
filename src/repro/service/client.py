"""A thin stdlib client for the experiment service.

:class:`ServiceClient` wraps ``http.client`` — blocking, synchronous,
dependency-free — because that is what the callers look like: test
suites, CI scripts, benchmark drivers, and notebook cells that submit a
run and wait for its document.  One persistent keep-alive connection is
reused across calls and transparently reopened when the server drops it.

The client speaks exactly the service's API:

* :meth:`submit` posts a job or scenario config and returns the parsed
  response (a ``303`` cached short-circuit and a ``202`` accepted record
  are both normal outcomes, distinguished by ``"status"``);
* :meth:`wait` follows a run's SSE feed to its ``end`` event;
* :meth:`result_bytes` fetches canonical entry bytes, with optional
  conditional ``If-None-Match`` revalidation (``304`` returns ``None``);
* :meth:`events` generates the run's SSE feed — each yielded dict is one
  event, ids included, so a caller can resume after a disconnect by
  passing the last id it saw;
* :meth:`run` is the one-call convenience: submit, wait, fetch bytes.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any, Dict, Iterator, Optional, Tuple


class ServiceError(Exception):
    """An error response from the service, with its parsed body."""

    def __init__(self, status: int, payload: Any):
        message = payload
        if isinstance(payload, dict):
            message = payload.get("error", {}).get("message", payload)
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload


class ServiceClient:
    """A persistent-connection client bound to one service address."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self._conn: Optional[http.client.HTTPConnection] = None

    # -- plumbing -------------------------------------------------------- #

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One request over the persistent connection, retried once on a
        dropped keep-alive socket (the server is allowed to close an
        idle connection between our calls)."""
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers or {})
                response = conn.getresponse()
                payload = response.read()
            except (http.client.HTTPException, ConnectionError, OSError):
                self.close()
                if attempt:
                    raise
                continue
            return (
                response.status,
                {k.lower(): v for k, v in response.getheaders()},
                payload,
            )
        raise AssertionError("unreachable")  # pragma: no cover

    def _json(
        self,
        method: str,
        path: str,
        body: Optional[Any] = None,
        ok: Tuple[int, ...] = (200,),
    ) -> Any:
        encoded = None
        headers = {}
        if body is not None:
            encoded = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        status, _, payload = self._request(method, path, body=encoded, headers=headers)
        parsed = json.loads(payload.decode("utf-8")) if payload else None
        if status not in ok:
            raise ServiceError(status, parsed)
        return parsed

    # -- API ------------------------------------------------------------- #

    def healthz(self) -> Dict[str, Any]:
        return self._json("GET", "/healthz")

    def store_stats(self) -> Dict[str, Any]:
        return self._json("GET", "/v1/store/stats")

    def submit(self, job: Dict[str, Any], trace: bool = False) -> Dict[str, Any]:
        """Submit a raw job (``{"kind", "params"}``) or a bare scenario
        config.  Returns the ``202`` job record (``status: "queued"`` or
        later) or the ``303`` cache hit (``status: "cached"``, with its
        ``result_key``)."""
        path = "/v1/runs" + ("?trace=1" if trace else "")
        return self._json("POST", path, body=job, ok=(202, 303))

    def run_status(self, job_id: str) -> Dict[str, Any]:
        return self._json("GET", f"/v1/runs/{job_id}")

    def result_bytes(self, key: str, etag: Optional[str] = None) -> Optional[bytes]:
        """The canonical entry bytes of one result key; ``None`` means
        the conditional request revalidated (``304 Not Modified``)."""
        headers = {}
        if etag is not None:
            headers["If-None-Match"] = etag if etag.startswith('"') else f'"{etag}"'
        status, _, payload = self._request(
            "GET", f"/v1/results/{key}", headers=headers
        )
        if status == 304:
            return None
        if status != 200:
            parsed = json.loads(payload.decode("utf-8")) if payload else None
            raise ServiceError(status, parsed)
        return payload

    def wait(self, job_id: str, timeout: float = 120.0) -> Dict[str, Any]:
        """Follow a run's SSE feed until it is ``done`` or ``failed``;
        returns the ``end`` event's record, the same dict
        :meth:`run_status` returns.

        Raises :class:`TimeoutError` when the run is still going after
        ``timeout`` seconds, and :class:`ServiceError` 404 when the run
        is unknown or its record vanished while we watched.
        """
        deadline = time.monotonic() + timeout
        status = "unknown"
        try:
            for event in self._feed(job_id, 0, timeout, deadline):
                data = event["data"]
                if event["event"] in ("snapshot", "status"):
                    status = data["status"]
                elif event["event"] == "end":
                    if data.get("status") == "gone":
                        raise ServiceError(
                            404, {"error": {"message": f"run {job_id} is gone"}}
                        )
                    return data
        except socket.timeout as exc:
            raise TimeoutError(f"run {job_id} still {status} after {timeout}s") from exc
        raise ConnectionError(f"the event feed of run {job_id} closed before its end")

    def run(self, job: Dict[str, Any], timeout: float = 120.0) -> bytes:
        """Submit, wait, fetch: the document bytes of one job — whether
        it was freshly computed or served straight from the store."""
        outcome = self.submit(job)
        if outcome.get("status") == "cached":
            result = self.result_bytes(outcome["result_key"])
            assert result is not None
            return result
        record = self.wait(outcome["id"], timeout=timeout)
        if record["status"] != "done":
            raise ServiceError(500, {"error": {"message": record.get("error")}})
        result = self.result_bytes(record["result_key"])
        assert result is not None
        return result

    # -- SSE ------------------------------------------------------------- #

    def events(
        self, job_id: str, last_event_id: int = 0, timeout: Optional[float] = None
    ) -> Iterator[Dict[str, Any]]:
        """Generate the run's SSE feed as parsed events.

        Each yielded dict has ``event``, ``data`` (JSON-decoded), and
        ``id`` (``None`` for the service's synthesized per-connection
        events).  The generator ends when the service closes the feed —
        normally right after the terminal ``end`` event.  Uses its own
        connection: an SSE response has no Content-Length, so it cannot
        share the keep-alive socket.
        """
        return self._feed(
            job_id, last_event_id, self.timeout if timeout is None else timeout
        )

    def _feed(
        self,
        job_id: str,
        last_event_id: int,
        timeout: float,
        deadline: Optional[float] = None,
    ) -> Iterator[Dict[str, Any]]:
        """:meth:`events`, optionally raising ``socket.timeout`` once the
        ``time.monotonic()`` ``deadline`` passes, even mid-read."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            headers = {"Accept": "text/event-stream"}
            if last_event_id:
                headers["Last-Event-ID"] = str(last_event_id)
            conn.request("GET", f"/v1/runs/{job_id}/events", headers=headers)
            # The response takes the socket over (the stream is
            # Connection: close); keep it to bound each read.
            sock = conn.sock
            response = conn.getresponse()
            if response.status != 200:
                payload = response.read()
                parsed = json.loads(payload.decode("utf-8")) if payload else None
                raise ServiceError(response.status, parsed)
            event: Dict[str, Any] = {"event": "message", "data": None, "id": None}
            data_lines = []
            while True:
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise socket.timeout(f"deadline passed on run {job_id}")
                    sock.settimeout(remaining)
                raw = response.readline()
                if not raw:
                    return  # stream closed
                line = raw.decode("utf-8").rstrip("\r\n")
                if not line:
                    if data_lines:
                        event["data"] = json.loads("\n".join(data_lines))
                        yield event
                    event = {"event": "message", "data": None, "id": None}
                    data_lines = []
                    continue
                if line.startswith(":"):
                    continue  # keepalive comment
                name, _, value = line.partition(":")
                value = value[1:] if value.startswith(" ") else value
                if name == "event":
                    event["event"] = value
                elif name == "id":
                    try:
                        event["id"] = int(value)
                    except ValueError:
                        event["id"] = None
                elif name == "data":
                    data_lines.append(value)
        finally:
            conn.close()
