"""The experiment service: an asyncio HTTP API over the sharded store.

One :class:`ExperimentService` owns a listening socket and its own
queue/store handles over a scheduler root — the same
filesystem-coordination discipline every other process in the subsystem
uses, so the service composes freely with workers, orchestrators, and
the CLI operating on the same root.  Routes:

* ``POST /v1/runs`` — submit work: either a raw ``{"kind", "params"}``
  job or a bare scenario config (disambiguated by ``kind``: scenario
  configs say ``"table"``/``"grid"``, jobs say one of
  :data:`~repro.store.jobs.JOB_KINDS` — the two vocabularies are
  disjoint by construction).  A submission whose predicted document key
  is already in the store short-circuits to ``303 See Other``.
* ``GET /v1/runs/{id}`` — the job record, progress, heartbeat age.
* ``GET /v1/runs/{id}/events`` — live SSE feed (see
  :meth:`ExperimentService._stream_events`).
* ``GET /v1/results/{key}`` — canonical entry bytes straight off disk
  (:meth:`~repro.store.cache.ResultStore.get_bytes` — no re-encode),
  with ``ETag``/``If-None-Match`` conditional serving: result keys are
  content addresses, so the ETag *is* the key and entries are immutable.
* ``GET /v1/store/stats`` — :func:`~repro.store.jobs.store_status_payload`,
  byte-compatible with ``python -m repro store status --json``.
* ``GET /healthz`` — liveness, request counters, embedded-orchestrator
  stats when serving with one.

Everything that touches disk runs in the event loop's default thread
executor; handler coroutines themselves never block.  An SSE stream
lives inside its connection's handler coroutine plus at most one child
task, the pending read on its socket, which the handler cancels and
awaits on every way out.  So a client disconnect, the job's end or
:meth:`ExperimentService.close` leaves the loop exactly as it found it;
the test suite asserts this through ``asyncio.all_tasks()``.

``python -m repro serve --pools N`` runs the service and an
:class:`~repro.store.orchestrator.Orchestrator` on one event loop
(:meth:`ExperimentService.embed`), and the two push to each other
instead of waiting for timers: a submission wakes the orchestrator's
idle claim loop, and every job the orchestrator settles wakes that
job's SSE streams at once.  The poll intervals stay as the only path
for what the loop cannot see: external ``store run`` workers,
``--pools 0``, and progress/trace events appended by pool children.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
from typing import Any, Callable, Dict, Optional, Set, Tuple, Union

from repro.envflags import env_int
from repro.service.http import (
    DEFAULT_MAX_BODY,
    DEFAULT_MAX_HEAD,
    HttpError,
    Request,
    RequestReader,
    error_response,
    json_response,
    sse_comment,
    sse_event,
    sse_headers,
)
from repro.store.events import JobEventLog
from repro.store.jobs import (
    JOB_KINDS,
    expected_result_key,
    open_queue,
    open_store,
    store_status_payload,
)

#: Environment knobs for the listener (parsed via ``env_int`` — unset,
#: empty, unparsable, and out-of-range values fall back to the default).
SERVICE_PORT_ENV = "REPRO_SERVICE_PORT"
SERVICE_BACKLOG_ENV = "REPRO_SERVICE_BACKLOG"

#: Documented defaults behind the knobs.  Port 0 is legitimate — it
#: binds an ephemeral port, reported back via :attr:`ExperimentService.port`.
DEFAULT_PORT = 8765
DEFAULT_BACKLOG = 128

#: Scenario-config kinds, disjoint from JOB_KINDS by construction.
_SCENARIO_CONFIG_KINDS = ("table", "grid")

_RESULT_KEY_RE = re.compile(r"^[0-9a-f]{32}$")

#: Terminal job states (mirrors the scheduler's vocabulary).
_TERMINAL = ("done", "failed")


def service_port(default: int = DEFAULT_PORT) -> int:
    """The configured listener port, from ``REPRO_SERVICE_PORT=...``."""
    return env_int(SERVICE_PORT_ENV, default, minimum=0, maximum=65_535)


def service_backlog(default: int = DEFAULT_BACKLOG) -> int:
    """The configured accept backlog, from ``REPRO_SERVICE_BACKLOG=...``."""
    return env_int(SERVICE_BACKLOG_ENV, default, minimum=1)


def _etag_matches(header: Optional[str], key: str) -> bool:
    """RFC 9110 ``If-None-Match``, narrowed to our immutable entries:
    ``*`` matches anything on disk, and weak tags compare equal to
    strong ones (a byte-identical entry is the only thing a key can
    name)."""
    if header is None:
        return False
    if header.strip() == "*":
        return True
    for raw in header.split(","):
        tag = raw.strip()
        if tag.startswith("W/"):
            tag = tag[2:]
        if tag.strip('"') == key:
            return True
    return False


class ExperimentService:
    """The HTTP face of one scheduler root."""

    def __init__(
        self,
        root: Union[str, os.PathLike],
        queue=None,
        store=None,
        shards: Optional[int] = None,
        max_head: int = DEFAULT_MAX_HEAD,
        max_body: int = DEFAULT_MAX_BODY,
        poll_interval: float = 0.15,
        keepalive_interval: float = 15.0,
    ):
        self.root = os.fspath(root)
        self.store = store if store is not None else open_store(self.root)
        self.queue = queue if queue is not None else open_queue(self.root, shards=shards)
        self.events = JobEventLog(self.store.root)
        self.poll_interval = float(poll_interval)
        self.keepalive_interval = float(keepalive_interval)
        self.max_head = int(max_head)
        self.max_body = int(max_body)
        #: Embedded orchestrator (when serving with one, see
        #: :meth:`embed`); its live ``stats`` dict is surfaced in
        #: ``/healthz``.
        self.orchestrator = None
        self.counters: Dict[str, int] = {
            "requests": 0,
            "submitted": 0,
            "dedup_cached": 0,
            "results_served": 0,
            "results_not_modified": 0,
            "sse_streams": 0,
            "sse_events": 0,
            "errors": 0,
        }
        self._server: Optional[asyncio.AbstractServer] = None
        self._closing = False
        #: Live connection handlers and their writers, for close().
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        #: Per job id, the futures its SSE streams wait on; resolved by
        #: :meth:`job_settled`.
        self._settle_waiters: Dict[str, Set[asyncio.Future]] = {}
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    # -- lifecycle ------------------------------------------------------- #

    async def start(
        self,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        backlog: Optional[int] = None,
    ) -> "ExperimentService":
        """Bind and start accepting.  ``port=None`` defers to
        ``REPRO_SERVICE_PORT=...``; port 0 binds ephemerally and the
        real port is read back off the socket."""
        if port is None:
            port = service_port()
        if backlog is None:
            backlog = service_backlog()
        self._closing = False
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, backlog=backlog
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() the service first"
        await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting and end every live connection; returns once
        each handler has unwound.

        Closing a connection feeds its reader EOF, so an SSE stream or an
        idle keep-alive read ends through the same path as a client that
        hung up.  Only then is the server awaited: since Python 3.12,
        ``wait_closed()`` blocks while any connection is open.
        """
        if self._server is None:
            return
        self._closing = True
        self._server.close()
        for writer in list(self._connections.values()):
            writer.close()
        # A stream whose socket still holds unsent bytes sees no EOF until
        # they flush; waking it lets it notice its writer is closing.
        for job_id in list(self._settle_waiters):
            self.job_settled(job_id)
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        await self._server.wait_closed()
        self._server = None

    def embed(self, orchestrator) -> None:
        """Share this service's event loop with ``orchestrator`` (the
        caller runs its :meth:`~repro.store.orchestrator.Orchestrator.run`
        there): each submission wakes it, and each job it settles wakes
        that job's SSE streams."""
        self.orchestrator = orchestrator
        orchestrator.on_settle = self.job_settled

    def job_settled(self, job_id: str) -> None:
        """Wake the SSE streams of ``job_id`` now rather than at their
        next poll (call on the service's loop)."""
        for waiter in self._settle_waiters.pop(job_id, ()):
            if not waiter.done():
                waiter.set_result(None)

    def _settle_waiter(self, job_id: str) -> asyncio.Future:
        waiter = asyncio.get_running_loop().create_future()
        self._settle_waiters.setdefault(job_id, set()).add(waiter)
        return waiter

    def _drop_settle_waiter(self, job_id: str, waiter: asyncio.Future) -> None:
        waiters = self._settle_waiters.get(job_id)
        if waiters is not None:
            waiters.discard(waiter)
            if not waiters:
                del self._settle_waiters[job_id]

    @property
    def address(self) -> str:
        host = self.host or "?"
        if ":" in host:  # IPv6 literal
            host = f"[{host}]"
        return f"http://{host}:{self.port}"

    # -- connection loop ------------------------------------------------- #

    async def _handle_connection(self, reader, writer) -> None:
        parser = RequestReader(reader, max_head=self.max_head, max_body=self.max_body)
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while not self._closing:
                try:
                    request = await parser.read_request()
                except HttpError as exc:
                    self.counters["errors"] += 1
                    writer.write(error_response(exc, keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                self.counters["requests"] += 1
                keep_alive = request.keep_alive
                try:
                    streamed = await self._route(request, reader, writer)
                except HttpError as exc:
                    self.counters["errors"] += 1
                    keep_alive = keep_alive and not exc.close
                    writer.write(error_response(exc, keep_alive=keep_alive))
                except Exception as exc:  # noqa: BLE001 - handler bug, not protocol
                    self.counters["errors"] += 1
                    writer.write(
                        error_response(
                            HttpError(500, f"internal error: {exc!r}"),
                            keep_alive=False,
                        )
                    )
                    keep_alive = False
                    streamed = False
                else:
                    if streamed:
                        # An SSE stream consumed the connection; its
                        # response advertised Connection: close.
                        break
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to clean up beyond the writer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            finally:
                del self._connections[task]

    # -- routing --------------------------------------------------------- #

    async def _route(self, request: Request, reader, writer) -> bool:
        """Dispatch one request; returns True when the handler streamed
        the response itself (SSE) and the connection is spent."""
        path = request.path
        if path == "/healthz":
            self._expect(request, "GET")
            writer.write(self._healthz(request))
            return False
        if path == "/v1/store/stats":
            self._expect(request, "GET")
            payload = await self._in_executor(
                store_status_payload, self.queue, self.store
            )
            writer.write(json_response(200, payload, keep_alive=request.keep_alive))
            return False
        if path == "/v1/runs":
            self._expect(request, "POST")
            writer.write(await self._submit(request))
            return False
        match = re.fullmatch(r"/v1/runs/([A-Za-z0-9_.-]+)", path)
        if match:
            self._expect(request, "GET")
            writer.write(await self._run_status(request, match.group(1)))
            return False
        match = re.fullmatch(r"/v1/runs/([A-Za-z0-9_.-]+)/events", path)
        if match:
            self._expect(request, "GET")
            await self._stream_events(request, match.group(1), reader, writer)
            return True
        match = re.fullmatch(r"/v1/results/([A-Za-z0-9_.-]+)", path)
        if match:
            self._expect(request, "GET")
            writer.write(await self._result(request, match.group(1)))
            return False
        raise HttpError(404, f"no route for {request.method} {path}")

    @staticmethod
    def _expect(request: Request, method: str) -> None:
        if request.method != method:
            raise HttpError(
                405,
                f"{request.method} not allowed on {request.path}",
                headers={"Allow": method},
            )

    @staticmethod
    async def _in_executor(fn: Callable, *args) -> Any:
        """Run one blocking (filesystem-bound) call off the event loop."""
        return await asyncio.get_running_loop().run_in_executor(None, fn, *args)

    # -- handlers -------------------------------------------------------- #

    def _healthz(self, request: Request) -> bytes:
        payload: Dict[str, Any] = {
            "status": "ok",
            "root": self.root,
            "counters": dict(self.counters),
            "orchestrator": (
                dict(self.orchestrator.stats) if self.orchestrator is not None else None
            ),
        }
        return json_response(200, payload, keep_alive=request.keep_alive)

    def _parse_submission(self, request: Request) -> Dict[str, Any]:
        """Normalize a POST body to ``{"kind", "params"}`` — accepting
        both the raw job form and a bare scenario config."""
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(422, "submission must be a JSON object")
        kind = body.get("kind")
        if kind in _SCENARIO_CONFIG_KINDS:
            # A scenario config, submitted directly.  Validation errors
            # are the user's (422 for schema violations, 400 for
            # anything else typed); the *validated, normalized* form
            # rides in the job record, same as CLI submission.
            scenario = self._validate_config(body)
            params: Dict[str, Any] = {"config": scenario.normalized()}
            if request.query.get("trace") in ("1", "true", "yes"):
                params["trace"] = True
            return {"kind": "scenario", "params": params}
        if kind in JOB_KINDS:
            params = body.get("params", {})
            if not isinstance(params, dict):
                raise HttpError(422, '"params" must be a JSON object')
            if kind == "scenario":
                config = params.get("config")
                if config is None:
                    raise HttpError(422, 'scenario jobs need params["config"]')
                scenario = self._validate_config(config)
                params = dict(params)
                params["config"] = scenario.normalized()
            return {"kind": kind, "params": params}
        raise HttpError(
            422,
            f"unknown kind {kind!r}; expected a job kind {list(JOB_KINDS)} "
            f"or a scenario config kind {list(_SCENARIO_CONFIG_KINDS)}",
        )

    @staticmethod
    def _validate_config(config: Any):
        from repro.scenarios import (
            ScenarioError,
            ScenarioSchemaError,
            validate_scenario,
        )

        try:
            return validate_scenario(config, source="http:POST /v1/runs")
        except ScenarioSchemaError as exc:
            raise HttpError(422, str(exc)) from exc
        except ScenarioError as exc:
            raise HttpError(400, str(exc)) from exc

    async def _submit(self, request: Request) -> bytes:
        job = self._parse_submission(request)
        kind, params = job["kind"], job["params"]
        key = expected_result_key(kind, params)
        if key is not None and await self._in_executor(
            self.store.__contains__, key
        ):
            self.counters["dedup_cached"] += 1
            location = f"/v1/results/{key}"
            return json_response(
                303,
                {"status": "cached", "result_key": key, "location": location},
                headers={"Location": location},
                keep_alive=request.keep_alive,
            )
        record = await self._in_executor(
            lambda: self.queue.submit(kind, params)
        )
        if self.orchestrator is not None:
            self.orchestrator.wake()
        self.counters["submitted"] += 1
        location = f"/v1/runs/{record.id}"
        payload = record.to_dict()
        payload["links"] = {
            "self": location,
            "events": f"{location}/events",
            "expected_result": f"/v1/results/{key}" if key else None,
        }
        return json_response(
            202, payload, headers={"Location": location}, keep_alive=request.keep_alive
        )

    def _record_payload(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The status document of one job (blocking; run in executor)."""
        record = self.queue.get(job_id)
        if record is None:
            return None
        payload = record.to_dict()
        payload["heartbeat_age"] = self.queue.heartbeat_age(job_id)
        links = {"self": f"/v1/runs/{job_id}", "events": f"/v1/runs/{job_id}/events"}
        if record.status == "done" and record.result_key:
            links["result"] = f"/v1/results/{record.result_key}"
        payload["links"] = links
        return payload

    async def _run_status(self, request: Request, job_id: str) -> bytes:
        payload = await self._in_executor(self._record_payload, job_id)
        if payload is None:
            raise HttpError(404, f"no such run: {job_id}")
        return json_response(200, payload, keep_alive=request.keep_alive)

    async def _result(self, request: Request, key: str) -> bytes:
        if not _RESULT_KEY_RE.fullmatch(key):
            raise HttpError(404, f"no such result: {key!r} is not a result key")
        etag = f'"{key}"'
        if _etag_matches(request.header("if-none-match"), key):
            # Content-addressed entries are immutable: a matching tag
            # needs only an existence check, never a byte read.
            if await self._in_executor(self.store.__contains__, key):
                self.counters["results_not_modified"] += 1
                return json_response(
                    304,
                    {},
                    headers={"ETag": etag},
                    keep_alive=request.keep_alive,
                )
        raw = await self._in_executor(self.store.get_bytes, key)
        if raw is None:
            raise HttpError(404, f"no such result: {key}")
        self.counters["results_served"] += 1
        from repro.service.http import response_bytes

        return response_bytes(
            200,
            raw,
            headers={
                "Content-Type": "application/json; charset=utf-8",
                "ETag": etag,
                "Cache-Control": "public, max-age=31536000, immutable",
            },
            keep_alive=request.keep_alive,
        )

    # -- SSE ------------------------------------------------------------- #

    async def _stream_events(self, request, job_id: str, reader, writer) -> None:
        """The live feed of one run, as Server-Sent Events.

        Two species of event share the stream.  *Logged* events —
        ``progress`` updates and round-level ``trace`` metric snapshots,
        appended durably by whichever process runs the job — carry their
        log ids, so a client reconnecting with ``Last-Event-ID: n``
        resumes at ``n+1`` with no duplicates and no gaps.  *Synthesized*
        events — the opening ``snapshot`` of the job record, ``status``
        transitions observed while streaming, and the terminal ``end`` —
        are per-connection and carry **no** id, so they can never
        advance a client's resume cursor into skipping logged events.

        One loop serves the stream.  Each pass sends what is new, then
        waits for the first of three things: EOF on the socket (an SSE
        client sends nothing after its request, so EOF means it hung up
        and stray bytes are ignored), a settle wake-up from
        :meth:`job_settled`, or the poll timeout, which picks up logged
        events and work this loop cannot see.  The wake-up is armed
        before each pass reads the record, so a job that settles between
        that read and the wait ends the wait at once.
        """
        settled = self._settle_waiter(job_id)
        read: Optional[asyncio.Future] = None
        try:
            payload = await self._in_executor(self._record_payload, job_id)
            if payload is None:
                raise HttpError(404, f"no such run: {job_id}")
            last_id = 0
            raw_resume = request.header("last-event-id")
            if raw_resume is not None:
                try:
                    last_id = max(0, int(raw_resume))
                except ValueError:
                    last_id = 0
            self.counters["sse_streams"] += 1
            writer.write(sse_headers(keep_alive=False))
            writer.write(sse_event(payload, event="snapshot"))
            await writer.drain()
            last_status = payload["status"]
            idle = 0.0
            while True:
                if settled.done():
                    settled = self._settle_waiter(job_id)
                last_id, wrote = await self._send_logged(job_id, last_id, writer)
                payload = await self._in_executor(self._record_payload, job_id)
                if payload is None:  # record GC'd mid-stream: treat as gone
                    writer.write(sse_event({"status": "gone"}, event="end"))
                    await writer.drain()
                    return
                if payload["status"] != last_status:
                    last_status = payload["status"]
                    writer.write(sse_event(payload, event="status"))
                    wrote = True
                if payload["status"] in _TERMINAL:
                    # Drain anything the runner logged between our read and
                    # the terminal transition, then close the feed.
                    await self._send_logged(job_id, last_id, writer)
                    writer.write(sse_event(payload, event="end"))
                    await writer.drain()
                    return
                if wrote:
                    idle = 0.0
                    await writer.drain()
                elif idle >= self.keepalive_interval:
                    idle = 0.0
                    writer.write(sse_comment())
                    await writer.drain()
                if read is None:
                    read = asyncio.ensure_future(reader.read(4096))
                done, _ = await asyncio.wait(
                    {read, settled},
                    timeout=self.poll_interval,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if read in done:
                    if read.exception() is not None or not read.result():
                        return  # client disconnected
                    read = None
                elif not done:
                    idle += self.poll_interval
                if writer.is_closing():
                    return
        finally:
            self._drop_settle_waiter(job_id, settled)
            if read is not None:
                read.cancel()
                await asyncio.wait({read})
                if not read.cancelled():
                    read.exception()  # retrieved, so never reported as lost

    async def _send_logged(self, job_id: str, last_id: int, writer) -> Tuple[int, bool]:
        """Write the logged events after ``last_id``; returns the new
        resume cursor and whether anything was written."""
        events = await self._in_executor(self.events.read, job_id, last_id)
        for record in events:
            writer.write(
                sse_event(record["data"], event=record["event"], event_id=record["id"])
            )
            last_id = record["id"]
            self.counters["sse_events"] += 1
        return last_id, bool(events)


def publish_service_metrics(registry, counters: Dict[str, int]) -> None:
    """Fold service request counters into a ``MetricsRegistry``
    (``service_requests``, ``service_results_served``, ...) — the same
    convention as the orchestrator's and engine's publishers."""
    for name, value in counters.items():
        registry.counter(f"service_{name}").inc(int(value))


# -- embedded serve mode -------------------------------------------------- #


async def serve_async(
    root: Union[str, os.PathLike],
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    backlog: Optional[int] = None,
    shards: Optional[int] = None,
    pools: int = 1,
    pool_workers: int = 1,
    window: Optional[int] = None,
    announce: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> None:
    """Serve one scheduler root until cancelled.

    With ``pools >= 1`` an :class:`~repro.store.orchestrator.Orchestrator`
    runs *in the same event loop* (``idle_exit=False`` — it naps when the
    queue drains instead of exiting), so a single ``python -m repro
    serve`` process both accepts submissions and executes them, and
    :meth:`ExperimentService.embed` lets each wake the other.
    ``pools=0`` serves the API only — submissions then wait for external
    workers on the same root.  ``announce`` receives one dict with the
    bound address once the socket is live (the CLI prints it as JSON so
    scripts can discover an ephemeral port).
    """
    service = ExperimentService(root, shards=shards)
    await service.start(host=host, port=port, backlog=backlog)
    orchestrator_task = None
    if pools >= 1:
        from repro.store.orchestrator import Orchestrator

        orchestrator = Orchestrator(
            root,
            shards=shards,
            pools=pools,
            pool_workers=pool_workers,
            window=window,
            idle_exit=False,
        )
        service.embed(orchestrator)
        orchestrator_task = asyncio.ensure_future(orchestrator.run())
    if announce is not None:
        announce(
            {
                "event": "serving",
                "host": service.host,
                "port": service.port,
                "root": service.root,
                "pools": pools,
                "pid": os.getpid(),
            }
        )
    # SIGTERM/SIGINT must run the shutdown path below, not kill the
    # process mid-flight: the embedded orchestrator owns process pools,
    # and an abrupt exit orphans their fork children (`terminate()`ing
    # a serve subprocess used to leak one worker per pool).
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    handled_signals = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
            handled_signals.append(signum)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-Unix loop or nested loop: fall back to default
    serve_task = asyncio.ensure_future(service.serve_forever())
    stop_task = asyncio.ensure_future(stop.wait())
    try:
        await asyncio.wait(
            {serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
        )
    except asyncio.CancelledError:
        pass
    finally:
        for signum in handled_signals:
            loop.remove_signal_handler(signum)
        # close() first: it ends serve_forever(), whose own cancellation
        # path awaits wait_closed() and so, since Python 3.12, every
        # connection that close() ends.
        await service.close()
        for task in (serve_task, stop_task):
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        if orchestrator_task is not None:
            # Cancelling lets Orchestrator.run()'s own finally block
            # drain in-flight dispatches and shut its pools down.
            orchestrator_task.cancel()
            try:
                await orchestrator_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass


def serve(root, **kwargs) -> int:
    """Blocking entry point for ``python -m repro serve``; returns an
    exit code (Ctrl-C is a clean shutdown, not a traceback)."""
    try:
        asyncio.run(serve_async(root, **kwargs))
    except KeyboardInterrupt:
        return 0
    return 0
