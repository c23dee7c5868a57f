"""An asyncio dispatcher that keeps N process pools fed from the queue.

:func:`run_worker` is one process pulling one job at a time — fine for a
laptop, wasteful for a fleet: between finishing a job and claiming the
next, the worker does queue I/O while its CPU idles.  The
:class:`Orchestrator` inverts that: a single asyncio event loop owns the
claim path and streams leased jobs into ``N`` local
:class:`~concurrent.futures.ProcessPoolExecutor` pools, so the
(filesystem-bound) dispatch work and the (CPU-bound) job work overlap.

The loop maintains a bounded **in-flight window** (claimed-but-unfinished
jobs).  Whenever the window has room it claims a whole batch — one
directory listing amortized over many claims, the sharded queue's
cheapest unit of work — and dispatches each job to the least-loaded
pool.  A pool that has stopped finishing work (no completion for
``stall_timeout`` seconds while jobs are in flight) is marked stalled
and routed around until it produces a completion; that is the whole
rebalancing story — no migration of already-dispatched jobs, just no new
work for a wedged pool.

Leases never expire under a live orchestrator: a heartbeat task refreshes
every in-flight lease each ``heartbeat_interval`` (default from
``REPRO_HEARTBEAT_SECONDS=...``) from the event loop, so a job may run
arbitrarily long without being stolen — while a SIGKILLed orchestrator
stops heartbeating everything at once, and its whole window is recovered
by surviving claimants after ``REPRO_LEASE_STALE_SECONDS=...``.

When a process embeds the orchestrator next to other components on one
event loop (``python -m repro serve --pools N``), they talk in-process
instead of through timers: :meth:`Orchestrator.wake` cuts an idle nap
short the moment a job is submitted, and :attr:`Orchestrator.on_settle`
hears about every job the orchestrator settles.  The poll interval stays
the only path for work it cannot see, such as submissions by other
processes on the same root.

Dedup rides the content-addressed store: before dispatching, the
orchestrator predicts the job's document key
(:func:`~repro.store.jobs.expected_result_key`).  A key already in the
store completes the job immediately without dispatch; a key already in
flight parks the duplicate until the first copy lands, then completes it
from the store.  Identical work dispatches once per fleet, not once per
submission.

Child processes run :func:`~repro.store.jobs.run_job` against their own
``JobQueue`` handle *sharing the parent's owner token*, so in-runner
heartbeats and the parent's heartbeat task refresh the same lease
identity.  Pools use the platform default start method; on fork
platforms the child inherits the parent's imported modules — the PR-2
payload discipline — and pools are pre-warmed before the event loop
spins up its own helper threads.
"""

from __future__ import annotations

import asyncio
import os
import socket
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Union

from repro.store.cache import ResultStore
from repro.store.jobs import expected_result_key, open_queue, open_store, run_job
from repro.store.scheduler import (
    JobQueue,
    JobRecord,
    LeaseBroken,
    default_heartbeat_seconds,
)
from repro.store.shard import ShardedJobQueue

#: How long a pool may go without completing anything (while loaded)
#: before new work is routed around it.
DEFAULT_STALL_TIMEOUT = 30.0


def _pool_execute(root: str, owner: str, record_data: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job inside a pool worker.

    Opens its own queue/store handles (layout is rediscovered from the
    shard manifest, so parent and child agree) under the *parent's*
    owner token, so the runner's own heartbeats refresh the lease the
    orchestrator holds.  Completion/failure is recorded here, in the
    child, keeping the record transition adjacent to the work.
    """
    queue = open_queue(root, owner=owner)
    store = open_store(root)
    record = JobRecord.from_dict(record_data)
    try:
        key = run_job(queue, store, record)
    except Exception as exc:  # noqa: BLE001 - the job's failure, not ours
        import traceback

        queue.fail(record.id, traceback.format_exc(limit=8))
        return {"id": record.id, "ok": False, "error": repr(exc), "result_key": None}
    queue.complete(record.id, result_key=key)
    return {"id": record.id, "ok": True, "error": None, "result_key": key}


class _Pool:
    """One executor plus the load/stall bookkeeping routing decisions use."""

    __slots__ = ("executor", "inflight", "last_done", "stalled")

    def __init__(self, executor: ProcessPoolExecutor):
        self.executor = executor
        self.inflight = 0
        self.last_done = time.monotonic()
        self.stalled = False


class Orchestrator:
    """Claim from the (sharded) queue, saturate N process pools."""

    def __init__(
        self,
        root: Union[str, os.PathLike],
        queue: Optional[Union[JobQueue, ShardedJobQueue]] = None,
        store: Optional[ResultStore] = None,
        shards: Optional[int] = None,
        pools: int = 2,
        pool_workers: int = 1,
        window: Optional[int] = None,
        heartbeat_interval: Optional[float] = None,
        stall_timeout: float = DEFAULT_STALL_TIMEOUT,
        poll_interval: float = 0.05,
        max_jobs: Optional[int] = None,
        idle_exit: bool = True,
    ):
        self.root = os.fspath(root)
        if queue is not None:
            # Adopt the queue's owner token so the leases it acquired,
            # the heartbeat task here, and the in-runner heartbeats in
            # pool children all refresh one lease identity.
            self.queue = queue
            self._owner = getattr(queue, "_owner", f"{socket.gethostname()}:{os.getpid()}")
        else:
            self._owner = f"{socket.gethostname()}:{os.getpid()}:orchestrator"
            self.queue = open_queue(self.root, shards=shards, owner=self._owner)
        self.store = store if store is not None else open_store(self.root)
        if pools < 1:
            raise ValueError(f"need at least one pool, got {pools}")
        self.n_pools = int(pools)
        self.pool_workers = max(1, int(pool_workers))
        self.window = (
            int(window) if window is not None else self.n_pools * self.pool_workers * 4
        )
        self.heartbeat_interval = (
            float(heartbeat_interval)
            if heartbeat_interval is not None
            else default_heartbeat_seconds()
        )
        self.stall_timeout = float(stall_timeout)
        self.poll_interval = float(poll_interval)
        self.max_jobs = max_jobs
        self.idle_exit = bool(idle_exit)
        self._pools: List[_Pool] = []
        self._rr = 0
        self._inflight_ids: Dict[str, JobRecord] = {}
        self._inflight_keys: Dict[str, str] = {}  # result_key -> job id
        self._waiters: Dict[str, List[JobRecord]] = {}
        self._dispatch_tasks: "set" = set()
        #: Created by run(), so it belongs to the loop that runs it.
        self._wake: Optional[asyncio.Event] = None
        #: Called on the loop with the id of every job this orchestrator
        #: settles: completed, failed, requeued or served from the store.
        self.on_settle: Optional[Callable[[str], None]] = None
        self.stats: Dict[str, int] = {
            "claimed": 0,
            "dispatched": 0,
            "completed": 0,
            "failed": 0,
            "dedup_store": 0,
            "dedup_inflight": 0,
            "rebalanced": 0,
            "pool_stalls": 0,
            "pool_failures": 0,
            "heartbeats": 0,
            "lease_lost": 0,
        }

    # -- pool routing --------------------------------------------------- #

    def _refresh_stall_flags(self) -> None:
        now = time.monotonic()
        for pool in self._pools:
            wedged = pool.inflight > 0 and now - pool.last_done > self.stall_timeout
            if wedged and not pool.stalled:
                self.stats["pool_stalls"] += 1
            pool.stalled = wedged

    def _choose_pool(self) -> _Pool:
        """Least-loaded healthy pool, round-robin among ties.

        Sorting key: stalled pools last, then by in-flight load, then by
        round-robin distance so equal-load pools take turns.  Choosing a
        pool other than the round-robin next (because it was loaded or
        stalled) counts as a rebalance.
        """
        self._refresh_stall_flags()
        n = len(self._pools)
        rr_next = self._rr % n

        def rank(i: int):
            pool = self._pools[i]
            return (pool.stalled, pool.inflight, (i - rr_next) % n)

        choice = min(range(n), key=rank)
        if choice != rr_next:
            self.stats["rebalanced"] += 1
        self._rr = choice + 1
        return self._pools[choice]

    # -- wake-ups --------------------------------------------------------- #

    def wake(self) -> None:
        """End the current idle nap now (call on the loop running
        :meth:`run`): new work was submitted."""
        if self._wake is not None:
            self._wake.set()

    def _settled(self, job_id: str) -> None:
        if self.on_settle is not None:
            self.on_settle(job_id)

    async def _nap(self, timeout: float) -> None:
        try:
            await asyncio.wait_for(self._wake.wait(), timeout=timeout)
        except asyncio.TimeoutError:
            pass

    # -- admission and dispatch ----------------------------------------- #

    def _inflight_total(self) -> int:
        return len(self._inflight_ids) + sum(len(w) for w in self._waiters.values())

    def _admit(self, record: JobRecord) -> None:
        """Route one freshly leased job: complete from the store, park
        behind an identical in-flight job, or dispatch to a pool."""
        key = expected_result_key(record.kind, record.params)
        if key is not None and key in self.store:
            self.queue.complete(record.id, result_key=key)
            self.stats["dedup_store"] += 1
            self.stats["completed"] += 1
            self._settled(record.id)
            return
        if key is not None and key in self._inflight_keys:
            self._waiters.setdefault(key, []).append(record)
            self.stats["dedup_inflight"] += 1
            return
        if key is not None:
            self._inflight_keys[key] = record.id
        self._inflight_ids[record.id] = record
        task = asyncio.ensure_future(self._dispatch(record, key))
        self._dispatch_tasks.add(task)
        task.add_done_callback(self._dispatch_tasks.discard)

    async def _dispatch(self, record: JobRecord, key: Optional[str]) -> None:
        loop = asyncio.get_running_loop()
        pool = self._choose_pool()
        pool.inflight += 1
        self.stats["dispatched"] += 1
        try:
            outcome = await loop.run_in_executor(
                pool.executor, _pool_execute, self.root, self._owner, record.to_dict()
            )
        except Exception as exc:  # noqa: BLE001 - pool plumbing, not the job
            # BrokenProcessPool and friends: the *pool* died, not the job
            # logic.  Fail the job from the parent (requeue-with-backoff)
            # and let routing steer around the broken pool via its stall.
            self.stats["pool_failures"] += 1
            outcome = {"id": record.id, "ok": False, "error": repr(exc), "result_key": None}
            try:
                self.queue.fail(record.id, f"pool execution failed: {exc!r}")
            except Exception:
                pass
        finally:
            pool.inflight -= 1
            pool.last_done = time.monotonic()
        self._inflight_ids.pop(record.id, None)
        if key is not None:
            self._inflight_keys.pop(key, None)
        if outcome.get("ok"):
            self.stats["completed"] += 1
        else:
            self.stats["failed"] += 1
        self._settled(record.id)
        if key is not None:
            # Whatever happened to the winner, re-admit the parked
            # duplicates: a success completes them straight from the
            # store; a failure re-dispatches one of them.
            for waiter in self._waiters.pop(key, []):
                self._admit(waiter)
        self._wake.set()

    # -- lease upkeep --------------------------------------------------- #

    def _heartbeat_all(self) -> None:
        ids = list(self._inflight_ids)
        for waiters in self._waiters.values():
            ids.extend(w.id for w in waiters)
        for job_id in ids:
            try:
                self.queue.heartbeat(job_id)
                self.stats["heartbeats"] += 1
            except LeaseBroken:
                self.stats["lease_lost"] += 1
            except OSError:
                pass

    async def _heartbeat_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            await loop.run_in_executor(None, self._heartbeat_all)

    # -- main loop ------------------------------------------------------ #

    async def run(self) -> Dict[str, int]:
        """Claim → dispatch → complete until the queue drains (or
        ``max_jobs`` have been admitted); returns the stats dict."""
        loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._pools = [
            _Pool(ProcessPoolExecutor(max_workers=self.pool_workers))
            for _ in range(self.n_pools)
        ]
        # Pre-warm: force every pool to fork its workers *before* the
        # loop's default thread executor spins up helper threads.
        for pool in self._pools:
            for fut in [pool.executor.submit(os.getpid) for _ in range(self.pool_workers)]:
                fut.result()
        heartbeat_task = asyncio.ensure_future(self._heartbeat_loop())
        try:
            while True:
                # Cleared before the claim pass, so a wake-up that lands
                # while it runs ends the nap after it.
                self._wake.clear()
                room = self.window - self._inflight_total()
                if self.max_jobs is not None:
                    room = min(room, self.max_jobs - self.stats["claimed"])
                claimed: List[JobRecord] = []
                if room > 0:
                    claimed = await loop.run_in_executor(
                        None, self.queue.claim_batch, room
                    )
                    self.stats["claimed"] += len(claimed)
                    for record in claimed:
                        self._admit(record)
                if not claimed and self._inflight_total() == 0:
                    budget_spent = (
                        self.max_jobs is not None
                        and self.stats["claimed"] >= self.max_jobs
                    )
                    if self.idle_exit or budget_spent:
                        break
                    # Idle: nap until a submission wakes us, or for one
                    # poll interval (other processes submit too).
                    await self._nap(self.poll_interval)
                    continue
                if self._inflight_total() >= self.window or not claimed:
                    # Window full (or queue momentarily empty): nap
                    # until a dispatch completes, or briefly.
                    await self._nap(self.poll_interval * 4)
        finally:
            heartbeat_task.cancel()
            # Let in-flight dispatch tasks finish recording outcomes.
            # Only *our* tasks: gathering asyncio.all_tasks() here
            # deadlocks when run() is embedded in a larger application
            # (the host task awaiting our cancellation is in that set).
            pending = [t for t in list(self._dispatch_tasks) if not t.done()]
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            for pool in self._pools:
                pool.executor.shutdown(wait=True)
        result = dict(self.stats)
        result["pools"] = self.n_pools
        result["window"] = self.window
        return result


def orchestrate(root, **kwargs) -> Dict[str, int]:
    """Run an :class:`Orchestrator` to completion; returns its stats."""
    return asyncio.run(Orchestrator(root, **kwargs).run())


def publish_orchestrator_metrics(
    registry, stats: Dict[str, Any], queue_stats: Optional[Dict[str, Any]] = None
) -> None:
    """Fold orchestrator stats — and optionally the queue's claim-path
    counters — into a ``MetricsRegistry`` (``orchestrator_dispatched``,
    ``scheduler_claims``, ``scheduler_takeovers``, ...)."""
    for name in (
        "claimed",
        "dispatched",
        "completed",
        "failed",
        "dedup_store",
        "dedup_inflight",
        "rebalanced",
        "pool_stalls",
        "pool_failures",
        "lease_lost",
    ):
        registry.counter(f"orchestrator_{name}").inc(int(stats.get(name, 0)))
    if queue_stats:
        for name in ("claims", "takeovers", "lease_conflicts", "listings"):
            registry.counter(f"scheduler_{name}").inc(int(queue_stats.get(name, 0)))
