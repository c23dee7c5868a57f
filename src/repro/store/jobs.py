"""Durable job runners: the scheduler's work vocabulary.

This module binds the generic :class:`~repro.store.scheduler.JobQueue`
to the repository's actual workloads.  Six job kinds are understood:

* ``table1`` / ``table2`` — reproduce a whole table, cell by cell;
* ``certificate`` — assemble the full reproduction certificate;
* ``sweep`` — check Theorem 5.2's proof invariants over a spec grid;
* ``scenario`` — run a declarative :mod:`repro.scenarios` config (its
  validated form rides in the job parameters, so the queue record is
  self-contained even if the config file later changes on disk);
* ``noop`` — a deterministic trivial document, the unit of scheduler
  benchmarks and fleet crash-recovery campaigns: all dispatch cost, no
  engine cost, yet still byte-comparable across runs.

Every runner computes its units *one at a time through the result
store*, heartbeating the job lease and updating the job's progress
record between units.  That interleaving is the whole crash-recovery
story: a worker killed mid-table has already persisted every finished
cell, so the retry (same job id, same store) replays only the remainder
— and because cell payloads and document assembly are deterministic, the
resumed document is byte-identical to an uninterrupted run's.

Layout: one ``root`` directory holds both halves of the subsystem — the
result store at the root itself and the queue under ``root/queue`` —
so a single path is all you hand to ``python -m repro store``.
"""

from __future__ import annotations

import hashlib
import os
import time
import traceback
from typing import Any, Dict, List, Optional, Union

from repro.core.engine import ENGINE_VERSION, EngineFlags
from repro.store.cache import ResultStore, canonical_params, result_key
from repro.store.events import JobEventLog
from repro.store.scheduler import JobQueue, JobRecord
from repro.store.shard import MANIFEST_NAME, ShardedJobQueue, ShardLayoutError

#: Job kinds the worker loop knows how to run.
JOB_KINDS = ("table1", "table2", "certificate", "sweep", "scenario", "noop")


def open_store(root) -> ResultStore:
    """The result store of a scheduler root."""
    return ResultStore(root)


def open_queue(
    root, shards: Optional[int] = None, **kwargs
) -> Union[JobQueue, ShardedJobQueue]:
    """The job queue of a scheduler root (lives under ``root/queue``).

    Layout is discovered, not assumed: a queue carrying a shard manifest
    opens sharded (at its persisted count) whether or not ``shards`` is
    passed; a legacy flat queue opens as a plain :class:`JobQueue` when
    ``shards`` is ``None``, and refuses a ``shards=`` request outright —
    re-hashing a live flat queue in place would strand its jobs.  Only a
    brand-new root creates a layout from ``shards``.
    """
    queue_root = os.path.join(os.fspath(root), "queue")
    has_manifest = os.path.exists(os.path.join(queue_root, MANIFEST_NAME))
    if shards is None and not has_manifest:
        return JobQueue(queue_root, **kwargs)
    if shards is not None and not has_manifest and os.path.isdir(
        os.path.join(queue_root, "jobs")
    ):
        raise ShardLayoutError(
            f"queue at {queue_root!r} is a legacy flat layout; "
            f"open it without --shards or start a fresh root"
        )
    return ShardedJobQueue(queue_root, shards=shards, **kwargs)


def document_key(kind: str, params: Dict[str, Any]) -> str:
    """The store key under which a job's final document lands.  A
    scenario document's key also binds
    :data:`~repro.scenarios.registry.SCENARIO_VERSION`, here rather than
    in ``params``, so every caller that derives the key gets the same one
    while the stored entry keeps ``{"config": ...}`` as its params."""
    if kind == "scenario":
        from repro.scenarios.registry import SCENARIO_VERSION

        params = {**params, "scenario_version": SCENARIO_VERSION}
    return result_key(f"{kind}-doc", params)


def store_status_payload(
    queue: Union[JobQueue, ShardedJobQueue], store: ResultStore
) -> Dict[str, Any]:
    """The machine-readable status of one scheduler root — queue counts,
    claim-path counters, cache stats, and (for sharded queues) the
    per-shard breakdown.  ``python -m repro store status --json`` and the
    service's ``GET /v1/store/stats`` both emit exactly this shape, so
    shell scripts and HTTP clients parse one schema."""
    payload: Dict[str, Any] = {
        "engine_version": ENGINE_VERSION,
        "queue": queue.counts(),
        "scheduler": queue.stats(),
        "store": store.stats(),
    }
    if hasattr(queue, "shard_stats"):
        payload["shards"] = queue.shard_stats()
    return payload


def _unit_progress(
    queue: JobQueue,
    log: JobEventLog,
    record: JobRecord,
    done: int,
    total: int,
) -> None:
    """The per-unit bookkeeping every multi-unit runner shares: refresh
    the lease, persist progress on the job record, and append a
    ``progress`` event to the job's durable event log (the SSE feed)."""
    queue.heartbeat(record.id)
    queue.update_progress(record.id, {"units_done": done, "units_total": total})
    log.append(
        record.id,
        "progress",
        {"kind": record.kind, "units_done": done, "units_total": total},
    )


def table_document(
    kind: str, n: int, seed: int, cells: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Assemble the deterministic document of one reproduced table.

    Pure function of the cell payloads — no timestamps, no hostnames —
    so interrupted-and-resumed runs emit the same bytes as clean ones.
    """
    return {
        "kind": kind,
        "engine_version": ENGINE_VERSION,
        "parameters": {"n": n, "seed": seed},
        "cells": cells,
        "summary": {
            "cells": len(cells),
            "consistent": sum(1 for c in cells if c["consistent"]),
            "verdict": "PASS" if all(c["consistent"] for c in cells) else "FAIL",
        },
    }


def _engine_flags(params: Dict[str, Any]) -> EngineFlags:
    """The engine flags a table or certificate job carries in its params.

    Quotient/vector acceleration changes how cells are computed, never
    what they contain, so both ride in the job params but stay out of
    the document key and the cell store keys: warm caches serve every
    mode."""
    return EngineFlags(quotient=params.get("quotient"), vector=params.get("vector"))


def _run_table_job(queue: JobQueue, store: ResultStore, record: JobRecord) -> str:
    from repro.analysis.tables import paper_table_document

    table = 2 if record.kind == "table2" else 1
    n = int(record.params.get("n", 5 if table == 2 else 6))
    seed = int(record.params.get("seed", 0))
    log = JobEventLog(store.root)

    def progress(done: int, total: int) -> None:
        _unit_progress(queue, log, record, done, total)

    doc = paper_table_document(
        table, n, seed, store=store, engine=_engine_flags(record.params),
        progress=progress,
    )
    params = {"n": n, "seed": seed}
    key = document_key(record.kind, params)
    store.put(key, doc, kind=f"{record.kind}-doc", params=params)
    return key


def _run_certificate_job(queue: JobQueue, store: ResultStore, record: JobRecord) -> str:
    from repro.analysis.certificate import reproduction_certificate

    n = int(record.params.get("n", 6))
    seed = int(record.params.get("seed", 0))
    queue.heartbeat(record.id)
    # The certificate reuses every table cell already in the store, so a
    # retried certificate job recomputes nothing that survived the crash.
    doc = reproduction_certificate(
        n=n, seed=seed, store=store, engine=_engine_flags(record.params)
    )
    params = {"n": n, "seed": seed}
    key = document_key("certificate", params)
    store.put(key, doc, kind="certificate-doc", params=params)
    _unit_progress(queue, JobEventLog(store.root), record, 1, 1)
    return key


def _run_sweep_job(queue: JobQueue, store: ResultStore, record: JobRecord) -> str:
    from repro.analysis.rates import check_proof_invariants, proof_check_to_payload

    specs = [tuple(int(x) for x in s) for s in record.params.get("specs", [])]
    log = JobEventLog(store.root)
    payloads: List[Dict[str, Any]] = []
    for done, (n, d, seed, rounds) in enumerate(specs, start=1):
        check = check_proof_invariants(n, d, seed, rounds, store=store)
        payloads.append(proof_check_to_payload(check))
        _unit_progress(queue, log, record, done, len(specs))
    doc = {
        "kind": "sweep",
        "engine_version": ENGINE_VERSION,
        "parameters": {"specs": [list(s) for s in specs]},
        "checks": payloads,
        "summary": {
            "checks": len(payloads),
            "ok": sum(1 for p in payloads if not p["problems"]),
            "verdict": "PASS" if all(not p["problems"] for p in payloads) else "FAIL",
        },
    }
    params = dict(record.params)
    key = document_key("sweep", params)
    store.put(key, doc, kind="sweep-doc", params=params)
    return key


def _run_scenario_job(queue: JobQueue, store: ResultStore, record: JobRecord) -> str:
    import dataclasses

    from repro.scenarios import run_scenario, validate_scenario

    scenario = validate_scenario(
        record.params.get("config"), source=f"job:{record.id}"
    )
    # --quotient / --vector on submit ride beside the config, like the
    # table jobs; the config's own engine block wins when both are set.
    overrides = {
        flag: True
        for flag in ("quotient", "vector")
        if record.params.get(flag) and getattr(scenario.engine, flag) is None
    }
    if overrides:
        scenario = dataclasses.replace(
            scenario, engine=dataclasses.replace(scenario.engine, **overrides)
        )

    log = JobEventLog(store.root)

    def progress(done: int, total: int) -> None:
        _unit_progress(queue, log, record, done, total)

    # Round-level tracer metric snapshots are opt-in (submit with
    # "trace": true beside the config): each *computed* grid unit streams
    # its per-round metrics into the event log — store-served units have
    # no rounds to trace, and the document is byte-identical either way
    # (the PR-3 no-interference contract).  The trace flag deliberately
    # stays out of the scenario's identity, so traced and untraced
    # submissions share one document key.
    on_trace = None
    if record.params.get("trace"):

        def on_trace(unit: Dict[str, Any], snapshots: List[Dict[str, Any]]) -> None:
            for snapshot in snapshots:
                if log.append(record.id, "trace", {**unit, **snapshot}) is None:
                    return  # per-job event cap reached: drop the tail

    # The progress callback heartbeats the lease between units — same
    # discipline as the table jobs.
    doc = run_scenario(scenario, store=store, progress=progress, on_trace=on_trace)
    # The document key binds the scenario's identity (engine flags
    # excluded), so accelerated and direct submissions land on one entry.
    params = {"config": scenario.identity()}
    key = document_key("scenario", params)
    store.put(key, doc, kind="scenario-doc", params=params)
    return key


def _noop_params(params: Dict[str, Any]) -> Dict[str, Any]:
    """A noop's identity: its params minus the engine-acceleration flags
    (which, as for tables, change nothing about the output)."""
    return {k: v for k, v in params.items() if k not in ("quotient", "vector")}


def noop_document(params: Dict[str, Any]) -> Dict[str, Any]:
    """The deterministic document of a ``noop`` job.

    Pure function of the (stripped) params — the digest gives the
    crash-recovery campaigns something content-like to byte-compare
    without dragging in the engine.
    """
    identity = _noop_params(params)
    canonical = canonical_params(identity)
    return {
        "kind": "noop",
        "engine_version": ENGINE_VERSION,
        "parameters": identity,
        "digest": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "summary": {"cells": 1, "consistent": 1, "verdict": "PASS"},
    }


def _run_noop_job(queue: JobQueue, store: ResultStore, record: JobRecord) -> str:
    params = _noop_params(record.params)
    doc = noop_document(record.params)
    queue.heartbeat(record.id)
    key = document_key("noop", params)
    store.put(key, doc, kind="noop-doc", params=params)
    return key


_RUNNERS = {
    "table1": _run_table_job,
    "table2": _run_table_job,
    "certificate": _run_certificate_job,
    "sweep": _run_sweep_job,
    "scenario": _run_scenario_job,
    "noop": _run_noop_job,
}


def expected_result_key(kind: str, params: Dict[str, Any]) -> Optional[str]:
    """Predict the store key a job's document will land under, without
    running it — the orchestrator's dedup handle.

    Mirrors each runner's key derivation (including the default ``n`` /
    ``seed`` the table and certificate runners fill in, and the
    acceleration flags they exclude).  Returns ``None`` when the key
    cannot be predicted (unknown kind, invalid scenario config) — the
    orchestrator then simply dispatches without dedup.
    """
    try:
        if kind in ("table1", "table2"):
            dynamic = kind == "table2"
            return document_key(
                kind,
                {
                    "n": int(params.get("n", 5 if dynamic else 6)),
                    "seed": int(params.get("seed", 0)),
                },
            )
        if kind == "certificate":
            return document_key(
                kind,
                {"n": int(params.get("n", 6)), "seed": int(params.get("seed", 0))},
            )
        if kind == "sweep":
            return document_key(kind, dict(params))
        if kind == "noop":
            return document_key(kind, _noop_params(params))
        if kind == "scenario":
            from repro.scenarios import validate_scenario

            scenario = validate_scenario(params.get("config"), source="dedup")
            return document_key(kind, {"config": scenario.identity()})
    except Exception:
        return None
    return None


def run_job(queue: JobQueue, store: ResultStore, record: JobRecord) -> str:
    """Execute one claimed job; returns the store key of its document."""
    runner = _RUNNERS.get(record.kind)
    if runner is None:
        raise ValueError(
            f"unknown job kind {record.kind!r}; expected one of {JOB_KINDS}"
        )
    return runner(queue, store, record)


def run_worker(
    root,
    max_jobs: Optional[int] = None,
    idle_exit: bool = True,
    poll_interval: float = 0.2,
    queue: Optional[JobQueue] = None,
    store: Optional[ResultStore] = None,
) -> int:
    """The worker loop: claim → run → complete/fail, until the queue is
    drained (``idle_exit=True``) or ``max_jobs`` jobs have been taken.

    Returns the number of jobs processed.  A job that raises is recorded
    via :meth:`~repro.store.scheduler.JobQueue.fail`, which requeues it
    with capped exponential backoff until its attempt budget runs out.
    """
    queue = queue if queue is not None else open_queue(root)
    store = store if store is not None else open_store(root)
    processed = 0
    while max_jobs is None or processed < max_jobs:
        record = queue.claim()
        if record is None:
            if idle_exit:
                break
            time.sleep(poll_interval)
            continue
        processed += 1
        try:
            key = run_job(queue, store, record)
        except Exception:
            queue.fail(record.id, traceback.format_exc(limit=8))
        else:
            queue.complete(record.id, result_key=key)
    return processed
