"""``repro.store`` — the durable experiment subsystem.

Three layers, bottom-up:

* :mod:`repro.store.atomic` — crash-safe filesystem primitives
  (atomic replace-writes, line-atomic appends, temp-file sweeping);
* :mod:`repro.store.cache` + :mod:`repro.store.scheduler` +
  :mod:`repro.store.jobs` — the content-addressed result store, the
  lock-file-lease job queue, and the runners that bind the queue to the
  repository's workloads (tables, certificates, sweeps);
* :mod:`repro.store.shard` + :mod:`repro.store.orchestrator` — the
  consistent-hash sharded queue (manifest-agreed layout, per-shard
  cursors) and the asyncio dispatcher that keeps N process pools
  saturated from it.

Attributes resolve lazily (PEP 562): the job runners import the analysis
layer, which itself leans on :mod:`repro.store.atomic`, so eagerly
importing everything here would be a cycle.  ``from repro.store import
ResultStore`` works either way.
"""

from __future__ import annotations

_EXPORTS = {
    # atomic
    "atomic_write_bytes": "repro.store.atomic",
    "atomic_write_text": "repro.store.atomic",
    "append_line": "repro.store.atomic",
    "sweep_temp_files": "repro.store.atomic",
    # cache
    "ResultStore": "repro.store.cache",
    "result_key": "repro.store.cache",
    "canonical_params": "repro.store.cache",
    "default_store": "repro.store.cache",
    "resolve_store": "repro.store.cache",
    "fetch_or_compute": "repro.store.cache",
    "fetch_or_compute_bytes": "repro.store.cache",
    "STORE_ENV": "repro.store.cache",
    # events
    "JobEventLog": "repro.store.events",
    "MAX_EVENTS_PER_JOB": "repro.store.events",
    # scheduler
    "JobQueue": "repro.store.scheduler",
    "JobRecord": "repro.store.scheduler",
    "LeaseBroken": "repro.store.scheduler",
    "job_id_for": "repro.store.scheduler",
    "default_heartbeat_seconds": "repro.store.scheduler",
    "default_lease_ttl": "repro.store.scheduler",
    # shard
    "ShardedJobQueue": "repro.store.shard",
    "ShardLayoutError": "repro.store.shard",
    "shard_for": "repro.store.shard",
    # orchestrator
    "Orchestrator": "repro.store.orchestrator",
    "orchestrate": "repro.store.orchestrator",
    "publish_orchestrator_metrics": "repro.store.orchestrator",
    # jobs
    "run_worker": "repro.store.jobs",
    "run_job": "repro.store.jobs",
    "open_store": "repro.store.jobs",
    "open_queue": "repro.store.jobs",
    "document_key": "repro.store.jobs",
    "table_document": "repro.store.jobs",
    "noop_document": "repro.store.jobs",
    "expected_result_key": "repro.store.jobs",
    "store_status_payload": "repro.store.jobs",
    "JOB_KINDS": "repro.store.jobs",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.store' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
