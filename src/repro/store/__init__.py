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

from repro import _lazy

_EXPORTS = {
    "repro.store.atomic": (
        "atomic_write_bytes", "atomic_write_text", "append_line", "sweep_temp_files",
    ),
    "repro.store.cache": (
        "ResultStore", "result_key", "canonical_params", "default_store",
        "resolve_store", "fetch_or_compute", "fetch_or_compute_bytes", "STORE_ENV",
    ),
    "repro.store.events": ("JobEventLog", "MAX_EVENTS_PER_JOB"),
    "repro.store.scheduler": (
        "JobQueue", "JobRecord", "LeaseBroken", "job_id_for",
        "default_heartbeat_seconds", "default_lease_ttl",
    ),
    "repro.store.shard": ("ShardedJobQueue", "ShardLayoutError", "shard_for"),
    "repro.store.orchestrator": (
        "Orchestrator", "orchestrate", "publish_orchestrator_metrics",
    ),
    "repro.store.jobs": (
        "run_worker", "run_job", "open_store", "open_queue", "document_key",
        "noop_document", "expected_result_key", "store_status_payload", "JOB_KINDS",
    ),
    "repro.analysis.tables": ("table_document",),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__getattr__, __dir__ = _lazy.lazy_exports(globals(), _EXPORTS)
