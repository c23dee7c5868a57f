"""Span recording for traced runs: timing wrappers around layer entry points.

A traced run installs a wrapper around each public call listed in
:data:`TARGETS`.  Every call records one span — name, tag, start, end,
parent span, job id and an optional value — in a :class:`Recorder`.
Spans stay in memory until the run ends; a pool child, which exits
through ``os._exit`` and so never runs ``atexit``, writes its spans to a
file at the end of every job instead (see :meth:`Recorder.job_boundary`).

Wrappers replace *every* binding a caller looks up: the defining
module's attribute, each ``repro`` module that imported the function by
name, and the method on every subclass that overrides it.  Untraced runs
install nothing; :func:`uninstall` restores the originals, including
bindings that a lazy ``from ... import`` copied while tracing was on.

``time.perf_counter`` reads ``CLOCK_MONOTONIC`` on Linux, so timestamps
from the benchmark, the ``serve`` process and its pool child share one
clock and can be subtracted across processes.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
import types
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

clock = time.perf_counter

#: Attribute a wrapper carries, pointing at the callable it replaced.
ORIGINAL = "__perfbench_original__"

# Span tuple layout.
SID, NAME, TAG, START, END, PARENT, OUTER, JOB, VALUE = range(9)


@dataclass(frozen=True)
class Target:
    """One public call to time.

    ``attr`` is ``"function"`` or ``"Class.method"`` (overrides on
    subclasses are wrapped too).  ``tag(args)`` labels a span,
    ``job(args, result)`` names the job(s) it served and ``value(args,
    result)`` attaches a number (bytes read, records claimed).
    """

    module: str
    attr: str
    span: str
    tag: Optional[Callable] = None
    job: Optional[Callable] = None
    value: Optional[Callable] = None
    job_boundary: bool = False


def _arg(index: int) -> Callable:
    return lambda args, result: args[index] if len(args) > index else None


def _class_of_self(args) -> str:
    return type(args[0]).__name__


def _claimed_ids(args, result):
    return tuple(record.id for record in result) if result else None


def _claimed_count(args, result):
    return len(result) if result is not None else 0


def _event_file_size(args, result):
    log, job_id = args[0], args[1]
    try:
        return os.path.getsize(log.path(job_id))
    except OSError:
        return 0


#: Layers on the engine path (every workload).
ENGINE_TARGETS: Tuple[Target, ...] = (
    Target("repro.analysis.tables", "compute_cell", "tables.cell",
           tag=lambda args: "dynamic" if args and args[0] else "static"),
    Target("repro.core.execution", "Execution.outputs", "convergence.outputs"),
    Target("repro.core.execution", "Execution.unanimous_output", "convergence.outputs"),
    Target("repro.linalg.exact", "kernel_basis", "linalg.kernel_basis"),
    Target("repro.linalg.exact", "integer_kernel_vector", "linalg.kernel_basis"),
    Target("repro.core.memo", "memoized_minimum_base", "memo.minimum_base"),
    Target("repro.scenarios.registry", "GRAPH_FAMILIES[*].build", "scenarios.graph_build"),
    Target("repro.scenarios.schema", "validate_scenario", "scenarios.validate"),
    Target("repro.core.execution", "Execution.__init__", "engine.construct",
           tag=_class_of_self),
    Target("repro.core.execution", "Execution.step", "engine.step"),
    Target("repro.core.engine.stepper", "EngineStepper.step", "engine.stepper"),
    Target("repro.core.engine.plan", "PlanCache.plan_for", "engine.plan"),
    Target("repro.core.engine.plan", "DeliveryPlan.__init__", "engine.plan.compile"),
    Target("repro.core.engine.transport", "Transport.outgoing", "engine.transport"),
    Target("repro.core.engine.transport", "Transport.deliver", "engine.transport"),
    Target("repro.core.engine.vector", "csr_for", "engine.vector.csr"),
    Target("repro.core.engine.vector", "VectorKernel.step", "engine.vector.kernel_step"),
    Target("repro.core.engine.vector", "VectorKernel.unpack", "engine.vector.unpack"),
)

#: Layers on the service path (``serve`` process and its pool child).
SERVICE_TARGETS: Tuple[Target, ...] = (
    Target("repro.store.scheduler", "JobQueue.submit", "queue.submit",
           job=lambda args, result: result.id if result is not None else None),
    Target("repro.store.shard", "ShardedJobQueue.submit", "queue.submit",
           job=lambda args, result: result.id if result is not None else None),
    Target("repro.store.scheduler", "JobQueue.claim_batch", "queue.claim",
           job=_claimed_ids, value=_claimed_count),
    Target("repro.store.shard", "ShardedJobQueue.claim_batch", "queue.claim",
           job=_claimed_ids, value=_claimed_count),
    Target("repro.store.scheduler", "JobQueue.complete", "queue.complete", job=_arg(1)),
    Target("repro.store.shard", "ShardedJobQueue.complete", "queue.complete", job=_arg(1)),
    Target("repro.store.orchestrator", "_pool_execute", "orchestrator.pool_execute",
           job=lambda args, result: args[2]["id"], job_boundary=True),
    Target("repro.store.jobs", "run_job", "jobs.run",
           job=lambda args, result: args[2].id),
    Target("repro.store.atomic", "atomic_write_bytes", "atomic.write"),
    Target("repro.store.cache", "ResultStore.put", "store.put"),
    Target("repro.store.cache", "ResultStore.__contains__", "store.contains"),
    Target("repro.store.events", "JobEventLog.append", "events.append", job=_arg(1)),
    Target("repro.store.events", "JobEventLog.read", "events.read", job=_arg(1),
           value=_event_file_size),
)

TARGETS: Tuple[Target, ...] = ENGINE_TARGETS + SERVICE_TARGETS


class Recorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self, flush_dir: Optional[str] = None):
        self.spans: List[tuple] = []
        self.flush_dir = flush_dir
        self.pid = os.getpid()
        #: Job id stamped on spans that name none (set inside a pool job).
        self.job: Optional[str] = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- recording ------------------------------------------------------ #

    def wrap(self, fn: Callable, target: Target) -> Callable:
        recorder, local, name = self, self._local, target.span
        tag_of, job_of, value_of = target.tag, target.job, target.value
        boundary = target.job_boundary

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.active = {}
            active = local.active
            if boundary:
                recorder.job_boundary(args[2]["id"])
            sid = next(recorder._ids)
            parent = stack[-1] if stack else None
            depth = active.get(name, 0)
            active[name] = depth + 1
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                active[name] = depth
                recorder.spans.append((
                    sid,
                    name,
                    tag_of(args) if tag_of is not None else None,
                    start,
                    end,
                    parent,
                    depth == 0,
                    job_of(args, result) if job_of is not None else recorder.job,
                    value_of(args, result) if value_of is not None else None,
                ))
                if boundary:
                    recorder.flush()
                    recorder.job = None

        setattr(timed, ORIGINAL, fn)
        return timed

    def job_boundary(self, job_id: str) -> None:
        """Start a pool job: a forked child drops the spans it inherited
        from its parent, then stamps the job id on everything it records."""
        if self.pid != os.getpid():
            self.pid = os.getpid()
            self.spans = []
        self.job = job_id

    def flush(self) -> None:
        """Append every span to this process's file under ``flush_dir`` as
        JSON lines and forget them (no-op without a ``flush_dir``)."""
        if self.flush_dir is None:
            return
        spans, self.spans = self.spans, []
        path = os.path.join(self.flush_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps([self.pid, *span]) + "\n")


def load_spans(directory: str) -> List[tuple]:
    """Every span dumped under ``directory``; each span's id becomes
    ``(pid, sid)`` so spans of different processes never collide."""
    spans: List[tuple] = []
    for name in sorted(os.listdir(directory)):
        if not name.startswith("spans-"):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            for line in fh:
                pid, sid, name_, tag, start, end, parent, outer, job, value = json.loads(line)
                if isinstance(job, list):
                    job = tuple(job)
                spans.append((
                    (pid, sid), name_, tag, start, end,
                    None if parent is None else (pid, parent), outer, job, value,
                ))
    return spans


# -- installing and removing the wrappers -------------------------------- #


#: One replaced binding: (owner, attribute, original, owner is a frozen dataclass).
Patch = Tuple[Any, str, Any, bool]


def _repro_modules() -> List[types.ModuleType]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _subclasses(cls: type) -> List[type]:
    seen, out, todo = set(), [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.add(sub)
                out.append(sub)
                todo.append(sub)
    return out


def _import_all(targets: Sequence[Target]) -> None:
    """Import every target module, plus the subclasses the engine
    façade builds lazily, so all overrides exist before wrapping."""
    for module in {t.module for t in targets} | {
        "repro.core.engine.quotient",
        "repro.core.engine.vector",
        "repro.core.engine.batch",
        "repro.algorithms.history_tree",
        "repro.algorithms.fibre_solver",
        "repro.scenarios",
        "repro.scenarios.runner",
        "repro.store",
        "repro.store.jobs",
        "repro.store.orchestrator",
        "repro.service.app",
        "repro",
    }:
        importlib.import_module(module)
    from repro.core.engine.vector import _ensure_builtin_kernels

    _ensure_builtin_kernels()


def _set(owner: Any, attr: str, value: Any, frozen: bool) -> None:
    if frozen:
        object.__setattr__(owner, attr, value)
    else:
        setattr(owner, attr, value)


def install(recorder: Recorder, targets: Sequence[Target] = TARGETS) -> List[Patch]:
    """Wrap every binding of every target; returns what to undo."""
    _import_all(targets)
    done: List[Patch] = []
    modules = _repro_modules()
    for target in targets:
        module = importlib.import_module(target.module)
        if target.attr == "GRAPH_FAMILIES[*].build":
            for family in module.GRAPH_FAMILIES.values():
                done.append((family, "build", family.build, True))
                _set(family, "build", recorder.wrap(family.build, target), True)
        elif "." in target.attr:
            class_name, method = target.attr.split(".")
            for cls in _subclasses(getattr(module, class_name)):
                original = cls.__dict__.get(method)
                if original is None:
                    continue
                if not isinstance(original, types.FunctionType):
                    raise TypeError(f"cannot wrap {cls.__name__}.{method}: {original!r}")
                done.append((cls, method, original, False))
                setattr(cls, method, recorder.wrap(original, target))
        else:
            original = getattr(module, target.attr)
            wrapper = recorder.wrap(original, target)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        done.append((mod, name, original, False))
                        setattr(mod, name, wrapper)
    return done


def uninstall(done: List[Patch]) -> None:
    """Restore every binding :func:`install` replaced, then any wrapper a
    lazy import copied into a module while tracing was on."""
    for owner, attr, original, frozen in reversed(done):
        _set(owner, attr, original, frozen)
    done.clear()
    for mod in _repro_modules():
        for name, value in list(vars(mod).items()):
            original = getattr(value, ORIGINAL, None) if callable(value) else None
            if original is not None:
                setattr(mod, name, original)


def patched_bindings(targets: Sequence[Target] = TARGETS) -> List[str]:
    """Names of target bindings that are currently wrappers (empty when
    nothing is installed) — what the self-tests check after a run."""
    found: List[str] = []
    for mod in _repro_modules():
        for name, value in list(vars(mod).items()):
            if callable(value) and getattr(value, ORIGINAL, None) is not None:
                found.append(f"{mod.__name__}.{name}")
    for target in targets:
        module = sys.modules.get(target.module)
        if module is None:
            continue
        if target.attr == "GRAPH_FAMILIES[*].build":
            for key, family in module.GRAPH_FAMILIES.items():
                if getattr(family.build, ORIGINAL, None) is not None:
                    found.append(f"GRAPH_FAMILIES[{key}].build")
        elif "." in target.attr:
            class_name, method = target.attr.split(".")
            for cls in _subclasses(getattr(module, class_name)):
                if getattr(cls.__dict__.get(method), ORIGINAL, None) is not None:
                    found.append(f"{cls.__qualname__}.{method}")
    return found
