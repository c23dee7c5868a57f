"""Structured round-level tracing: typed events, metrics, JSONL export.

The paper's evidence is quantitative — stabilization rounds, per-round
communication volume, convergence residuals — yet an untraced execution
only reports its end state.  This module turns a running execution into
an auditable stream without perturbing it:

* :class:`TraceEvent` — one typed, JSON-serializable record (``round``,
  ``plan_compile``, ``span``, ``manifest``, ``summary``);
* :class:`MetricsRegistry` — named :class:`Counter`/:class:`Gauge`/
  :class:`Histogram` aggregates with a deterministic job-order
  :meth:`~MetricsRegistry.merge`;
* :class:`Tracer` — a :class:`~repro.core.engine.instrumentation.RoundObserver`
  that also hooks :class:`~repro.core.engine.plan.PlanCache` compiles,
  emitting per-round messages delivered, payload units charged (the
  accounting of :mod:`repro.analysis.bandwidth`), convergence residuals,
  canonical state digests, and wall-clock timings;
* :func:`events_to_jsonl` / :func:`events_from_jsonl` (and the file
  variants :func:`write_jsonl` / :func:`read_jsonl`) — lossless JSONL
  round-tripping, the format ``python -m repro trace`` emits.

**The no-interference contract.**  Tracing must never change what it
observes.  Two guarantees back that up:

1. *Zero overhead when off.*  With no observer attached the stepper
   builds no :class:`RoundRecord` at all, and a :class:`PlanCache` whose
   ``trace_hook`` is ``None`` pays one attribute test per round —
   ``benchmarks/bench_trace.py`` asserts the hot path within 2% of the
   pre-trace baseline.
2. *Bit-identity when on.*  A :class:`Tracer` only reads the record; it
   draws nothing from the execution's scramble RNG and mutates no state,
   so outputs, reports, and the scramble schedule are bit-identical with
   tracing on or off (the hypothesis suite in
   ``tests/property/test_trace_properties.py`` pins this).  Wall-clock fields (any metric or event field named
   ``*_seconds``) are *environmental*: they ride along but are excluded
   from every identity comparison, which is what
   :meth:`Tracer.deterministic_rounds` and
   ``MetricsRegistry.as_dict(deterministic_only=True)`` project out.
"""

from __future__ import annotations

import functools
import json
from typing import Any, Dict, IO, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.agent import OutputPortAlgorithm
from repro.core.engine.instrumentation import RoundRecord, state_digest
from repro.core.engine.plan import DeliveryPlan, PlanCache
from repro.core.metrics import discrete_metric, euclidean_metric, spread

#: Round-event fields that must be bit-identical across backends and
#: with tracing on or off; everything timing-valued is environmental.
DETERMINISTIC_ROUND_FIELDS: Tuple[str, ...] = (
    "messages",
    "bytes_delivered",
    "bytes_peak",
    "residual",
    "digest",
)


class TraceEvent:
    """One typed trace record: a kind, an optional round, and flat fields.

    Events are plain data — every field value must be JSON-serializable —
    so a trace survives ``emit → JSONL → parse`` losslessly
    (:func:`events_to_jsonl` / :func:`events_from_jsonl`).
    """

    __slots__ = ("kind", "round", "fields")

    def __init__(self, kind: str, round: Optional[int] = None, **fields: Any):
        self.kind = kind
        self.round = round
        self.fields: Dict[str, Any] = fields

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "round": self.round, "fields": dict(self.fields)}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "TraceEvent":
        return cls(d["kind"], round=d.get("round"), **d.get("fields", {}))

    def deterministic_fields(self) -> Dict[str, Any]:
        """The event's fields minus every wall-clock (``*_seconds``) value."""
        return {k: v for k, v in self.fields.items() if not k.endswith("_seconds")}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TraceEvent)
            and self.kind == other.kind
            and self.round == other.round
            and self.fields == other.fields
        )

    def __repr__(self) -> str:
        return f"TraceEvent({self.kind!r}, round={self.round}, {self.fields})"


def _round_event(
    round_number: int,
    messages: int,
    bytes_delivered: int,
    bytes_peak: int,
    residual: Optional[float],
    digest: int,
    wall_seconds: float,
) -> TraceEvent:
    """A ``round`` :class:`TraceEvent` from its (decoded) record fields."""
    return TraceEvent(
        "round",
        round=round_number,
        messages=messages,
        bytes_delivered=bytes_delivered,
        bytes_peak=bytes_peak,
        residual=residual,
        digest=digest,
        wall_seconds=wall_seconds,
    )


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #

class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Union[int, float] = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def as_dict(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("value", "updates")

    def __init__(self) -> None:
        self.value: Any = None
        self.updates: int = 0

    def set(self, value: Any) -> None:
        self.value = value
        self.updates += 1

    def merge(self, other: "Gauge") -> None:
        # Job-order merge: the later (other) registry wins if it ever wrote.
        if other.updates:
            self.value = other.value
        self.updates += other.updates

    def as_dict(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value, "updates": self.updates}


class Histogram:
    """Streaming moments of an observed distribution (count/total/min/max)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count: int = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> Optional[float]:
        return None if self.count == 0 else self.total / self.count

    def merge(self, other: "Histogram") -> None:
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        self.min = other.min if self.min is None else min(self.min, other.min)
        self.max = other.max if self.max is None else max(self.max, other.max)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


_METRIC_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Named metrics, created on first touch, merged deterministically.

    ``merge`` folds another registry in (counters add, gauges last-write-
    win, histogram moments combine); folding per-job registries **in job
    order** yields the same aggregate on every run.  Metrics whose name
    ends in ``_seconds`` are wall-clock
    (environmental) and are dropped by ``as_dict(deterministic_only=True)``.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def _get(self, name: str, kind: type) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, not a {kind.__name__}"
            )
        return metric

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        for name in sorted(other._metrics):
            theirs = other._metrics[name]
            self._get(name, type(theirs)).merge(theirs)
        return self

    def as_dict(self, deterministic_only: bool = False) -> Dict[str, Dict[str, Any]]:
        """A JSON-safe snapshot, sorted by name; ``deterministic_only``
        drops every ``*_seconds`` (wall-clock) metric."""
        return {
            name: self._metrics[name].as_dict()
            for name in sorted(self._metrics)
            if not (deterministic_only and name.endswith("_seconds"))
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Dict[str, Any]]) -> "MetricsRegistry":
        registry = cls()
        for name, payload in d.items():
            kind = _METRIC_TYPES[payload["type"]]
            metric = registry._get(name, kind)
            if kind is Counter:
                metric.value = payload["value"]
            elif kind is Gauge:
                metric.value = payload["value"]
                metric.updates = payload.get("updates", 1)
            else:
                metric.count = payload["count"]
                metric.total = payload["total"]
                metric.min = payload["min"]
                metric.max = payload["max"]
        return registry

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._metrics)} metrics)"


# ---------------------------------------------------------------------- #
# the tracer
# ---------------------------------------------------------------------- #

#: Rounds retained by a tracer's ring buffer before the oldest are
#: overwritten; ~1 MiB of records at the default.  Raise per tracer via
#: ``Tracer(ring_capacity=...)`` when a run needs its full round history.
DEFAULT_RING_CAPACITY = 16384


@functools.lru_cache(maxsize=None)
def _round_dtype():
    """One round as a fixed-width binary record (``None`` without numpy).

    Built when the first :class:`Tracer` is constructed, not at import,
    so an untraced run never loads numpy.  ``residual`` rides as a
    float64 + presence flag (``None`` when residual tracking is off);
    every field round-trips its Python value exactly (int64 covers the
    crc32 digest range, float64 IS the Python float).
    """
    try:  # Optional: the ring buffer stores rounds as a structured array.
        import numpy as np
    except ImportError:  # pragma: no cover - the CI image bundles numpy
        return None
    return np.dtype(
        [
            ("seq", np.int64),
            ("round", np.int64),
            ("messages", np.int64),
            ("bytes_delivered", np.int64),
            ("bytes_peak", np.int64),
            ("residual", np.float64),
            ("has_residual", np.bool_),
            ("digest", np.int64),
            ("wall_seconds", np.float64),
        ]
    )


class Tracer:
    """A round observer that narrates an execution into events + metrics.

    Attach with ``execution.attach(tracer)`` (or let
    :func:`trace_execution` / the batch runner do it); additionally call
    :meth:`watch_cache` to count plan-cache hits and time compiles.  The
    tracer holds a plain ``__dict__`` (no ``__slots__``), so it pickles
    and copies like any other observer (the ring buffer pickles along).

    Round events are **not** stored as Python objects: each observed
    round writes one fixed-width record into a preallocated numpy ring
    buffer (``ring_capacity`` rounds, oldest overwritten first —
    ``dropped_rounds`` counts casualties), and the :attr:`events` /
    :meth:`round_events` views decode records back into
    :class:`TraceEvent` objects lazily, at read time.  Long traced runs
    therefore cost a few array stores per round instead of a dict, an
    event object, and an unbounded list append; JSONL export pays the
    decode exactly once.  Rare non-round events (``plan_compile``) stay
    object-valued on a side list; a global sequence number keeps the
    merged stream in emission order.  Without numpy the tracer falls back
    to plain object storage (no ring, nothing dropped).

    Per round the record carries

    * ``messages`` — messages delivered (one per in-edge);
    * ``bytes_delivered`` / ``bytes_peak`` — total and largest delivered
      payload in the abstract units of
      :func:`repro.analysis.bandwidth.payload_units`, charged from the
      sender side (``units(payload) × outdegree`` for the isotropic
      transports — the same totals as per-inbox accounting, at ``O(n)``
      instead of ``O(m)`` payload walks);
    * ``residual`` — the convergence residual: output spread under the
      Euclidean metric (max−min fast path for scalar outputs — equal to
      the max pairwise distance, bit for bit), falling back to the
      discrete metric for non-numeric outputs;
    * ``digest`` — the canonical :func:`state_digest` of the new global
      state (equal trajectories digest equally across processes);
    * ``wall_seconds`` — environmental, excluded from identity checks;

    and folds the same quantities into the registry (counters ``rounds``,
    ``messages_delivered``, ``bytes_delivered``; gauge ``residual``;
    histogram ``round_wall_seconds``).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        capture_events: bool = True,
        residuals: bool = True,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
    ):
        if ring_capacity < 1:
            raise ValueError("a ring buffer needs room for at least one round")
        self.registry = registry if registry is not None else MetricsRegistry()
        self.capture_events = capture_events
        self.residuals = residuals
        self.ring_capacity = int(ring_capacity)
        self._payload_units = None
        self._dtype = _round_dtype()  # None: numpy-less fallback
        self._ring = None  # allocated on the first captured round
        self._ring_written = 0  # round records ever recorded (≥ retained)
        self._side: List[Tuple[int, TraceEvent]] = []  # non-round events
        self._seq = 0  # global emission ordinal across both stores
        self._bound_metrics = None

    # -- round hook ----------------------------------------------------- #

    def _metrics(self):
        """The per-round metric handles, bound on the first round."""
        metrics = self._bound_metrics
        if metrics is None:
            registry = self.registry
            metrics = self._bound_metrics = (
                registry.counter("rounds"),
                registry.counter("messages_delivered"),
                registry.counter("bytes_delivered"),
                registry.gauge("residual"),
                registry.histogram("round_wall_seconds"),
            )
        return metrics

    def on_round(self, record: RoundRecord) -> None:
        units = self._payload_units
        if units is None:
            # Lazy: the bandwidth accounting lives above the engine.
            from repro.analysis.bandwidth import payload_units

            units = self._payload_units = payload_units
        total = 0
        peak = 0
        outgoing = record.outgoing
        if isinstance(record.algorithm, OutputPortAlgorithm):
            # Anisotropic sends: one distinct payload per port, each
            # delivered exactly once — charge them individually.
            for payloads in outgoing:
                for message in payloads:
                    u = units(message)
                    total += u
                    if u > peak:
                        peak = u
        else:
            # Isotropic sends: vertex v's payload is delivered along each
            # of its outdegree(v) out-edges, so the per-inbox total is
            # units(payload) × outdegree — one payload walk per vertex.
            outdegrees = record.plan.outdegrees
            for v, message in enumerate(outgoing):
                d = outdegrees[v]
                if d:
                    u = units(message)
                    total += u * d
                    if u > peak:
                        peak = u
        residual = self._residual(record) if self.residuals else None
        digest = state_digest(record.states)

        rounds_c, messages_c, bytes_c, residual_g, wall_h = self._metrics()
        rounds_c.inc()
        messages_c.inc(record.messages_sent)
        bytes_c.inc(total)
        if residual is not None:
            residual_g.set(residual)
        wall_h.observe(record.wall_seconds)

        if self.capture_events:
            self._capture_round(
                record.round_number,
                record.messages_sent,
                total,
                peak,
                residual,
                digest,
                record.wall_seconds,
            )

    def _capture_round(self, round_number, messages, total, peak, residual, digest, wall) -> None:
        seq = self._seq
        self._seq = seq + 1
        if self._dtype is None:  # pragma: no cover - numpy-less fallback
            self._side.append(
                (seq, _round_event(round_number, messages, total, peak, residual, digest, wall))
            )
            return
        ring = self._ring
        if ring is None:
            import numpy

            ring = self._ring = numpy.zeros(self.ring_capacity, dtype=self._dtype)
        ring[self._ring_written % self.ring_capacity] = (
            seq,
            round_number,
            messages,
            total,
            peak,
            0.0 if residual is None else residual,
            residual is not None,
            digest,
            wall,
        )
        self._ring_written += 1

    @staticmethod
    def _residual(record: RoundRecord) -> float:
        # Scalar fast path: for real-valued outputs the max pairwise
        # |x_i - x_j| is exactly max - min (same subtraction, same bits).
        output = record.algorithm.output
        outputs = []
        scalar = True
        mn = mx = None
        for state in record.states:
            o = output(state)
            outputs.append(o)
            if scalar and (type(o) is float or type(o) is int):
                if mn is None:
                    mn = mx = o
                elif o < mn:
                    mn = o
                elif o > mx:
                    mx = o
            else:
                scalar = False
        if scalar and mn is not None and mn == mn and mx == mx:  # NaNs fall back
            return abs(float(mx) - float(mn))
        try:
            return spread(outputs, euclidean_metric)
        except (TypeError, ValueError):
            return spread(outputs, discrete_metric)

    # -- plan-cache hook ------------------------------------------------ #

    def on_plan_event(self, kind: str, plan: DeliveryPlan, seconds: float) -> None:
        """The :attr:`PlanCache.trace_hook` target: hits are counted,
        compiles are counted, timed, and (compiles being rare) evented."""
        if kind == "plan_hit":
            self.registry.counter("plan_hits").inc()
            return
        self.registry.counter("plan_compiles").inc()
        self.registry.histogram("plan_compile_seconds").observe(seconds)
        if self.capture_events:
            seq = self._seq
            self._seq = seq + 1
            self._side.append(
                (
                    seq,
                    TraceEvent(
                        "plan_compile",
                        n=plan.n,
                        messages=plan.num_messages,
                        compile_wall_seconds=seconds,
                    ),
                )
            )

    def watch_cache(self, cache: PlanCache):
        """Point ``cache.trace_hook`` at this tracer; returns the previous
        hook so callers can restore it (the batch runner does)."""
        previous = cache.trace_hook
        cache.trace_hook = self.on_plan_event
        return previous

    # -- views ---------------------------------------------------------- #

    @property
    def dropped_rounds(self) -> int:
        """Rounds overwritten by ring wraparound (0 until the buffer laps)."""
        return max(0, self._ring_written - self.ring_capacity)

    def _decode_ring(self) -> List[Tuple[int, TraceEvent]]:
        ring = self._ring
        if ring is None:
            return []
        cap = self.ring_capacity
        written = self._ring_written
        count = min(written, cap)
        start = written % cap if written > cap else 0
        out = []
        for k in range(count):
            row = ring[(start + k) % cap]
            out.append(
                (
                    int(row["seq"]),
                    _round_event(
                        int(row["round"]),
                        int(row["messages"]),
                        int(row["bytes_delivered"]),
                        int(row["bytes_peak"]),
                        float(row["residual"]) if bool(row["has_residual"]) else None,
                        int(row["digest"]),
                        float(row["wall_seconds"]),
                    ),
                )
            )
        return out

    @property
    def events(self) -> List[TraceEvent]:
        """The retained trace, decoded to :class:`TraceEvent` objects in
        emission order (a fresh list per read — the binary records stay
        the single source of truth)."""
        merged = self._decode_ring() + self._side
        merged.sort(key=lambda pair: pair[0])
        return [event for _seq, event in merged]

    def round_events(self) -> List[TraceEvent]:
        if self._dtype is None:  # pragma: no cover - numpy-less fallback
            return [e for _seq, e in self._side if e.kind == "round"]
        return [event for _seq, event in self._decode_ring()]

    def deterministic_rounds(self) -> List[Tuple[Any, ...]]:
        """The identity-relevant projection of the round stream: one tuple
        ``(round, messages, bytes_delivered, bytes_peak, residual, digest)``
        per round, wall-clock excluded.  Two executions with equal
        projections took bit-identical trajectories (equal digests pin the
        states, hence the scramble schedule's effect)."""
        return [
            (e.round,) + tuple(e.fields[k] for k in DETERMINISTIC_ROUND_FIELDS)
            for e in self.round_events()
        ]

    def summary_event(self) -> TraceEvent:
        """A ``summary`` event carrying the registry snapshot."""
        return TraceEvent("summary", metrics=self.registry.as_dict())

    # -- export --------------------------------------------------------- #

    def export_jsonl(
        self,
        path: str,
        manifest: Optional[Dict[str, Any]] = None,
        include_summary: bool = True,
    ) -> str:
        """Decode the retained trace and write it to ``path`` as JSONL.

        This is where the ring buffer's lazy decode is finally paid — once,
        at export.  The write goes through the store layer's atomic
        tempfile + rename (:func:`write_jsonl`), so a crash mid-export
        leaves any previous file at ``path`` intact rather than truncated.
        ``include_summary`` appends the :meth:`summary_event` snapshot as
        the stream's last line.  Returns ``path``.
        """
        events = self.events
        if include_summary:
            events = events + [self.summary_event()]
        write_jsonl(path, events, manifest=manifest)
        return path

    def __repr__(self) -> str:
        return f"Tracer({len(self.events)} events, {len(self.registry)} metrics)"


def trace_execution(execution, rounds: Optional[int] = None, tracer: Optional[Tracer] = None) -> Tracer:
    """Attach a tracer (and its plan-cache hook) to ``execution``; if
    ``rounds`` is given, run them before returning the tracer.

    The tracer stays attached so convergence detectors can keep driving
    the same execution under observation; ``execution.detach(tracer)``
    ends the recording.
    """
    tracer = tracer if tracer is not None else Tracer()
    execution.attach(tracer)
    tracer.watch_cache(execution.plan_cache)
    if rounds is not None:
        execution.run(rounds)
    return tracer


# ---------------------------------------------------------------------- #
# batch helpers
# ---------------------------------------------------------------------- #

def attach_tracers(jobs: Sequence[Any]) -> List[Tracer]:
    """Give every :class:`~repro.core.engine.batch.BatchJob` its own fresh
    tracer (appended to ``job.observers``); returns them in job order."""
    tracers = []
    for job in jobs:
        tracer = Tracer()
        job.observers.append(tracer)
        tracers.append(tracer)
    return tracers


def merged_metrics(results_or_tracers: Iterable[Any]) -> MetricsRegistry:
    """Fold per-job metrics into one registry, **in the given (job) order**.

    Accepts tracers directly, or :class:`~repro.core.engine.batch.BatchResult`
    records (whose jobs' tracer observers are harvested) — the job-order
    fold makes the aggregate deterministic.
    """
    merged = MetricsRegistry()
    for item in results_or_tracers:
        if isinstance(item, Tracer):
            merged.merge(item.registry)
            continue
        job = getattr(item, "job", None)
        for observer in getattr(job, "observers", ()):
            if isinstance(observer, Tracer):
                merged.merge(observer.registry)
    return merged


# ---------------------------------------------------------------------- #
# JSONL
# ---------------------------------------------------------------------- #

def events_to_jsonl(events: Iterable[TraceEvent], manifest: Optional[Dict[str, Any]] = None) -> str:
    """Serialize a trace as JSON Lines; a ``manifest`` dict, when given,
    becomes the stream's first line (kind ``manifest``)."""
    lines = []
    if manifest is not None:
        lines.append(json.dumps({"kind": "manifest", "round": None, "fields": manifest}))
    for event in events:
        lines.append(json.dumps(event.to_dict()))
    return "\n".join(lines) + ("\n" if lines else "")


def events_from_jsonl(text: str) -> Tuple[Optional[Dict[str, Any]], List[TraceEvent]]:
    """Parse JSONL back into ``(manifest, events)`` — the inverse of
    :func:`events_to_jsonl` (the leading ``manifest`` line, if present, is
    split off; everything else round-trips as :class:`TraceEvent`)."""
    manifest: Optional[Dict[str, Any]] = None
    events: List[TraceEvent] = []
    for i, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        record = json.loads(line)
        if i == 0 and record.get("kind") == "manifest":
            manifest = record.get("fields", {})
            continue
        events.append(TraceEvent.from_dict(record))
    return manifest, events


def write_jsonl(path_or_file: Union[str, IO[str]], events: Iterable[TraceEvent],
                manifest: Optional[Dict[str, Any]] = None) -> None:
    """:func:`events_to_jsonl` to a path or an open text file.

    Path writes are atomic (tempfile + rename via the store layer's
    :func:`~repro.store.atomic.atomic_write_text`): a crash mid-export
    leaves the previous trace intact, never a truncated stream.
    """
    text = events_to_jsonl(events, manifest=manifest)
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        from repro.store.atomic import atomic_write_text  # no cycle: atomic is leaf

        atomic_write_text(path_or_file, text)


def read_jsonl(path_or_file: Union[str, IO[str]]) -> Tuple[Optional[Dict[str, Any]], List[TraceEvent]]:
    """:func:`events_from_jsonl` from a path or an open text file."""
    if hasattr(path_or_file, "read"):
        return events_from_jsonl(path_or_file.read())
    with open(path_or_file, "r", encoding="utf-8") as fh:
        return events_from_jsonl(fh.read())
