"""The driver shared by the in-process workloads (paper_tables, grid_sweep).

A workload supplies :class:`InProcessWorkload`: how many scenario seeds
one iteration draws, and the iteration itself, which returns one latency
per lane, the number of units (cells or rows) it produced and the
program time that produced them.

Untraced run: the process imports ``repro`` and runs one untimed
iteration (its set-up sample), starts fresh interpreters that do the
same for the remaining set-up samples, then iterates until the time is
up.  Traced run: a third of the time untraced, then the same seeds
again with the layer wrappers installed, so the overhead ratio compares
identical work.

All of this work is CPU-bound, so every iteration is bracketed by
calibration loops and its timings are reported at the reference host
speed (:class:`~perfbench.common.SpeedScale`); the raw figures are kept
in the run record.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from perfbench import layers, spans
from perfbench.common import (
    ROOT,
    SETUP_SAMPLES,
    Outcome,
    SpeedScale,
    child_environment,
    clock,
    lane_stats,
    own_peak_rss_mb,
    seed_stream,
)

#: Latency per lane, units produced, program seconds spent producing them.
IterationResult = Tuple[Dict[str, float], int, float]

#: Traced iterations kept at most (spans stay in memory until the end).
MAX_TRACED_ITERATIONS = 4


class Memos:
    """Clears the memo caches before each cold step; while tracing, it
    first banks the minimum-base hit/miss counters the clear resets."""

    def __init__(self, bank: bool = False):
        self.banked = {"hits": 0, "misses": 0} if bank else None

    def clear(self) -> None:
        from repro.core.memo import clear_memos, memo_stats

        if self.banked is not None:
            stats = memo_stats()["minimum_base"]
            self.banked["hits"] += stats["hits"]
            self.banked["misses"] += stats["misses"]
        clear_memos()


@dataclass
class InProcessWorkload:
    name: str
    seeds_per_iteration: int
    #: ``iterate(seeds, memos, outcome, tamper) -> IterationResult``
    iterate: Callable[..., IterationResult]

    def draw(self, stream) -> List[int]:
        return [next(stream) for _ in range(self.seeds_per_iteration)]


def setup_sample(workload: InProcessWorkload, seed: int, import_s: float, scale: SpeedScale) -> float:
    """Import time plus one untimed iteration on the run's first seeds,
    at reference speed (``scale`` was opened before the import)."""
    started = clock()
    workload.iterate(workload.draw(seed_stream(workload.name, seed)), Memos(), Outcome(), None)
    return (import_s + clock() - started) * scale.factor()


def _probe_setup(workload: str, seed: int) -> float:
    """One set-up sample from a fresh interpreter (``run.py --setup-probe``)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        env=child_environment(), cwd=ROOT, capture_output=True, text=True, timeout=120,
        check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run(
    workload: InProcessWorkload,
    seed: int,
    seconds: float,
    trace: bool,
    import_s: float,
    scale: SpeedScale,
    tamper=None,
) -> Outcome:
    outcome = Outcome()
    samples = [setup_sample(workload, seed, import_s, scale)]
    if not trace:
        samples.extend(_probe_setup(workload.name, seed) for _ in range(SETUP_SAMPLES - 1))
    outcome.detail["setup_samples_s"] = samples
    stream = seed_stream(workload.name, seed)
    workload.draw(stream)  # the set-up iteration's seeds
    records = []
    deadline = clock() + (seconds / 3 if trace else seconds)
    while clock() < deadline:
        seeds = workload.draw(stream)
        started = clock()
        lanes, units, busy = workload.iterate(seeds, Memos(), outcome, tamper)
        wall = clock() - started
        factor = scale.factor()
        records.append({
            "seeds": seeds, "wall": wall * factor, "units": units, "busy": busy * factor,
            "raw_busy": busy, "lanes": {lane: t * factor for lane, t in lanes.items()},
        })
    if trace:
        return _traced(workload, records, deadline + seconds * 2 / 3, outcome, tamper, scale)

    lanes: Dict[str, List[float]] = {}
    for record in records:
        for lane, latency in record["lanes"].items():
            lanes.setdefault(lane, []).append(latency)
    units = sum(r["units"] for r in records)
    outcome.metrics = {
        "setup_s": statistics.median(samples),
        "peak_rss_mb": own_peak_rss_mb(),
        "units_per_s": units / sum(r["busy"] for r in records),
        **lane_stats(outcome, workload.name, lanes, typical="mean_s"),
    }
    outcome.detail.update(
        iterations=len(records),
        units=units,
        raw_units_per_s=units / sum(r["raw_busy"] for r in records),
        speed_factors=[r["busy"] / r["raw_busy"] for r in records],
    )
    return outcome


def _traced(workload, untraced, deadline, outcome, tamper, scale) -> Outcome:
    """Replay the untraced iterations' seeds with the wrappers installed."""
    from repro.core.engine.quotient import quotient_stats

    recorder = spans.Recorder()
    memos = Memos(bank=True)
    ops, quotient_deltas, traced_s = [], [], 0.0
    installed = spans.install(recorder, spans.ENGINE_TARGETS)
    try:
        for record in untraced[:MAX_TRACED_ITERATIONS]:
            if ops and clock() >= deadline:
                break
            before = quotient_stats()
            started = clock()
            workload.iterate(record["seeds"], memos, outcome, tamper)
            ops.append({"id": len(ops), "start": started, "end": clock()})
            traced_s += (ops[-1]["end"] - started) * scale.factor()
            after = quotient_stats()
            quotient_deltas.append({
                "activations": after["activations"] - before["activations"],
                "fallback_reasons": {
                    reason: count - before["fallback_reasons"].get(reason, 0)
                    for reason, count in after["fallback_reasons"].items()
                },
            })
        memos.clear()  # bank the last iteration's counters
    finally:
        spans.uninstall(installed)

    grouped = layers.attribute(recorder.spans, ops)
    values = layers.engine_metrics(
        [grouped[op["id"]] for op in ops], recorder.spans,
        quotient=quotient_deltas, memo=memos.banked,
    )
    values["trace.overhead_ratio"] = traced_s / sum(r["wall"] for r in untraced[: len(ops)])
    outcome.metrics = layers.complete(values)
    outcome.detail.update(traced_iterations=len(ops), spans=len(recorder.spans))
    return outcome
