"""Helpers every workload shares: host record, environment, seeds, stats."""

from __future__ import annotations

import os
import platform
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

#: The checkout this benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Variables that would change what or how the program runs; cleared for
#: the benchmark process and every process it starts.
SCRUBBED_ENV = (
    "REPRO_PARALLEL",
    "REPRO_VECTOR",
    "REPRO_QUOTIENT",
    "REPRO_STORE",
    "REPRO_MEMO",
    "REPRO_HEARTBEAT_SECONDS",
    "REPRO_LEASE_STALE_SECONDS",
    "REPRO_SERVICE_PORT",
)

#: The default workload seed (README.md names the held-out one).
PRIMARY_SEED = 1

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

clock = time.perf_counter

#: A fixed pure-Python loop, independent of the program measured, whose
#: time tracks how fast the host runs Python at the moment.  On shared
#: hosts that speed drifts by +-20 % over seconds to minutes.
CALIBRATION_LOOP = 200_000
#: The loop's time at the reference speed (a 2-vCPU KVM guest, Python
#: 3.11, unloaded): CPU-bound timings are reported at this speed.
REFERENCE_CALIBRATION_S = 0.014


def calibration_s() -> float:
    """The loop's time now: the median of three runs (one run jitters by
    about +-10 % on its own)."""
    times = []
    for _ in range(3):
        started = clock()
        total = 0
        for i in range(CALIBRATION_LOOP):
            total += i * i
        times.append(clock() - started)
    return statistics.median(times)


class SpeedScale:
    """Rescales CPU-bound timings to the reference host speed.  Each
    measured section is bracketed by calibration loops; :meth:`factor`
    runs the closing one (which also opens the next section)."""

    def __init__(self):
        self.last = calibration_s()

    def factor(self) -> float:
        now = calibration_s()
        factor = REFERENCE_CALIBRATION_S / ((self.last + now) / 2)
        self.last = now
        return factor


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    #: Metric name -> value; ``None`` marks a metric the run could not produce.
    metrics: Dict[str, Optional[float]] = field(default_factory=dict)
    #: Everything else worth keeping: sample counts, per-lane detail, seeds.
    detail: Dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; record what failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.detail.setdefault("failures", []).append(what)


def scrub_environment() -> None:
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)


def child_environment() -> Dict[str, str]:
    """The environment of every process the benchmark starts."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def host_record() -> Dict[str, Any]:
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "single_cpu": nproc == 1,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def seed_stream(workload: str, seed: int) -> Iterator[int]:
    """Scenario seeds for one run, derived only from the workload seed."""
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield rng.randrange(1, 2**31)


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (exclusive method, as
    ``statistics.quantiles``); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100)[q - 1]


def lane_stats(
    outcome: "Outcome", workload: str, samples: Dict[str, List[float]], typical: str
) -> Dict[str, float]:
    """``laneN_s`` — each lane's ``typical`` (``"p50_s"`` or ``"mean_s"``)
    latency; the record gets p50, p90, mean and sample count, by lane name."""
    from perfbench.metrics import LANES

    out: Dict[str, float] = {}
    for lane, values in samples.items():
        stats = {
            "samples": len(values),
            "p50_s": percentile(values, 50),
            "p90_s": percentile(values, 90),
            "mean_s": statistics.fmean(values),
        }
        outcome.detail.setdefault("lanes", {})[LANES[workload][lane]] = stats
        out[f"{lane}_s"] = stats[typical]
    return out


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> List[int]:
    """Live children of ``pid`` (scans ``/proc``)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesized command name.
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry))
    return found
