"""Experiment E4 — worklist partition refinement.

The Hopcroft/Paige–Tarjan-style worklist refiner
(``equitable_partition``) against the retained naive iterate-to-fixpoint
reference (``equitable_partition_reference``).  The adversarial workload
is a **uniform directed chain**: the naive refiner discovers one new
class per full pass (Θ(n) passes of Θ(n) signature work), while the
worklist pops one singleton splitter per split.  A valued bidirectional
ring that collapses in one pass is kept as the honest near-best case for
the naive code.

Results are written to ``BENCH_fibrations.json`` at the repo root; the
chain speedup at n = 256 is asserted ≥ 5× (the PR's acceptance bar).

Run directly (``python benchmarks/bench_fibrations.py``) or via pytest.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

from conftest import emit

from repro.fibrations.minimum_base import (
    equitable_partition,
    equitable_partition_reference,
    same_partition,
)
from repro.graphs.builders import bidirectional_ring
from repro.graphs.digraph import DiGraph

REPEATS = 5
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_fibrations.json"


def _uniform_chain(n: int) -> DiGraph:
    """A directed path with no values: the naive refiner's worst case."""
    return DiGraph(n, [(i, i + 1) for i in range(n - 1)])


def _valued_ring(n: int) -> DiGraph:
    """A two-valued ring that stabilizes after a single pass."""
    return bidirectional_ring(n, values=[v % 2 for v in range(n)])


PARTITION_WORKLOADS = {
    "uniform_chain_64": lambda: _uniform_chain(64),
    "uniform_chain_256": lambda: _uniform_chain(256),
    "valued_ring_256": lambda: _valued_ring(256),
}


def _best_seconds(fn, repeats: int = REPEATS) -> float:
    """Best-of-``repeats`` wall time of one ``fn()`` call."""
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def run_bench() -> dict:
    results = {"partition": {}}

    for name, make_graph in PARTITION_WORKLOADS.items():
        g = make_graph()
        # Both refiners must induce the same partition before we time them.
        assert same_partition(equitable_partition(g), equitable_partition_reference(g))
        ref = _best_seconds(lambda: equitable_partition_reference(g))
        wl = _best_seconds(lambda: equitable_partition(g))
        results["partition"][name] = {
            "n": g.n,
            "reference_seconds": round(ref, 6),
            "worklist_seconds": round(wl, 6),
            "speedup": round(ref / wl, 2),
        }

    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    return results


def _render(results: dict) -> str:
    lines = ["Partition refinement (worklist vs naive reference)"]
    for name, r in results["partition"].items():
        lines.append(
            f"  {name:<20} naive {r['reference_seconds'] * 1e3:>9.2f} ms   "
            f"worklist {r['worklist_seconds'] * 1e3:>8.2f} ms   ({r['speedup']:.2f}x)"
        )
    lines.append(f"  -> {RESULT_PATH.name}")
    return "\n".join(lines)


def test_fibration_refinement_speedup():
    results = run_bench()
    emit(_render(results))
    chain = results["partition"]["uniform_chain_256"]
    assert chain["speedup"] >= 5.0, (
        f"worklist speedup {chain['speedup']}x on the n=256 chain is below "
        f"the 5x acceptance bar"
    )


if __name__ == "__main__":
    print(_render(run_bench()))
