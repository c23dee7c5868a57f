"""Experiment A12 — quotient-accelerated execution on huge symmetric graphs.

The Lifting lemma (Lemma 3.1) makes a 65,536-vertex hypercube cost one
vertex per round: :class:`~repro.core.engine.quotient.QuotientExecution`
simulates the memoized minimum base and lifts the trajectory only when
states are actually read.  This benchmark measures that collapse on the
three stock vertex-transitive families at ``n = 2**16``:

* ``ring_65536`` — bidirectional ring, base 1;
* ``torus_256x256`` — 256×256 torus, base 1;
* ``hypercube_2^16`` — 16-dimensional hypercube (17-regular with
  self-loops: > 1.1 M messages per direct round), base 1.

For each family the quotient run's rounds/sec is paired against a direct
run's (the direct side gets few rounds — a single 2^16 hypercube round
costs seconds).  One-time costs are reported separately
(``activation_seconds``: the minimum-base refinement + base construction)
so the steady-state throughput ratio stays honest, alongside the
base-compression ratio ``full_n / base_n`` and the module's
activation/fallback counters.

Results land in ``BENCH_quotient.json`` at the repo root; the hypercube
speedup is asserted ≥ 10× (the PR's acceptance bar — measured values are
orders of magnitude above it).

Run directly (``python benchmarks/bench_quotient.py``) or via pytest.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import emit

from repro.algorithms import GossipAlgorithm
from repro.core.engine.quotient import (
    QuotientExecution,
    clear_quotient_stats,
    quotient_stats,
)
from repro.core.execution import Execution
from repro.graphs.builders import bidirectional_ring, hypercube, torus

N = 2**16
QUOTIENT_ROUNDS = 200
DIRECT_ROUNDS = 2
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_quotient.json"

WORKLOADS = {
    "ring_65536": lambda: bidirectional_ring(N),
    "torus_256x256": lambda: torus(256, 256),
    "hypercube_2^16": lambda: hypercube(16),
}


def _throughput(execution, rounds: int) -> float:
    started = time.perf_counter()
    execution.run(rounds)
    return rounds / (time.perf_counter() - started)


def run_bench() -> dict:
    clear_quotient_stats()
    results: dict = {"n": N, "workloads": {}}
    for name, make_graph in WORKLOADS.items():
        g = make_graph()
        inputs = [7] * g.n

        started = time.perf_counter()
        accelerated = QuotientExecution(GossipAlgorithm(max), g, inputs=inputs)
        activation_seconds = time.perf_counter() - started
        assert accelerated.quotient_active, (
            f"{name}: quotient did not activate "
            f"({accelerated.quotient_fallback_reason})"
        )
        quotient_rps = _throughput(accelerated, QUOTIENT_ROUNDS)

        direct = Execution(GossipAlgorithm(max), g, inputs=inputs)
        direct_rps = _throughput(direct, DIRECT_ROUNDS)

        # The lift is the honest read-out cost: one full-size vector copy.
        lift_started = time.perf_counter()
        lifted = accelerated.states
        lift_seconds = time.perf_counter() - lift_started
        assert len(lifted) == g.n

        results["workloads"][name] = {
            "full_n": g.n,
            "base_n": accelerated.base_n,
            "compression": g.n // accelerated.base_n,
            "activation_seconds": round(activation_seconds, 3),
            "lift_seconds": round(lift_seconds, 4),
            "quotient_rounds": QUOTIENT_ROUNDS,
            "direct_rounds": DIRECT_ROUNDS,
            "quotient_rounds_per_sec": round(quotient_rps, 1),
            "direct_rounds_per_sec": round(direct_rps, 3),
            "speedup": round(quotient_rps / direct_rps, 1),
        }
    results["quotient_stats"] = quotient_stats()
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    return results


def _render(results: dict) -> str:
    lines = [f"Quotient execution at n = {results['n']} (rounds/sec)"]
    for name, r in results["workloads"].items():
        lines.append(
            f"  {name:<16} base {r['base_n']:>2} ({r['compression']}x smaller)   "
            f"direct {r['direct_rounds_per_sec']:>8.3f} r/s   "
            f"quotient {r['quotient_rounds_per_sec']:>10.1f} r/s   "
            f"({r['speedup']:.0f}x)"
        )
    lines.append(f"  -> {RESULT_PATH.name}")
    return "\n".join(lines)


def test_quotient_speedup():
    results = run_bench()
    emit(_render(results))
    stats = results["quotient_stats"]
    assert stats["activations"] == len(WORKLOADS)
    for name, r in results["workloads"].items():
        assert r["compression"] == r["full_n"], f"{name}: expected a one-vertex base"
    cube = results["workloads"]["hypercube_2^16"]
    assert cube["speedup"] >= 10.0, (
        f"quotient speedup {cube['speedup']}x on the 2^16 hypercube is below "
        f"the 10x acceptance bar"
    )


if __name__ == "__main__":
    print(_render(run_bench()))
