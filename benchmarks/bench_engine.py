"""Experiment E1 — old-vs-new executor throughput (the engine refactor).

Measures rounds/sec of the layered engine (compiled delivery plans,
flavor-resolved transports, one scramble stream) against the pre-engine
monolithic interpreter (kept alive verbatim as
``ReferenceExecution(legacy_scramble=True)``) on the two workloads the
refactor targeted:

* a **static 64-node bidirectional ring** — the plan compiles once and
  every subsequent round is pure transport (the table harness's shape);
* a **random dynamic graph** (fresh strongly connected digraph each
  round) — plans must be compiled per round graph, so this bounds the
  worst case for the plan layer.

A third workload benchmarks the PR-7 **vector backend**: Push-Sum on a
64-node *periodic* dynamic graph (16 pre-built strongly connected
digraphs cycled round-robin, so plans cache but the topology genuinely
changes every round).  The object engine runs one Python call per vertex
per round; the vector engine runs the same rounds as numpy
gather/segment-reduce over cached CSR index arrays.  Acceptance bar:
``vector ≥ 10×`` object on this workload.

Each workload times its two contenders interleaved (a, b, a, b, …), so
a change in host speed during the run hits both sides alike.

Results are written to ``BENCH_engine.json`` next to this file's repo
root, and the static-ring speedup is asserted ≥ 2× (the refactor's
acceptance bar).

Run directly (``python benchmarks/bench_engine.py``) or via pytest.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import emit

from repro.algorithms import PushSumAlgorithm
from repro.core.agent import BroadcastAlgorithm
from repro.core.engine import ReferenceExecution
from repro.core.engine.vector import VectorExecution, numpy_available
from repro.core.execution import Execution
from repro.dynamics.dynamic_graph import PeriodicDynamicGraph
from repro.dynamics.generators import random_dynamic_strongly_connected
from repro.graphs.builders import bidirectional_ring, random_strongly_connected

N = 64
ROUNDS = 300
REPEATS = 3
VECTOR_SPEEDUP_BAR = 10.0
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


class FloodCount(BroadcastAlgorithm):
    """A cheap but honest workload: executor overhead dominates."""

    def initial_state(self, input_value):
        return int(input_value)

    def message(self, state):
        return state

    def transition(self, state, received):
        return max(state, max(received))

    def output(self, state):
        return state


def _one_run(make_execution, rounds: int) -> float:
    """Rounds/sec of a single fresh execution."""
    execution = make_execution()
    started = time.perf_counter()
    execution.run(rounds)
    return rounds / (time.perf_counter() - started)


def _paired_throughput(make_a, make_b, rounds: int = ROUNDS, repeats: int = REPEATS):
    """Best-of-``repeats`` rounds/sec for two contenders, interleaved
    a, b, a, b, … so a change in host speed hits both equally."""
    best_a = best_b = 0.0
    for _ in range(repeats):
        best_a = max(best_a, _one_run(make_a, rounds))
        best_b = max(best_b, _one_run(make_b, rounds))
    return best_a, best_b


def _workloads():
    inputs = list(range(N))
    ring = bidirectional_ring(N)
    return {
        "static_ring_64": (
            lambda: ReferenceExecution(
                FloodCount(), ring, inputs=inputs, legacy_scramble=True
            ),
            lambda: Execution(FloodCount(), ring, inputs=inputs),
        ),
        "random_dynamic_64": (
            lambda: ReferenceExecution(
                FloodCount(),
                random_dynamic_strongly_connected(N, seed=7),
                inputs=inputs,
                legacy_scramble=True,
            ),
            lambda: Execution(
                FloodCount(), random_dynamic_strongly_connected(N, seed=7), inputs=inputs
            ),
        ),
    }


def _vector_workload():
    """Object vs vector Push-Sum on a periodic 64-node dynamic graph.

    Each execution first runs one full 16-graph period untimed so every
    round graph's plan (and the vector path's CSR arrays) is compiled and
    cached — the timed section then measures steady-state round
    throughput, which is what the table harness's long runs see.  Both
    engines get the identical warm-up.
    """
    inputs = [float(v + 1) for v in range(N)]
    graphs = [random_strongly_connected(N, 0.2, seed=100 + i) for i in range(16)]

    def make(backend):
        def build():
            execution = backend(
                PushSumAlgorithm(),
                PeriodicDynamicGraph(graphs),
                inputs=inputs,
            )
            execution.run(len(graphs))  # warm the plan/CSR caches
            return execution

        return build

    # Longer timed section + more repeats than the interpreter workloads:
    # the vector engine finishes 300 rounds in ~10ms, so per-run jitter
    # needs more amortization before the ratio stabilizes.
    object_rps, vector_rps = _paired_throughput(
        make(Execution), make(VectorExecution), rounds=600, repeats=5
    )
    return {
        "object_rounds_per_sec": round(object_rps, 1),
        "vector_rounds_per_sec": round(vector_rps, 1),
        "speedup": round(vector_rps / object_rps, 2),
    }


def run_bench() -> dict:
    results = {"n": N, "rounds": ROUNDS, "workloads": {}}
    for name, (make_old, make_new) in _workloads().items():
        old_rps, new_rps = _paired_throughput(make_old, make_new)
        results["workloads"][name] = {
            "old_rounds_per_sec": round(old_rps, 1),
            "new_rounds_per_sec": round(new_rps, 1),
            "speedup": round(new_rps / old_rps, 2),
        }
    if numpy_available():
        results["vector_push_sum_dynamic_64"] = _vector_workload()
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    return results


def _render(results: dict) -> str:
    lines = [f"Engine throughput (n={results['n']}, {results['rounds']} rounds)"]
    for name, r in results["workloads"].items():
        lines.append(
            f"  {name:<20} old {r['old_rounds_per_sec']:>9.1f} r/s   "
            f"new {r['new_rounds_per_sec']:>9.1f} r/s   ({r['speedup']:.2f}x)"
        )
    vec = results.get("vector_push_sum_dynamic_64")
    if vec:
        lines.append(
            f"  {'vector_push_sum':<20} obj {vec['object_rounds_per_sec']:>9.1f} r/s   "
            f"vec {vec['vector_rounds_per_sec']:>9.1f} r/s   ({vec['speedup']:.2f}x)"
        )
    lines.append(f"  -> {RESULT_PATH.name}")
    return "\n".join(lines)


def test_engine_speedup():
    results = run_bench()
    emit(_render(results))
    ring = results["workloads"]["static_ring_64"]
    assert ring["speedup"] >= 2.0, (
        f"static-ring speedup {ring['speedup']}x below the 2x acceptance bar"
    )
    dynamic = results["workloads"]["random_dynamic_64"]
    assert dynamic["speedup"] >= 1.0, (
        f"engine slower than the naive interpreter on dynamic graphs: {dynamic}"
    )
    vec = results.get("vector_push_sum_dynamic_64")
    if vec is not None:
        assert vec["speedup"] >= VECTOR_SPEEDUP_BAR, (
            f"vector backend speedup {vec['speedup']}x below the "
            f"{VECTOR_SPEEDUP_BAR}x acceptance bar"
        )


if __name__ == "__main__":
    print(_render(run_bench()))
