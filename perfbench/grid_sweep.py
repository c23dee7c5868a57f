"""grid_sweep: one kernel-backed grid under the object, vector and
quotient engines.

Each iteration draws two fresh seeds and runs a ``gossip-max`` grid —
complete, ring, directed-ring, star, hypercube and random graphs of 8 to
128 vertices, ``one-hot`` inputs, a 140-round budget: 60 rows — under
engine ``{}``, ``{"vector": true}`` and ``{"quotient": true}``, clearing
the memo caches before each mode.  Every row must be consistent and the
three documents byte-identical.

Lanes: lane1 = object, lane2 = vector, lane3 = quotient document.  Units
are rows, over all three engines.
"""

from __future__ import annotations

from typing import Any, Dict, List

from perfbench.common import Outcome, clock
from perfbench.inprocess import InProcessWorkload, IterationResult, Memos

FAMILIES = ("complete", "ring", "directed-ring", "star", "hypercube", "random")
SIZES = [8, 16, 32, 64, 128]
MODES = (("lane1", {}), ("lane2", {"vector": True}), ("lane3", {"quotient": True}))


def config(seeds: List[int], engine: Dict[str, bool]) -> Dict[str, Any]:
    return {
        "scenario": "perfbench-grid",
        "kind": "grid",
        "model": "simple broadcast",
        "rounds": 140,
        "seeds": list(seeds),
        "graphs": [{"family": family, "sizes": SIZES} for family in FAMILIES],
        "probes": ["gossip-max"],
        "inputs": "one-hot",
        "engine": engine,
    }


def iterate(seeds: List[int], memos: Memos, outcome: Outcome, tamper) -> IterationResult:
    import repro.scenarios as scenarios
    from repro.scenarios.runner import document_bytes

    lanes, rows, reference = {}, 0, None
    for lane, engine in MODES:
        memos.clear()
        started = clock()
        document = scenarios.run_scenario(
            scenarios.validate_scenario(config(seeds, engine), source="grid_sweep")
        )
        lanes[lane] = clock() - started
        body = document_bytes(document)
        if tamper is not None:
            body = tamper(lane, body)
        if reference is None:
            reference = body
        consistent = all(row["consistent"] for row in document["rows"])
        outcome.check(
            consistent and document["summary"]["verdict"] == "PASS" and body == reference,
            f"grid seeds {seeds} engine {engine}: "
            f"{'rows consistent' if consistent else 'inconsistent rows'}, "
            f"{'same bytes' if body == reference else 'bytes differ from object engine'}",
        )
        rows += len(document["rows"])
    return lanes, rows, sum(lanes.values())


WORKLOAD = InProcessWorkload("grid_sweep", seeds_per_iteration=2, iterate=iterate)
