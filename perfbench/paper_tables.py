"""paper_tables: the paper's Tables 1 and 2, cold, through ``run_scenario``.

Each iteration loads ``configs/table1.json`` (n=6) and
``configs/table2.json`` (n=5), gives both one fresh seed derived from
the workload seed, clears the memo caches before each table (so each
starts as cold as a fresh ``python -m repro run``) and runs them with
default engine flags and no store.  Every document must read PASS.

Lanes: lane1 = Table 1 document, lane2 = Table 2 document, lane3 = both
(one iteration).  Units are table cells.
"""

from __future__ import annotations

import json
from typing import List

from perfbench.common import ROOT, Outcome, clock
from perfbench.inprocess import InProcessWorkload, IterationResult, Memos

CONFIGS = {table: ROOT / "configs" / f"table{table}.json" for table in (1, 2)}


def iterate(seeds: List[int], memos: Memos, outcome: Outcome, _tamper) -> IterationResult:
    import repro.scenarios as scenarios

    (seed,) = seeds
    lanes, cells = {}, 0
    for table, lane in ((1, "lane1"), (2, "lane2")):
        config = json.loads(CONFIGS[table].read_text())
        config["seed"] = seed
        memos.clear()
        started = clock()
        document = scenarios.run_scenario(
            scenarios.validate_scenario(config, source=str(CONFIGS[table]))
        )
        lanes[lane] = clock() - started
        outcome.check(
            document["summary"]["verdict"] == "PASS",
            f"table{table} seed {seed}: verdict {document['summary']['verdict']}",
        )
        cells += len(document["cells"])
    lanes["lane3"] = lanes["lane1"] + lanes["lane2"]
    return lanes, cells, lanes["lane3"]


WORKLOAD = InProcessWorkload("paper_tables", seeds_per_iteration=1, iterate=iterate)
