"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the parent of this directory and the
program is imported from its ``src/``.  With ``--trace 0`` the result
line carries the end-to-end metrics, with ``--trace 1`` the per-layer
metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the full record of the
run (host, seeds, sample counts, absent metrics, failures) is written
under ``.perfbench-runs/`` in the checkout.  Exits 2 without a result
when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import metrics  # noqa: E402
from perfbench.common import PRIMARY_SEED, SpeedScale, host_record, scrub_environment  # noqa: E402

RUNS_DIR = ROOT / ".perfbench-runs"


def _import_program() -> float:
    """Import the scenario layer (and with it the engine); returns the
    seconds it took — the import half of an in-process set-up sample."""
    started = time.perf_counter()
    import repro.scenarios  # noqa: F401
    import repro.scenarios.runner  # noqa: F401

    return time.perf_counter() - started


def _in_process(name: str):
    if name == "paper_tables":
        from perfbench.paper_tables import WORKLOAD
    else:
        from perfbench.grid_sweep import WORKLOAD
    return WORKLOAD


def result_line(outcome, trace: bool):
    """The driver's result object, plus the names recorded as absent."""
    mode = "per_layer" if trace else "end_to_end"
    out, absent = {}, []
    for name, unit in metrics.units(mode).items():
        value = outcome.metrics.get(name)
        if value is None:
            if not trace:
                raise RuntimeError(f"end-to-end metric {name} was not measured")
            absent.append(name)
            value = 0
        out[name] = {"value": value, "unit": unit}
    line = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": out,
    }
    return line, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=PRIMARY_SEED)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program to measure (src/repro is missing)", file=sys.stderr)
        return 2
    scrub_environment()
    scale = SpeedScale()
    import_s = _import_program()

    if args.setup_probe:
        from perfbench.inprocess import setup_sample

        sample = setup_sample(_in_process(args.workload), args.seed, import_s, scale)
        print(json.dumps({"setup_s": sample}))
        return 0

    RUNS_DIR.mkdir(exist_ok=True)
    work = RUNS_DIR / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        if args.workload == "serve_onebit":
            from perfbench import serve_onebit

            outcome = serve_onebit.run(args.seed, args.seconds, bool(args.trace), work, scale)
        else:
            from perfbench import inprocess

            outcome = inprocess.run(
                _in_process(args.workload), args.seed, args.seconds, bool(args.trace),
                import_s, scale,
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    line, absent = result_line(outcome, bool(args.trace))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_record(),
        "result": line,
        "failed_ratio": outcome.failed / outcome.attempted if outcome.attempted else None,
        "absent": absent,
        "detail": outcome.detail,
    }
    detail_path = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    host = record["host"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"host: nproc={host['nproc']}{' (single CPU)' if host['single_cpu'] else ''} "
          f"python={host['python']} numpy={host['numpy']}")
    for name, metric in line["metrics"].items():
        shown = "absent" if name in absent else f"{metric['value']:.6g} {metric['unit']}"
        print(f"#   {name} = {shown}")
    print(f"# failed_ratio = {record['failed_ratio']}  (record: {detail_path.relative_to(ROOT)})")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
