"""``python -m repro`` — reproduce the paper's tables from the command line.

Usage::

    python -m repro                 # both tables, default sizes
    python -m repro --table 1       # just Table 1
    python -m repro --n 8 --seed 3  # different network size / randomness
    python -m repro --json          # machine-readable certificate (+ manifest)
    python -m repro run configs/table1.json
                                    # run a declarative scenario config
    python -m repro run configs/onebit_counting.json --pretty
    python -m repro trace --n 8 --rounds 20 --out trace.jsonl
                                    # round-level JSONL trace of one execution
    python -m repro store --root ./exp submit table2 --n 5
    python -m repro store --root ./exp submit scenario --config cfg.json
    python -m repro store --root ./exp run          # crash-safe worker loop
    python -m repro store --root ./exp status       # queue + cache stats
                                    # durable, resumable experiment runs
    python -m repro store --root ./exp --shards 8 run --pools 2
                                    # sharded queue + asyncio orchestrator
    python -m repro store --root ./exp gc --jobs --retention 86400
                                    # prune terminal job records older than a day
    python -m repro serve --root ./exp --port 0 --pools 2
                                    # HTTP API + embedded orchestrator
                                    # (SSE live traces, cached-result 303s)
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.engine import EngineFlags


def trace_main(argv=None) -> int:
    """``python -m repro trace`` — run one traced execution, emit JSONL.

    The stream's first line is the run's provenance manifest; then one
    ``round`` event per round and a final ``summary`` event with the
    metrics-registry snapshot (:func:`repro.core.engine.trace.events_from_jsonl`
    reads it all back).
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description=(
            "Run one algorithm under the engine's structured tracing layer "
            "and emit the round-level trace as JSON Lines (manifest first, "
            "then one event per round, then a metrics summary)."
        ),
    )
    parser.add_argument(
        "--algorithm",
        choices=["gossip", "push-sum"],
        default="push-sum",
        help="what to run: set-flooding gossip or average-computing Push-Sum",
    )
    parser.add_argument("--n", type=int, default=8, help="network size")
    parser.add_argument("--seed", type=int, default=0, help="random-graph seed")
    parser.add_argument("--rounds", type=int, default=20, help="rounds to trace")
    parser.add_argument(
        "--graph",
        choices=["random", "ring", "hypercube", "torus"],
        default="random",
        help=(
            "static topology family: a seeded random strongly connected "
            "graph, or a symmetric family (ring/hypercube/torus) whose "
            "minimum base is small enough for --quotient to kick in"
        ),
    )
    parser.add_argument(
        "--dynamic",
        action="store_true",
        help="run on a seeded random dynamic network instead of a static one",
    )
    parser.add_argument(
        "--quotient",
        action="store_true",
        help=(
            "simulate the minimum base and lift the trajectory "
            "(quotient-accelerated execution; falls back to a direct run "
            "when the Lifting lemma does not apply)"
        ),
    )
    parser.add_argument(
        "--vector",
        action="store_true",
        help=(
            "run rounds as vectorized numpy kernels where the algorithm "
            "has one (gossip, Push-Sum and variants, Metropolis); falls "
            "back to the object stepper otherwise — the trace is the same "
            "either way"
        ),
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write the JSONL stream to this path (default: stdout)",
    )
    args = parser.parse_args(argv)

    from repro.algorithms import GossipAlgorithm, PushSumAlgorithm
    from repro.analysis.provenance import Manifest, network_fingerprint
    from repro.core.engine import select_backend
    from repro.core.engine.quotient import publish_quotient_metrics, quotient_stats
    from repro.core.engine.trace import trace_execution, write_jsonl
    from repro.core.engine.vector import publish_vector_metrics, vector_stats
    from repro.core.memo import memo_stats, publish_memo_metrics

    if args.dynamic:
        from repro.dynamics.generators import random_dynamic_strongly_connected

        network = random_dynamic_strongly_connected(args.n, seed=args.seed)
    elif args.graph == "ring":
        from repro.graphs.builders import bidirectional_ring

        network = bidirectional_ring(args.n)
    elif args.graph == "hypercube":
        from repro.graphs.builders import hypercube

        network = hypercube(max(args.n - 1, 1).bit_length())
    elif args.graph == "torus":
        from repro.graphs.builders import torus

        side = max(2, round(args.n ** 0.5))
        network = torus(side, side)
    else:
        from repro.graphs.builders import random_strongly_connected

        network = random_strongly_connected(args.n, seed=args.seed)
    n = args.n if args.dynamic else network.n

    # The symmetric families get fibrewise-constant inputs (the minimum
    # base of a vertex-transitive graph is a single vertex, and the
    # Lifting lemma needs inputs constant on fibres); the random graphs
    # keep per-vertex inputs.  This depends only on --graph, never on
    # --quotient, so the flag changes execution strategy, not the run.
    if args.algorithm == "gossip":
        algorithm = GossipAlgorithm(max)
        if args.graph != "random" and not args.dynamic:
            inputs = [(args.seed * 7919) % 101] * n
        else:
            inputs = [(v * 7919 + args.seed) % 101 for v in range(n)]
    else:
        algorithm = PushSumAlgorithm()
        if args.graph != "random" and not args.dynamic:
            inputs = [float(args.seed % 7 + 1)] * n
        else:
            inputs = [float(v + 1) for v in range(n)]

    baseline = memo_stats()
    quotient_baseline = quotient_stats()
    vector_baseline = vector_stats()
    # Unset flags are False, not None: a trace runs what its flags say,
    # whatever REPRO_QUOTIENT / REPRO_VECTOR hold.
    backend = select_backend(EngineFlags(quotient=args.quotient, vector=args.vector))
    execution = backend(algorithm, network, inputs=inputs)
    tracer = trace_execution(execution, rounds=args.rounds)
    # This run's memo hits/misses (delta from the baseline snapshot) go
    # into the summary metrics as memo_<cache>_hits / _misses counters,
    # and likewise the quotient and vector layers' activation/fallback
    # counters.
    publish_memo_metrics(tracer.registry, baseline)
    publish_quotient_metrics(tracer.registry, quotient_baseline)
    publish_vector_metrics(tracer.registry, vector_baseline)

    extra = {"algorithm": args.algorithm, "dynamic": args.dynamic}
    if args.graph != "random":
        extra["graph"] = args.graph
    if args.quotient:
        extra["quotient"] = {
            "active": bool(getattr(execution, "quotient_active", False)),
            "base_n": getattr(execution, "base_n", None),
            "full_n": n,
            "fallback_reason": getattr(execution, "quotient_fallback_reason", None),
        }
    if args.vector:
        extra["vector"] = {
            "active": bool(getattr(execution, "vector_active", False)),
            "fallback_reason": getattr(execution, "vector_fallback_reason", None),
        }

    manifest = Manifest(
        kind="trace",
        seed=args.seed,
        n=n,
        rounds=args.rounds,
        graph_hash=network_fingerprint(network),
        backend="sequential",
        extra=extra,
    )
    events = list(tracer.events) + [tracer.summary_event()]
    if args.out:
        write_jsonl(args.out, events, manifest=manifest.to_dict())
        print(f"wrote {len(events) + 1} JSONL lines to {args.out}")
    else:
        write_jsonl(sys.stdout, events, manifest=manifest.to_dict())
    return 0


def run_main(argv=None) -> int:
    """``python -m repro run`` — execute a declarative scenario config.

    Loads and validates the config (every failure mode is a one-line
    typed error naming the file and key — exit code 2, no traceback),
    runs it through the engine, and emits the scenario's deterministic
    JSON document (byte-identical across engine modes).  Exit code 0
    when the document's verdict is PASS, 1 when it is FAIL.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro run",
        description=(
            "Run a declarative scenario config (JSON or TOML): one of the "
            "paper's tables, or a grid of graph families × sizes × seeds "
            "× probes under one communication model.  Emits the "
            "scenario's deterministic JSON document."
        ),
    )
    parser.add_argument("config", help="scenario config file (.json or .toml)")
    parser.add_argument(
        "--out",
        default=None,
        help="write the JSON document to this path instead of stdout",
    )
    parser.add_argument(
        "--pretty",
        action="store_true",
        help="print the rendered table instead of the JSON document",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="ROOT",
        help=(
            "serve and persist units through the durable result store at "
            "this root (default: $REPRO_STORE when set, else no store)"
        ),
    )
    args = parser.parse_args(argv)

    from repro.scenarios import (
        ScenarioError,
        document_bytes,
        format_scenario_document,
        load_scenario,
        run_scenario,
    )

    try:
        scenario = load_scenario(args.config)
        document = run_scenario(scenario, store=args.store)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    payload = document_bytes(document)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
        print(f"wrote {len(payload)} bytes to {args.out}")
    if args.pretty:
        print(format_scenario_document(document))
    elif not args.out:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    return 0 if document["summary"]["verdict"] == "PASS" else 1


def store_main(argv=None) -> int:
    """``python -m repro store`` — the durable experiment store CLI.

    ``submit`` enqueues a job (idempotent on its parameters), ``run``
    drives the crash-safe worker loop until the queue drains, ``status``
    prints queue and cache statistics, ``result`` prints a finished job's
    document, and ``gc`` reclaims stale leases, temp files, and corrupt
    or cross-generation cache entries.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro store",
        description=(
            "Durable experiment runs: a content-addressed result store plus "
            "a crash-safe job queue.  Kill a worker mid-run (kill -9 "
            "included) and a fresh `run` resumes from the last finished "
            "cell — the final document is byte-identical to an "
            "uninterrupted run's."
        ),
    )
    parser.add_argument(
        "--root",
        required=True,
        help="store root directory (results live here, the queue under queue/)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help=(
            "shard the queue K ways (consistent-hashed job placement; the "
            "count is persisted in a manifest on first use and rediscovered "
            "afterwards — passing a conflicting K later is an error)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_submit = sub.add_parser("submit", help="enqueue a job (idempotent)")
    p_submit.add_argument(
        "kind",
        choices=["table1", "table2", "certificate", "sweep", "scenario", "noop"],
    )
    p_submit.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=(
            "extra integer job parameter (repeatable; noop jobs use these "
            "as their identity — e.g. --param i=3 --param rep=1)"
        ),
    )
    p_submit.add_argument("--n", type=int, default=None, help="network size")
    p_submit.add_argument("--seed", type=int, default=0, help="random-graph seed")
    p_submit.add_argument(
        "--spec",
        action="append",
        default=[],
        metavar="N,D,SEED,ROUNDS",
        help="one sweep configuration (repeatable; sweep jobs only)",
    )
    p_submit.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help=(
            "scenario config file to submit (scenario jobs only; the "
            "validated config is copied into the job record, so later "
            "edits to the file do not change the queued job)"
        ),
    )
    p_submit.add_argument(
        "--max-attempts", type=int, default=3, help="retry budget before parking as failed"
    )
    p_submit.add_argument(
        "--quotient",
        action="store_true",
        help=(
            "run the job's cells quotient-accelerated (table jobs only; "
            "cell payloads are identical either way, so the store keys "
            "do not change)"
        ),
    )
    p_submit.add_argument(
        "--vector",
        action="store_true",
        help=(
            "run the job's cells on the vectorized numpy backend (table "
            "jobs only; payloads — and hence store keys — are identical "
            "either way)"
        ),
    )

    p_run = sub.add_parser("run", help="worker loop: claim and run jobs")
    p_run.add_argument(
        "--max-jobs", type=int, default=None, help="stop after this many jobs"
    )
    p_run.add_argument(
        "--wait",
        action="store_true",
        help="keep polling for new jobs instead of exiting when the queue drains",
    )
    p_run.add_argument(
        "--pools",
        type=int,
        default=None,
        metavar="N",
        help=(
            "dispatch through the asyncio orchestrator into N local "
            "process pools instead of the sequential worker loop"
        ),
    )
    p_run.add_argument(
        "--pool-workers",
        type=int,
        default=1,
        metavar="W",
        help="processes per pool under --pools (default 1)",
    )
    p_run.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="J",
        help=(
            "bound on claimed-but-unfinished jobs under --pools "
            "(default: pools × pool-workers × 4)"
        ),
    )

    p_status = sub.add_parser("status", help="queue counts, job list, cache stats")
    p_status.add_argument(
        "--brief",
        action="store_true",
        help="omit the per-job listing (counts and stats only)",
    )
    p_status.add_argument(
        "--json",
        action="store_true",
        help=(
            "emit exactly the service's GET /v1/store/stats payload "
            "(machine-readable; one schema for shell scripts and HTTP clients)"
        ),
    )

    p_result = sub.add_parser("result", help="print a finished job's document")
    p_result.add_argument("job_id")
    p_result.add_argument(
        "--raw",
        action="store_true",
        help=(
            "dump the canonical store entry bytes (digest-checked, no "
            "re-encode) instead of the document payload — byte-identical "
            "to GET /v1/results/{key}"
        ),
    )

    p_gc = sub.add_parser(
        "gc", help="break stale leases, sweep temp files, heal the cache"
    )
    p_gc.add_argument(
        "--jobs",
        action="store_true",
        help="also prune terminal (done/failed) job records past --retention",
    )
    p_gc.add_argument(
        "--retention",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="retention window for --jobs: keep terminal records younger than this",
    )

    args = parser.parse_args(argv)

    from repro.store.jobs import open_queue, open_store, run_worker
    from repro.store.shard import ShardLayoutError

    store = open_store(args.root)
    try:
        queue = open_queue(args.root, shards=args.shards)
    except ShardLayoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "submit":
        if args.kind == "scenario":
            if not args.config:
                parser.error("scenario jobs need --config FILE")
            from repro.scenarios import ScenarioError, load_scenario

            try:
                scenario = load_scenario(args.config)
            except ScenarioError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            params = {"config": scenario.normalized()}
        elif args.kind == "sweep":
            if not args.spec:
                parser.error("sweep jobs need at least one --spec N,D,SEED,ROUNDS")
            specs = [[int(x) for x in spec.split(",")] for spec in args.spec]
            params = {"specs": specs}
        elif args.kind == "noop":
            params = {"seed": args.seed}
            if args.n is not None:
                params["n"] = args.n
            for pair in args.param:
                key, _, value = pair.partition("=")
                if not key or not value:
                    parser.error(f"--param needs KEY=VALUE, got {pair!r}")
                params[key] = int(value)
        else:
            default_n = 5 if args.kind == "table2" else 6
            params = {"n": args.n if args.n is not None else default_n, "seed": args.seed}
        if args.quotient:
            params["quotient"] = True
        if args.vector:
            params["vector"] = True
        record = queue.submit(args.kind, params, max_attempts=args.max_attempts)
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        return 0

    if args.command == "run":
        if args.pools is not None:
            from repro.store.orchestrator import orchestrate

            stats = orchestrate(
                args.root,
                queue=queue,
                store=store,
                pools=args.pools,
                pool_workers=args.pool_workers,
                window=args.window,
                max_jobs=args.max_jobs,
                idle_exit=not args.wait,
            )
            counts = queue.counts()
            print(json.dumps({"orchestrator": stats, "queue": counts}, sort_keys=True))
            return 0 if counts["failed"] == 0 else 1
        processed = run_worker(
            args.root,
            max_jobs=args.max_jobs,
            idle_exit=not args.wait,
            queue=queue,
            store=store,
        )
        counts = queue.counts()
        print(f"processed {processed} job(s); queue now {counts}")
        return 0 if counts["failed"] == 0 else 1

    if args.command == "status":
        if args.json:
            from repro.store.jobs import store_status_payload

            print(json.dumps(store_status_payload(queue, store), indent=2, sort_keys=True))
            return 0
        status = {
            "queue": queue.counts(),
            "store": store.stats(),
            "scheduler": queue.stats(),
        }
        if hasattr(queue, "shard_stats"):
            status["shards"] = queue.shard_stats()
        if not args.brief:
            status["jobs"] = [r.to_dict() for r in queue.jobs()]
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0

    if args.command == "result":
        record = queue.get(args.job_id)
        if record is None:
            print(f"no such job: {args.job_id}", file=sys.stderr)
            return 1
        if record.status != "done" or not record.result_key:
            print(
                f"job {args.job_id} is {record.status}, no result document yet",
                file=sys.stderr,
            )
            return 1
        if args.raw:
            raw = store.get_bytes(record.result_key)
            if raw is None:
                print(
                    f"result entry {record.result_key} is missing or corrupt; "
                    "resubmit the job to recompute it",
                    file=sys.stderr,
                )
                return 1
            sys.stdout.buffer.write(raw)
            sys.stdout.buffer.flush()
            return 0
        payload = store.get(record.result_key)
        if payload is None:
            print(
                f"result entry {record.result_key} is missing or corrupt; "
                "resubmit the job to recompute it",
                file=sys.stderr,
            )
            return 1
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    # gc
    keep_terminal = args.retention if args.jobs else None
    print(
        json.dumps(
            {"queue": queue.gc(keep_terminal=keep_terminal), "store": store.gc()},
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def serve_main(argv=None) -> int:
    """``python -m repro serve`` — the experiment service.

    Binds the asyncio HTTP API (submissions, status, SSE live traces,
    cached results) over a scheduler root and — unless ``--pools 0`` —
    embeds an orchestrator in the same event loop, so one process both
    accepts runs and executes them.  The first stdout line is a JSON
    announce record carrying the bound address; with ``--port 0``
    (ephemeral bind) that is how scripts discover the real port.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=(
            "Serve the experiment HTTP API over a scheduler root: submit "
            "runs, watch live SSE progress and round-level traces, fetch "
            "canonical result documents (ETag/304 conditional serving).  "
            "By default an embedded orchestrator executes submissions in "
            "the same process."
        ),
    )
    parser.add_argument(
        "--root",
        required=True,
        help="store root directory (results live here, the queue under queue/)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        help=(
            "listen port (0 binds ephemerally; default: "
            "$REPRO_SERVICE_PORT when set, else 8765)"
        ),
    )
    parser.add_argument(
        "--backlog",
        type=int,
        default=None,
        help="accept backlog (default: $REPRO_SERVICE_BACKLOG when set, else 128)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help="shard a brand-new queue K ways (existing layouts are rediscovered)",
    )
    parser.add_argument(
        "--pools",
        type=int,
        default=1,
        metavar="N",
        help=(
            "embedded orchestrator process pools (default 1; 0 serves the "
            "API only and leaves execution to external workers)"
        ),
    )
    parser.add_argument(
        "--pool-workers",
        type=int,
        default=1,
        metavar="W",
        help="processes per embedded pool (default 1)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="J",
        help="orchestrator in-flight window (default: pools × workers × 4)",
    )
    args = parser.parse_args(argv)

    from repro.service import serve

    def announce(record):
        print(json.dumps(record, sort_keys=True), flush=True)

    return serve(
        args.root,
        host=args.host,
        port=args.port,
        backlog=args.backlog,
        shards=args.shards,
        pools=args.pools,
        pool_workers=args.pool_workers,
        window=args.window,
        announce=announce,
    )


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "run":
        return run_main(argv[1:])
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "store":
        return store_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduce Tables 1 and 2 of 'Know your audience' "
            "(Charron-Bost & Lambein-Monette, PODC 2024) by running the "
            "paper's algorithms and impossibility certificates.  The "
            "'run' subcommand executes a declarative scenario config, "
            "the 'trace' subcommand emits a round-level JSONL trace of "
            "one execution, and 'store' drives durable experiment runs."
        ),
    )
    parser.add_argument("--table", choices=["1", "2", "both"], default="both")
    parser.add_argument("--n", type=int, default=6, help="network size for the probes")
    parser.add_argument("--seed", type=int, default=0, help="random-graph seed")
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable reproduction certificate instead of tables",
    )
    parser.add_argument(
        "--quotient",
        action="store_true",
        help=(
            "quotient-accelerated cells: simulate each network's minimum "
            "base and lift the trajectory (results are identical; cells "
            "where the Lifting lemma does not apply fall back to direct "
            "execution)"
        ),
    )
    parser.add_argument(
        "--vector",
        action="store_true",
        help=(
            "vectorized cells: run kernel-backed probes as whole-network "
            "numpy rounds (results are identical; algorithms without a "
            "kernel fall back to the object stepper)"
        ),
    )
    args = parser.parse_args(argv)
    # An unset flag is None, which keeps the environment default.
    engine = EngineFlags(
        quotient=True if args.quotient else None,
        vector=True if args.vector else None,
    )

    if args.json:
        from repro.analysis.certificate import reproduction_certificate

        doc = reproduction_certificate(n=args.n, seed=args.seed, engine=engine)
        print(json.dumps(doc, indent=2))
        return 0 if doc["summary"]["verdict"] == "PASS" else 1

    from repro.analysis.tables import format_results, reproduce_table1, reproduce_table2

    failures = 0
    if args.table in ("1", "both"):
        results = reproduce_table1(n=args.n, seed=args.seed, engine=engine)
        print(format_results(results, "Table 1 — static strongly connected networks"))
        failures += sum(not r.consistent for r in results)
        print()
    if args.table in ("2", "both"):
        results = reproduce_table2(n=min(args.n, 6), seed=args.seed, engine=engine)
        print(format_results(results, "Table 2 — dynamic networks with finite dynamic diameter"))
        failures += sum(not r.consistent for r in results)
        print()

    if failures:
        print(f"{failures} cell(s) disagree with the paper", file=sys.stderr)
        return 1
    print("every cell agrees with the paper ✓")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # ``python -m repro ... | head`` closes stdout before we finish
        # printing; exit like a SIGPIPE'd process instead of tracebacking.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
