"""serve_onebit: the cold path a service user takes.

A ``python -m repro serve --port 0 --pools 1`` subprocess on a fresh
root, driven by one closed-loop client (this process, one thread, at
most two connections: a keep-alive one for POST/GET and one SSE feed).
Each iteration:

* one cold job — ``configs/onebit_counting.json`` with ``seeds``
  replaced by one fresh seed (20 units): ``POST /v1/runs``, follow the
  SSE feed to ``end``, ``GET`` the result;
* the same with ``?trace=1`` and another fresh seed;
* four warm revalidations of earlier results: re-POST (expect 303),
  then a conditional GET (expect 304).

Lanes: lane1 = cold job, lane2 = ``?trace=1`` job, lane3 = warm pair,
each timed submit → result bytes.  After the timed window every served
document is checked byte for byte against a direct ``run_scenario`` of
the same config, stored through the program's own ``ResultStore``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench import layers, spans
from perfbench.common import (
    ROOT,
    SETUP_SAMPLES,
    Outcome,
    SpeedScale,
    child_environment,
    child_pids,
    clock,
    lane_stats,
    percentile,
    process_peak_rss_mb,
    seed_stream,
)

CONFIG = json.loads((ROOT / "configs" / "onebit_counting.json").read_text())
UNITS_PER_JOB = sum(len(g["sizes"]) for g in CONFIG["graphs"]) * len(CONFIG["probes"])
WARM_PER_ITERATION = 4
#: Longest a start-up, request or job may take before it counts as failed.
TIMEOUT_S = 30.0


def job_config(seed: int) -> Dict[str, Any]:
    return {**CONFIG, "seeds": [seed]}


class Server:
    """One ``serve`` subprocess on a fresh root; ``span_dir`` runs it
    under :mod:`perfbench.traced_serve`."""

    def __init__(self, work: Path, name: str, span_dir: Optional[Path] = None):
        serve_args = ["--root", str(work / name), "--port", "0", "--pools", "1"]
        if span_dir is None:
            command = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            span_dir.mkdir()
            command = [sys.executable, str(ROOT / "perfbench" / "traced_serve.py"),
                       str(span_dir), *serve_args]
        self.log = open(work / f"{name}.log", "wb")
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self.log, env=child_environment(), cwd=ROOT
        )
        self.children: List[int] = []
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else b""
            self.port = json.loads(line)["port"]
        except (ValueError, KeyError):
            self.stop()
            raise RuntimeError(f"serve did not announce itself; see {self.log.name}")

    def peak_rss_mb(self) -> float:
        """Peak RSS of the serve process plus its pool child(ren)."""
        self.children = child_pids(self.proc.pid)
        return sum(process_peak_rss_mb(pid) for pid in [self.proc.pid, *self.children])

    def stop(self) -> None:
        """SIGTERM (a clean shutdown that also stops the pools), then make
        sure nothing the server started outlives it."""
        self.children = self.children or child_pids(self.proc.pid)
        self.proc.terminate()
        try:
            self.proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for pid in self.children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.stdout.close()
        self.log.close()


class Client:
    """The closed-loop client: one keep-alive connection plus one SSE feed."""

    def __init__(self, port: int):
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)

    def request(self, method: str, path: str, body: Optional[Dict] = None,
                headers: Optional[Dict[str, str]] = None) -> Tuple[int, bytes]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = dict(headers or {})
        if data is not None:
            headers["Content-Type"] = "application/json"
        self.conn.request(method, path, body=data, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def wait_end(self, job_id: str) -> Tuple[Dict[str, Any], float]:
        """Follow the job's SSE feed to its ``end`` event; returns the
        event's data and the time it arrived."""
        feed = http.client.HTTPConnection("127.0.0.1", self.port, timeout=TIMEOUT_S)
        try:
            feed.request("GET", f"/v1/runs/{job_id}/events")
            response = feed.getresponse()
            event = None
            while True:
                line = response.readline()
                if not line:
                    raise ConnectionError("event feed closed before end")
                text = line.decode("utf-8").rstrip("\r\n")
                if text.startswith("event:"):
                    event = text[6:].strip()
                elif text.startswith("data:") and event == "end":
                    return json.loads(text[5:]), clock()
        finally:
            feed.close()

    def close(self) -> None:
        self.conn.close()


def run_job(client: Client, seed: int, traced: bool) -> Dict[str, Any]:
    """One cold job, submit → result bytes."""
    job: Dict[str, Any] = {"kind": "traced" if traced else "cold", "seed": seed, "ok": False}
    config = job_config(seed)
    job["post_start"] = clock()
    status, payload = client.request("POST", "/v1/runs" + ("?trace=1" if traced else ""), config)
    job["post_end"] = clock()
    if status != 202:
        job["error"] = f"POST returned {status}"
        return job
    job["job"] = json.loads(payload)["id"]
    end, job["end_recv"] = client.wait_end(job["job"])
    if end.get("status") != "done":
        job["error"] = f"job ended {end.get('status')}: {end.get('error')}"
        return job
    job["key"] = end["result_key"]
    job["get_start"] = clock()
    status, job["raw"] = client.request("GET", f"/v1/results/{job['key']}")
    job["get_end"] = clock()
    job["latency"] = job["get_end"] - job["post_start"]
    job["ok"] = status == 200
    if not job["ok"]:
        job["error"] = f"GET returned {status}"
    return job


def revalidate(client: Client, earlier: Dict[str, Any]) -> Dict[str, Any]:
    """One warm pair: re-POST (expect 303 to the same key), then a
    conditional GET (expect 304)."""
    pair: Dict[str, Any] = {"kind": "warm", "seed": earlier["seed"]}
    pair["start"] = clock()
    status, payload = client.request("POST", "/v1/runs", job_config(earlier["seed"]))
    redirected = status == 303 and json.loads(payload).get("result_key") == earlier["key"]
    etag = {"If-None-Match": f'"{earlier["key"]}"'}
    revalidated, _ = client.request("GET", f"/v1/results/{earlier['key']}", headers=etag)
    pair["end"] = clock()
    pair["latency"] = pair["end"] - pair["start"]
    pair["ok"] = redirected and revalidated == 304
    if not pair["ok"]:
        pair["error"] = f"warm pair returned {status} then {revalidated}"
    return pair


def _attempt(outcome: Outcome, op: Callable[[], Dict[str, Any]], kind: str) -> Optional[Dict[str, Any]]:
    """Run one operation; a transport error or timeout counts as a failure."""
    try:
        return op()
    except (OSError, http.client.HTTPException, ValueError) as exc:
        outcome.check(False, f"{kind}: {exc!r}")
        return None


def drive(client: Client, seeds, warm_rng: random.Random, seconds: float,
          done: List[Dict[str, Any]], outcome: Outcome, scale: SpeedScale) -> List[Dict[str, Any]]:
    """The closed loop, for ``seconds``; returns every operation record.
    Warm pairs are CPU-bound, so their latency is rescaled to the
    reference speed with a calibration loop after each iteration."""
    ops: List[Dict[str, Any]] = []
    deadline = clock() + seconds
    while clock() < deadline:
        for traced in (False, True):
            job = _attempt(outcome, lambda: run_job(client, next(seeds), traced), "job")
            if job is not None:
                ops.append(job)
                if job["ok"]:
                    done.append(job)
        pairs = []
        for _ in range(WARM_PER_ITERATION):
            earlier = done[warm_rng.randrange(len(done))]
            pair = _attempt(outcome, lambda: revalidate(client, earlier), "warm pair")
            if pair is not None:
                pairs.append(pair)
        factor = scale.factor()
        for pair in pairs:
            pair["raw_latency"] = pair["latency"]
            pair["latency"] *= factor
        ops.extend(pairs)
    return ops


def start(work: Path, name: str, seeds, span_dir: Optional[Path] = None):
    """Spawn a server and finish one untimed job on it; returns the
    server, its client, the job, and the set-up time."""
    started = clock()
    server = Server(work, name, span_dir)
    client = Client(server.port)
    try:
        job = run_job(client, next(seeds), traced=False)
    except BaseException:
        client.close()
        server.stop()
        raise
    if not job["ok"]:
        client.close()
        server.stop()
        raise RuntimeError(f"set-up job failed: {job.get('error')}")
    return server, client, job, clock() - started


def check_documents(jobs: List[Dict[str, Any]], work: Path, outcome: Outcome,
                    tamper: Optional[Callable[[str, bytes], bytes]]) -> None:
    """Compare every served document with a direct run of its config,
    stored through the program's own ``ResultStore`` (outside the timed
    window)."""
    from repro.scenarios import run_scenario, validate_scenario
    from repro.store.cache import ResultStore
    from repro.store.jobs import document_key

    reference = ResultStore(work / "direct")
    for job in jobs:
        scenario = validate_scenario(job_config(job["seed"]), source="direct")
        params = {"config": scenario.identity()}
        key = document_key("scenario", params)
        reference.put(key, run_scenario(scenario, store=None), kind="scenario-doc", params=params)
        served = job["raw"] if tamper is None else tamper(job["kind"], job["raw"])
        outcome.check(
            job["key"] == key and served == reference.get_bytes(key),
            f"{job['kind']} job seed {job['seed']}: served bytes differ from a direct run",
        )


def _record_ops(ops: List[Dict[str, Any]], outcome: Outcome) -> None:
    """Count every operation that failed in the loop; successful jobs are
    counted by the document check."""
    for op in ops:
        if not op["ok"]:
            outcome.check(False, f"{op['kind']} seed {op['seed']}: {op.get('error')}")
        elif op["kind"] == "warm":
            outcome.check(True, "warm pair")


def run(seed: int, seconds: float, trace: bool, work: Path, scale: SpeedScale,
        tamper: Optional[Callable[[str, bytes], bytes]] = None) -> Outcome:
    outcome = Outcome()
    seeds = seed_stream("serve_onebit", seed)
    warm_rng = random.Random(f"serve_onebit/{seed}/warm")
    setups = []
    for index in range(0 if trace else SETUP_SAMPLES - 1):
        server, client, _job, setup_s = start(work, f"setup-{index}", seeds)
        setups.append(setup_s)
        client.close()
        server.stop()
    server, client, first, setup_s = start(work, "measured", seeds)
    try:
        done = [first]
        ops = drive(client, seeds, warm_rng, seconds / 3 if trace else seconds, done, outcome, scale)
        peak_rss = server.peak_rss_mb()
    finally:
        client.close()
        server.stop()
    if not trace:
        setups.append(setup_s)
    _record_ops(ops, outcome)
    jobs = [op for op in ops if op["kind"] != "warm" and op["ok"]]
    lanes = {
        lane: [op["latency"] for op in ops if op["kind"] == kind and op["ok"]]
        for lane, kind in (("lane1", "cold"), ("lane2", "traced"), ("lane3", "warm"))
    }
    if trace:
        untraced_cold = percentile(lanes["lane1"], 50)
        jobs += _traced(seeds, warm_rng, seconds * 2 / 3, work, outcome, scale, untraced_cold)
        check_documents(jobs, work, outcome, tamper)
        return outcome
    check_documents(jobs, work, outcome, tamper)
    outcome.metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss,
        "units_per_s": UNITS_PER_JOB * len(jobs) / sum(job["latency"] for job in jobs),
        **lane_stats(outcome, "serve_onebit", lanes, typical="p50_s"),
    }
    outcome.detail["setup_samples_s"] = setups
    return outcome


def _traced(seeds, warm_rng: random.Random, seconds: float, work: Path, outcome: Outcome,
            scale: SpeedScale, untraced_cold: float) -> List[Dict[str, Any]]:
    """The traced part of a ``--trace 1`` run, on a second server whose
    processes record spans; fills ``outcome.metrics`` and returns its
    jobs for the document check."""
    span_dir = work / "spans"
    server, client, first, _setup = start(work, "traced", seeds, span_dir)
    try:
        ops = drive(client, seeds, warm_rng, seconds, [first], outcome, scale)
    finally:
        client.close()
        server.stop()
    _record_ops(ops, outcome)

    recorded = spans.load_spans(str(span_dir))
    windows = [
        {**op, "id": i, "start": op.get("post_start", op.get("start")),
         "end": op.get("get_end", op.get("end", op.get("post_end")))}
        for i, op in enumerate(ops)
    ]
    grouped = layers.attribute(recorded, windows)
    cold = [grouped[w["id"]] for w in windows if w["kind"] == "cold" and w["ok"]]
    traced = [grouped[w["id"]] for w in windows if w["kind"] == "traced" and w["ok"]]
    values = layers.engine_metrics(cold, recorded)
    values.update(layers.service_metrics(cold, traced, recorded))
    traced_cold = percentile([w["latency"] for w in windows if w["kind"] == "cold" and w["ok"]], 50)
    values["trace.overhead_ratio"] = traced_cold / untraced_cold
    outcome.metrics = layers.complete(values)
    outcome.detail.update(spans=len(recorded), traced_jobs=len(cold) + len(traced))
    return [op for op in ops if op["kind"] != "warm" and op["ok"]]
