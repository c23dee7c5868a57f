"""Self-tests of the benchmark harness (not of the program it measures).

    python -m pytest perfbench/tests -q

Smoke runs go through ``run.py`` exactly as the benchmark is invoked;
the planted-fault and patching tests call the workload drivers directly.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from perfbench import grid_sweep, inprocess, layers, metrics, serve_onebit, spans
from perfbench.common import ROOT, SpeedScale, child_environment

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec == metrics.benchmark_spec()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(metrics.WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, env=child_environment(), capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = metrics.units("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
    record = json.loads(
        (ROOT / ".perfbench-runs" / f"{workload}-seed3-trace{trace}.json").read_text()
    )
    assert record["host"]["nproc"] >= 1 and record["seed"] == 3
    if not trace:
        assert record["absent"] == []
        assert all(m["value"] > 0 for m in line["metrics"].values())
    elif workload == "serve_onebit":
        assert "service.notify_lag_s" not in record["absent"]
        assert "tables.static_cell_s" in record["absent"]
        assert line["metrics"]["scenarios.validate_calls_per_job"]["value"] == 4
    else:
        assert "service.notify_lag_s" in record["absent"]
        assert "engine.step_s" not in record["absent"]


def test_exits_nonzero_without_a_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def _flip_first(kind_wanted):
    state = {"flipped": False}

    def tamper(kind, body):
        if kind == kind_wanted and not state["flipped"]:
            state["flipped"] = True
            at = body.index(b'"payload"') + 40
            return body[:at] + bytes([body[at] ^ 0x01]) + body[at + 1:]
        return body

    return tamper


def test_a_flipped_byte_in_a_served_payload_counts_as_failed(tmp_path):
    outcome = serve_onebit.run(
        seed=5, seconds=1, trace=False, work=tmp_path, scale=SpeedScale(),
        tamper=_flip_first("cold"),
    )
    assert outcome.failed == 1
    assert "served bytes differ" in outcome.detail["failures"][0]


def test_an_altered_mode_document_counts_as_failed():
    def tamper(lane, body):
        return body.replace(b'"converged": true', b'"converged": false', 1) if lane == "lane2" else body

    outcome = inprocess.run(
        grid_sweep.WORKLOAD, seed=5, seconds=0.1, trace=False, import_s=0.0,
        scale=SpeedScale(), tamper=tamper,
    )
    assert outcome.failed == 1 and outcome.attempted == 3
    assert "bytes differ" in outcome.detail["failures"][0]


def test_runs_leave_every_wrapped_function_unpatched():
    import repro.store.jobs
    import repro.store.orchestrator

    inprocess.run(grid_sweep.WORKLOAD, seed=6, seconds=0.1, trace=False, import_s=0.0,
                  scale=SpeedScale())
    assert spans.patched_bindings() == []

    installed = spans.install(spans.Recorder())
    try:
        # The orchestrator calls run_job through its own by-name binding.
        assert getattr(repro.store.orchestrator.run_job, spans.ORIGINAL) is repro.store.jobs.run_job.__wrapped__
        assert len(spans.patched_bindings()) > len(spans.TARGETS)
    finally:
        spans.uninstall(installed)
    assert spans.patched_bindings() == []

    inprocess.run(grid_sweep.WORKLOAD, seed=6, seconds=0.1, trace=True, import_s=0.0,
                  scale=SpeedScale())
    assert spans.patched_bindings() == []


def test_spans_are_attributed_by_job_ancestor_and_window():
    # (sid, name, tag, start, end, parent, outer, job, value)
    recorded = [
        (1, "queue.submit", None, 0.0, 1.0, None, True, "job-a", None),
        (2, "atomic.write", None, 0.2, 0.4, 1, True, None, None),  # inherits job-a
        (3, "scenarios.validate", None, 0.1, 0.15, None, True, None, None),  # window
        (4, "queue.claim", None, 1.5, 2.0, None, True, ("job-a",), 1),
        (5, "jobs.run", None, 2.5, 4.0, None, True, "job-a", None),
        (6, "queue.complete", None, 4.1, 4.2, None, True, "job-a", None),
        (7, "queue.claim", None, 6.0, 6.1, None, True, None, 0),
    ]
    ops = [{"id": 0, "kind": "cold", "ok": True, "job": "job-a", "start": 0.0, "end": 5.5,
            "post_start": 0.0, "post_end": 1.1, "end_recv": 5.0, "get_start": 5.1,
            "get_end": 5.5}]
    grouped = layers.attribute(recorded, ops)
    assert [s[0] for s in grouped[0].spans] == [1, 2, 3, 4, 5, 6]
    values = layers.service_metrics([grouped[0]], [], recorded)
    assert values["queue.wait_s"] == pytest.approx(1.0)
    assert values["orchestrator.dispatch_s"] == pytest.approx(0.5)
    assert values["service.notify_lag_s"] == pytest.approx(0.9)
    assert values["queue.empty_claim_ratio"] == pytest.approx(0.5)
    assert values["atomic.fsyncs_per_job"] == 1
    assert values["trace.unexplained_jobs"] == 0
