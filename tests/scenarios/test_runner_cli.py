"""The scenario runner, the ``run`` CLI, and the durable scenario job.

Pins the DSL's execution-side contracts:

* one config, one document — byte-identical across the object engine,
  the vector fallback and the quotient fallback;
* the retired ``REPRO_PARALLEL`` switch warns once and changes no byte;
* the result store serves warm rows without changing a byte;
* ``python -m repro run`` exits 0/1 on PASS/FAIL verdicts and 2 on
  config errors, with a one-line diagnostic instead of a traceback;
* ``scenario`` jobs run through the crash-safe queue with per-unit
  progress, and land on an engine-flag-independent document key.
"""

import dataclasses
import json
import os
import warnings

import pytest

from repro.__main__ import main
from repro.scenarios import (
    document_bytes,
    format_scenario_document,
    grid_units,
    load_scenario,
    run_scenario,
    validate_scenario,
)
from repro.scenarios.schema import EngineFlags

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
ONEBIT_CONFIG = os.path.join(REPO_ROOT, "configs", "onebit_counting.json")


def small_grid(tmp_path, **overrides):
    raw = {
        "scenario": "small",
        "kind": "grid",
        "model": "one-bit broadcast",
        "rounds": 8,
        "seeds": [0, 1],
        "graphs": [
            {"family": "complete", "sizes": [4]},
            {"family": "ring", "sizes": [5]},
        ],
        "probes": ["or-flood", "census"],
        "inputs": "alternating",
    }
    raw.update(overrides)
    config = tmp_path / "small.json"
    config.write_text(json.dumps(raw))
    return load_scenario(config)


class TestEngineModeByteIdentity:
    def test_all_modes_emit_identical_bytes(self, tmp_path):
        scenario = small_grid(tmp_path)
        base = document_bytes(run_scenario(scenario))
        for flags in (EngineFlags(vector=True), EngineFlags(quotient=True)):
            variant = dataclasses.replace(scenario, engine=flags)
            assert document_bytes(run_scenario(variant)) == base, flags

    def test_identity_excludes_engine_flags(self, tmp_path):
        scenario = small_grid(tmp_path)
        forced = dataclasses.replace(scenario, engine=EngineFlags(vector=True))
        assert forced.identity() == scenario.identity()
        assert forced.normalized() != scenario.normalized()

    def test_normalized_round_trips_through_validation(self, tmp_path):
        scenario = small_grid(
            tmp_path,
            engine={"vector": True},
            output={"title": "round trip"},
        )
        again = validate_scenario(scenario.normalized(), source="round-trip")
        assert again.identity() == scenario.identity()
        assert again.engine == scenario.engine
        assert again.title == scenario.title


class TestCensusOracle:
    """The census is expected to count exactly on complete networks —
    every agent hears all n agents once — whichever family builds them."""

    EXPECTED = {
        ("ring", 3): True,
        ("ring", 4): False,
        ("star", 2): True,
        ("hypercube", 2): True,
        ("directed-ring", 2): True,
        ("random", 2): True,
    }

    def small_complete_grid(self, tmp_path, **overrides):
        return small_grid(
            tmp_path,
            seeds=[0],
            graphs=[
                {"family": "ring", "sizes": [3, 4]},
                {"family": "star", "sizes": [2]},
                {"family": "hypercube", "sizes": [2]},
                {"family": "directed-ring", "sizes": [2]},
                {"family": "random", "sizes": [2]},
            ],
            probes=["census"],
            **overrides,
        )

    @pytest.mark.parametrize(
        "engine", [{}, {"vector": True}, {"quotient": True}], ids=["object", "vector", "quotient"]
    )
    def test_small_complete_networks_pass(self, tmp_path, engine):
        document = run_scenario(self.small_complete_grid(tmp_path, engine=engine))
        assert document["summary"]["verdict"] == "PASS"
        assert {
            (row["graph"], row["n"]): row["expected_convergence"] for row in document["rows"]
        } == self.EXPECTED
        assert all(row["converged"] == row["expected_convergence"] for row in document["rows"])

    def test_cli_exits_zero(self, tmp_path, capsysbinary):
        self.small_complete_grid(tmp_path)
        assert main(["run", str(tmp_path / "small.json")]) == 0

    def test_store_filled_under_the_family_name_oracle_is_not_served(
        self, tmp_path, capsysbinary
    ):
        # A store filled by a build whose census oracle read the family
        # name holds these rows: ring at n = 3, star and hypercube at
        # n = 2 read "not expected to converge", so three rows say ✗ and
        # the document says FAIL.  Their keys are spelled out in the
        # shape those builds used: no scenario version bound.
        from repro.scenarios import compute_grid_row
        from repro.scenarios.runner import scenario_document
        from repro.store.cache import ResultStore, result_key
        from repro.store.jobs import expected_result_key

        scenario = small_grid(
            tmp_path,
            seeds=[0],
            graphs=[
                {"family": "ring", "sizes": [3, 4]},
                {"family": "star", "sizes": [2]},
                {"family": "hypercube", "sizes": [2]},
            ],
            probes=["census"],
        )
        store = ResultStore(tmp_path / "store")
        stale_rows = []
        for family, n, seed, probe in grid_units(scenario):
            row = compute_grid_row(scenario, family, n, seed, probe)
            expected = family == "complete"
            row.update(expected_convergence=expected, consistent=row["converged"] == expected)
            params = {
                "model": "one-bit broadcast",
                "knowledge": None,
                "rounds": 8,
                "inputs": "alternating",
                "graph": family,
                "n": n,
                "seed": seed,
                "probe": probe,
            }
            store.put(result_key("scenario-row", params), row, kind="scenario-row", params=params)
            stale_rows.append(row)
        assert sum(not row["consistent"] for row in stale_rows) == 3
        stale_params = {"config": scenario.identity()}
        stale_key = result_key("scenario-doc", stale_params)
        store.put(
            stale_key,
            scenario_document(scenario, stale_rows),
            kind="scenario-doc",
            params=stale_params,
        )

        code = main(
            ["run", str(tmp_path / "small.json"), "--store", str(tmp_path / "store"), "--pretty"]
        )
        out = capsysbinary.readouterr().out.decode("utf-8")
        assert code == 0
        assert "✗" not in out and out.count("✓") == 4
        assert expected_result_key("scenario", {"config": scenario.normalized()}) != stale_key

    def test_oracle_reads_in_neighbours_with_multiplicity(self):
        from repro.graphs.builders import complete_graph
        from repro.graphs.digraph import DiGraph
        from repro.scenarios import PROBES

        oracle = PROBES["census"].oracle
        assert oracle(complete_graph(5))
        assert not oracle(complete_graph(5, self_loops=False))
        # Vertex 1 hears vertex 0 twice and never itself: indegree n, yet
        # its tally counts vertex 0's bit twice.
        assert not oracle(DiGraph(2, [(0, 0), (1, 0), (0, 1), (0, 1)]))
        assert all(PROBES[name].oracle(complete_graph(3)) for name in ("or-flood", "gossip-max"))


class TestStore:
    def test_cold_and_warm_runs_identical(self, tmp_path):
        from repro.store.cache import ResultStore

        scenario = small_grid(tmp_path)
        direct = document_bytes(run_scenario(scenario))
        store = ResultStore(tmp_path / "store")
        cold = document_bytes(run_scenario(scenario, store=store))
        warm = document_bytes(run_scenario(scenario, store=store))
        assert cold == direct
        assert warm == direct
        assert store.hits >= len(grid_units(scenario))  # warm run hit disk

    def test_row_keys_shared_across_engine_modes(self, tmp_path):
        from repro.store.cache import ResultStore

        scenario = small_grid(tmp_path)
        store = ResultStore(tmp_path / "store")
        run_scenario(scenario, store=store)
        puts = store.puts
        vectored = dataclasses.replace(scenario, engine=EngineFlags(vector=True))
        run_scenario(vectored, store=store)
        assert store.puts == puts  # every row served, none recomputed


class TestRetiredParallelEnv:
    """``REPRO_PARALLEL`` selects nothing: a truthy value warns once per
    process, a falsy one stays silent, and neither changes a byte."""

    @pytest.fixture(autouse=True)
    def _plain_env(self, monkeypatch):
        for flag in ("REPRO_PARALLEL", "REPRO_VECTOR", "REPRO_QUOTIENT", "REPRO_STORE"):
            monkeypatch.delenv(flag, raising=False)

    def test_truthy_value_warns_once_and_changes_no_byte(self, tmp_path, monkeypatch):
        scenario = small_grid(tmp_path)
        plain = document_bytes(run_scenario(scenario))
        monkeypatch.setenv("REPRO_PARALLEL", "1")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")  # Python's default for UserWarning
            first = document_bytes(run_scenario(scenario))
            second = document_bytes(run_scenario(scenario))
        assert first == second == plain
        assert len(caught) == 1
        assert caught[0].category is UserWarning
        message = str(caught[0].message)
        assert "REPRO_PARALLEL" in message
        assert "store run --pools N" in message and "serve --pools N" in message

    def test_falsy_value_is_silent(self, tmp_path, monkeypatch):
        scenario = small_grid(tmp_path)
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_scenario(scenario)


class TestRunCli:
    def test_pass_exit_code_and_stdout_bytes(self, tmp_path, capsysbinary):
        scenario = small_grid(tmp_path)
        expected = document_bytes(run_scenario(scenario))
        assert main(["run", str(tmp_path / "small.json")]) == 0
        assert capsysbinary.readouterr().out == expected

    def test_out_flag_writes_the_document(self, tmp_path, capsysbinary):
        scenario = small_grid(tmp_path)
        expected = document_bytes(run_scenario(scenario))
        out = tmp_path / "doc.json"
        assert main(["run", str(tmp_path / "small.json"), "--out", str(out)]) == 0
        assert out.read_bytes() == expected

    def test_pretty_renders_the_grid(self, tmp_path, capsysbinary):
        small_grid(tmp_path, output={"title": "tiny grid"})
        assert main(["run", str(tmp_path / "small.json"), "--pretty"]) == 0
        out = capsysbinary.readouterr().out.decode("utf-8")
        assert "tiny grid" in out
        assert "or-flood" in out

    def test_fail_verdict_exits_one(self, tmp_path):
        # One round is not enough for the flood to cross a 5-ring, so the
        # or-flood oracle disagrees and the document's verdict is FAIL.
        small_grid(
            tmp_path,
            rounds=1,
            seeds=[0],
            graphs=[{"family": "ring", "sizes": [5]}],
            probes=["or-flood"],
        )
        assert main(["run", str(tmp_path / "small.json")]) == 1

    def test_config_error_exits_two_without_traceback(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"scenario": "x", "kind": "grid"}))
        assert main(["run", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "model" in err  # the first missing required key
        assert "Traceback" not in err

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        config = tmp_path / "broken.json"
        config.write_text("{]")
        assert main(["run", str(config)]) == 2
        assert "malformed JSON" in capsys.readouterr().err

    def test_format_scenario_document_handles_tables(self):
        scenario = load_scenario(os.path.join(REPO_ROOT, "configs", "table1.json"))
        rendered = format_scenario_document(run_scenario(scenario))
        assert "Table 1 — static strongly connected networks" in rendered


class TestScenarioJob:
    def test_job_end_to_end_with_progress(self, tmp_path):
        from repro.store.jobs import document_key, open_queue, open_store, run_worker

        scenario = small_grid(tmp_path)
        queue = open_queue(tmp_path / "root")
        store = open_store(tmp_path / "root")
        record = queue.submit("scenario", {"config": scenario.normalized()})
        assert run_worker(tmp_path / "root", queue=queue, store=store) == 1
        finished = queue.get(record.id)
        assert finished.status == "done"
        total = len(grid_units(scenario))
        assert finished.progress == {"units_done": total, "units_total": total}
        assert finished.result_key == document_key(
            "scenario", {"config": scenario.identity()}
        )
        doc = store.get(finished.result_key)
        assert document_bytes(doc) == document_bytes(run_scenario(scenario))

    def test_submit_flags_ride_beside_the_config(self, tmp_path):
        from repro.store.jobs import document_key, open_queue, open_store, run_worker

        scenario = small_grid(tmp_path)
        queue = open_queue(tmp_path / "root")
        store = open_store(tmp_path / "root")
        record = queue.submit(
            "scenario", {"config": scenario.normalized(), "vector": True}
        )
        run_worker(tmp_path / "root", queue=queue, store=store)
        finished = queue.get(record.id)
        assert finished.status == "done"
        # Engine flags stay out of the document key: the accelerated
        # submission lands exactly where a plain one would.
        assert finished.result_key == document_key(
            "scenario", {"config": scenario.identity()}
        )
        doc = store.get(finished.result_key)
        assert document_bytes(doc) == document_bytes(run_scenario(scenario))

    def test_invalid_config_parks_the_job(self, tmp_path):
        from repro.store.jobs import open_queue, open_store, run_worker

        queue = open_queue(tmp_path / "root")
        record = queue.submit(
            "scenario", {"config": {"scenario": "x", "kind": "nope"}}, max_attempts=1
        )
        run_worker(tmp_path / "root", queue=queue, store=open_store(tmp_path / "root"))
        parked = queue.get(record.id)
        assert parked.status == "failed"
        assert "kind" in parked.error

    def test_cli_submit_copies_the_config(self, tmp_path, capsys):
        root = tmp_path / "root"
        assert (
            main(
                [
                    "store",
                    "--root",
                    str(root),
                    "submit",
                    "scenario",
                    "--config",
                    ONEBIT_CONFIG,
                ]
            )
            == 0
        )
        record = json.loads(capsys.readouterr().out)
        assert record["kind"] == "scenario"
        assert record["params"]["config"]["scenario"] == "onebit-counting"
        assert record["params"]["config"]["model"] == "one-bit broadcast"
