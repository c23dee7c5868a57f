"""Tests for the ``python -m repro`` entry point."""

import subprocess
import sys

import pytest

from repro.__main__ import main
from repro.core.engine.trace import events_from_jsonl, read_jsonl


class TestMainFunction:
    def test_table1_only(self, capsys):
        assert main(["--table", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 2" not in out
        assert "every cell agrees" in out

    def test_table2_only(self, capsys):
        assert main(["--table", "2", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_custom_size_and_seed(self, capsys):
        assert main(["--table", "1", "--n", "5", "--seed", "2"]) == 0


class TestTraceSubcommand:
    def test_trace_to_stdout(self, capsys):
        assert main(["trace", "--n", "5", "--rounds", "6"]) == 0
        out = capsys.readouterr().out
        manifest, events = events_from_jsonl(out)
        assert manifest["kind"] == "trace"
        assert manifest["n"] == 5 and manifest["rounds"] == 6
        assert manifest["graph_hash"]
        assert manifest["backend"] == "sequential"
        rounds = [e for e in events if e.kind == "round"]
        assert [e.round for e in rounds] == [1, 2, 3, 4, 5, 6]
        assert events[-1].kind == "summary"
        assert events[-1].fields["metrics"]["rounds"]["value"] == 6

    def test_trace_to_file(self, tmp_path, capsys):
        path = str(tmp_path / "trace.jsonl")
        assert main(["trace", "--n", "4", "--rounds", "3", "--out", path]) == 0
        assert path in capsys.readouterr().out
        manifest, events = read_jsonl(path)
        assert manifest["extra"]["algorithm"] == "push-sum"
        assert len([e for e in events if e.kind == "round"]) == 3

    def test_trace_gossip_dynamic(self, capsys):
        assert main(
            ["trace", "--algorithm", "gossip", "--dynamic", "--n", "5", "--rounds", "4"]
        ) == 0
        manifest, events = events_from_jsonl(capsys.readouterr().out)
        assert manifest["extra"] == {"algorithm": "gossip", "dynamic": True}
        # A fresh DiGraph per round: every round compiles a new plan.
        assert len([e for e in events if e.kind == "plan_compile"]) == 4

    def test_trace_recurring_flag_is_gone(self, capsys):
        # The recurring-pool trace went with plan interning.
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--recurring", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --recurring 3" in capsys.readouterr().err

    def test_trace_is_deterministic(self, capsys):
        assert main(["trace", "--n", "5", "--seed", "3", "--rounds", "4"]) == 0
        first = capsys.readouterr().out
        assert main(["trace", "--n", "5", "--seed", "3", "--rounds", "4"]) == 0
        second = capsys.readouterr().out
        _, a = events_from_jsonl(first)
        _, b = events_from_jsonl(second)
        deterministic = lambda evs: [  # noqa: E731
            (e.kind, e.round, e.deterministic_fields())
            for e in evs
            if e.kind == "round"
        ]
        assert deterministic(a) == deterministic(b)


class TestParallelFlag:
    """The retired in-job pool flags are argparse usage errors."""

    @pytest.mark.parametrize(
        "argv", [["--parallel"], ["--workers", "2"]], ids=["parallel", "workers"]
    )
    def test_retired_flag_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: " + " ".join(argv) in capsys.readouterr().err


@pytest.mark.slow
class TestSubprocess:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--table", "1"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0
        assert "every cell agrees" in result.stdout

    def test_trace_subcommand_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "trace", "--n", "4", "--rounds", "3"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0
        manifest, events = events_from_jsonl(result.stdout)
        assert manifest["kind"] == "trace"
        assert events[-1].kind == "summary"
