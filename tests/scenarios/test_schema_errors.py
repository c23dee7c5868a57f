"""Every way a config can be wrong raises a typed, pinpointed error.

The contract under test: any invalid scenario document raises
:class:`~repro.scenarios.errors.ScenarioSchemaError` whose message names
the offending key and the source file; any unreadable or malformed file
raises :class:`~repro.scenarios.errors.ScenarioFileError` with the path
— and ``python -m repro run`` turns both into a one-line stderr
diagnostic with exit code 2, never a traceback.
"""

import pytest

from repro.scenarios import (
    ScenarioError,
    ScenarioFileError,
    ScenarioSchemaError,
    load_scenario,
    parse_scenario_text,
    validate_scenario,
)


def good_grid():
    return {
        "scenario": "probe",
        "kind": "grid",
        "model": "one-bit broadcast",
        "rounds": 8,
        "seeds": [0],
        "graphs": [{"family": "ring", "sizes": [4]}],
        "probes": ["or-flood"],
        "inputs": "alternating",
    }


def good_table():
    return {"scenario": "t1", "kind": "table", "table": 1, "seed": 0}


def fails_on(raw, key):
    with pytest.raises(ScenarioSchemaError) as excinfo:
        validate_scenario(raw, source="bad.json")
    message = str(excinfo.value)
    assert "bad.json" in message
    assert repr(key) in message
    return message


class TestSchemaViolations:
    def test_root_must_be_object(self):
        fails_on([1, 2], "<root>")

    def test_missing_scenario_name(self):
        raw = good_table()
        del raw["scenario"]
        fails_on(raw, "scenario")

    def test_unknown_kind(self):
        raw = good_table()
        raw["kind"] = "benchmark"
        fails_on(raw, "kind")

    def test_unknown_top_level_key(self):
        raw = good_table()
        raw["temperature"] = 300
        assert "not part of the scenario schema" in fails_on(raw, "temperature")

    def test_cross_kind_key_named_as_such(self):
        raw = good_table()
        raw["rounds"] = 5
        assert "not a 'table'-kind key" in fails_on(raw, "rounds")

    def test_unknown_model(self):
        raw = good_grid()
        raw["model"] = "two-bit broadcast"
        message = fails_on(raw, "model")
        assert "one-bit broadcast" in message  # lists the known models

    def test_unknown_knowledge(self):
        raw = good_grid()
        raw["knowledge"] = "oracle"
        fails_on(raw, "knowledge")

    def test_missing_seeds(self):
        raw = good_grid()
        del raw["seeds"]
        assert "required key is missing" in fails_on(raw, "seeds")

    def test_empty_seeds(self):
        raw = good_grid()
        raw["seeds"] = []
        fails_on(raw, "seeds")

    def test_negative_seed_pinpoints_index(self):
        raw = good_grid()
        raw["seeds"] = [0, -3]
        fails_on(raw, "seeds[1]")

    def test_negative_rounds(self):
        raw = good_grid()
        raw["rounds"] = -5
        assert "positive integer" in fails_on(raw, "rounds")

    def test_boolean_is_not_an_integer(self):
        raw = good_grid()
        raw["rounds"] = True  # JSON true must not pass as 1
        fails_on(raw, "rounds")

    def test_unknown_graph_family(self):
        raw = good_grid()
        raw["graphs"] = [{"family": "petersen", "sizes": [10]}]
        fails_on(raw, "graphs[0].family")

    def test_undersized_graph(self):
        raw = good_grid()
        raw["graphs"] = [{"family": "ring", "sizes": [1]}]
        fails_on(raw, "graphs[0].sizes[0]")

    def test_hypercube_size_must_be_power_of_two(self):
        raw = good_grid()
        raw["graphs"] = [{"family": "hypercube", "sizes": [6]}]
        fails_on(raw, "graphs[0].sizes[0]")

    def test_unknown_probe(self):
        raw = good_grid()
        raw["probes"] = ["leader-election"]
        fails_on(raw, "probes[0]")

    def test_probe_model_mismatch(self):
        raw = good_grid()
        raw["probes"] = ["gossip-max"]  # a simple-broadcast probe
        assert "runs under" in fails_on(raw, "probes[0]")

    def test_unknown_input_pattern(self):
        raw = good_grid()
        raw["inputs"] = "fibonacci"
        fails_on(raw, "inputs")

    def test_table_out_of_range(self):
        raw = good_table()
        raw["table"] = 3
        fails_on(raw, "table")

    def test_table_missing_seed(self):
        raw = good_table()
        del raw["seed"]
        fails_on(raw, "seed")

    def test_unknown_output_key(self):
        raw = good_table()
        raw["output"] = {"format": "csv"}
        fails_on(raw, "output.format")


class TestEngineFlagViolations:
    def test_unknown_engine_flag(self):
        raw = good_table()
        raw["engine"] = {"turbo": True}
        fails_on(raw, "engine.turbo")

    def test_engine_flag_must_be_boolean(self):
        raw = good_table()
        raw["engine"] = {"vector": "yes"}
        fails_on(raw, "engine.vector")

    @pytest.mark.parametrize(
        "flag, value", [("parallel", True), ("parallel", False), ("workers", 2)]
    )
    def test_retired_pool_flags_rejected(self, flag, value):
        # The in-job process pool is gone; a config asking for it fails
        # naming the key instead of running without it.
        raw = good_grid()
        raw["engine"] = {flag: value}
        message = fails_on(raw, f"engine.{flag}")
        assert "known flags: quotient, vector" in message

    def test_quotient_and_vector_cannot_both_force_on(self):
        raw = good_table()
        raw["engine"] = {"quotient": True, "vector": True}
        assert "cannot both be forced on" in fails_on(raw, "engine")


class TestFileErrors:
    def test_malformed_json_is_typed(self):
        with pytest.raises(ScenarioFileError) as excinfo:
            parse_scenario_text("{not json", "json", "broken.json")
        assert "broken.json" in str(excinfo.value)
        assert "malformed JSON" in str(excinfo.value)

    def test_malformed_toml_is_typed(self):
        try:
            import tomllib  # noqa: F401 - probing the gate
        except ImportError:
            with pytest.raises(ScenarioFileError, match="Python 3.11"):
                parse_scenario_text("x = [", "toml", "broken.toml")
        else:
            with pytest.raises(ScenarioFileError, match="malformed TOML"):
                parse_scenario_text("x = [", "toml", "broken.toml")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioFileError, match="cannot read config"):
            load_scenario(tmp_path / "nowhere.json")

    def test_unsupported_suffix(self, tmp_path):
        config = tmp_path / "scenario.yaml"
        config.write_text("{}")
        with pytest.raises(ScenarioFileError, match="unsupported config suffix"):
            load_scenario(config)

    def test_malformed_file_names_its_path(self, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{]")
        with pytest.raises(ScenarioFileError) as excinfo:
            load_scenario(config)
        assert str(config) in str(excinfo.value)

    def test_all_errors_share_one_catchable_base(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "nowhere.json")
        with pytest.raises(ScenarioError):
            validate_scenario({"scenario": "x", "kind": "nope"})


class TestToml:
    def test_valid_toml_loads_when_tomllib_present(self, tmp_path):
        pytest.importorskip("tomllib")
        config = tmp_path / "t1.toml"
        config.write_text(
            'scenario = "t1"\nkind = "table"\ntable = 1\nseed = 0\n'
        )
        scenario = load_scenario(config)
        assert scenario.kind == "table"
        assert scenario.table == 1
        assert scenario.n == 6  # the paper default fills in
