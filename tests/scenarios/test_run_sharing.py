"""One run per distinct network, input vector and probe in a grid run.

``run_scenario``'s sequential path keys each unit's run by its network
(``GraphFamily.network_key``), its input vector and its probe, in the
per-run dict that already holds the run's graphs.  A later unit with the
same key takes the recorded row under its own seed, and the recorded
tracer snapshots are replayed to ``on_trace`` under its own unit.  These
tests pin that contract:

* sharing is exact — a run's rows equal the rows of the unit-by-unit
  path, which runs every unit, under the object, vector and quotient
  engines, for every input pattern (``seeded`` included: it shares only
  when two seeds draw the same bits) and each model's full probe list;
* sharing is counted — a counting wrapper on the runner's ``run_batch``
  reads one job per distinct run, none on a warm store, and a unit
  served from the store records nothing, so its duplicates still run;
* per-unit contracts stay per unit — every unit has its own store entry
  and its own ``progress`` call, and ``on_trace`` receives for every unit
  exactly the snapshots a unit-by-unit traced call produces, down to the
  event log a traced ``scenario`` job writes.
"""

import collections
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.scenarios.runner as runner
from repro.core.engine import EngineFlags
from repro.scenarios import (
    GRAPH_FAMILIES,
    INPUT_PATTERNS,
    PROBES,
    compute_grid_row,
    document_bytes,
    grid_units,
    run_scenario,
    validate_scenario,
)

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
CONFIGS = os.path.join(REPO_ROOT, "configs")

#: The object, vector and quotient engines, forced on or off so that no
#: ``REPRO_*`` variable changes which engine a run uses.
ENGINES = (
    {"quotient": False, "vector": False},
    {"quotient": False, "vector": True},
    {"quotient": True, "vector": False},
)
ENGINE_IDS = ("object", "vector", "quotient")


def shipped(name, **overrides):
    with open(os.path.join(CONFIGS, name)) as fh:
        raw = json.load(fh)
    raw.update(overrides)
    return validate_scenario(raw, source=name)


def distinct_runs(scenario):
    """What the runner may share on, derived here from the registries:
    one run per (network, input vector, probe)."""
    return {
        (
            GRAPH_FAMILIES[family].network_key(n, seed),
            tuple(INPUT_PATTERNS[scenario.inputs](n, seed)),
            probe,
        )
        for family, n, seed, probe in grid_units(scenario)
    }


@pytest.fixture
def jobs(monkeypatch):
    """Jobs handed to ``run_batch`` by the grid runner, through a counting
    wrapper on the name the runner calls."""
    for flag in ("REPRO_VECTOR", "REPRO_QUOTIENT", "REPRO_STORE"):
        monkeypatch.delenv(flag, raising=False)
    counts = collections.Counter()
    real = runner.run_batch

    def counting(batch, **kwargs):
        counts["jobs"] += len(batch)
        return real(batch, **kwargs)

    monkeypatch.setattr(runner, "run_batch", counting)
    return counts


def unit_by_unit(scenario, on_trace=None, **flags):
    engine = EngineFlags(**flags)
    return [
        compute_grid_row(scenario, *unit, on_trace=on_trace, engine=engine)
        for unit in grid_units(scenario)
    ]


# ---------------------------------------------------------------------- #
# sharing is exact
# ---------------------------------------------------------------------- #

SMALL_SIZES = {
    name: st.sampled_from([2, 4, 8, 16]) if name == "hypercube" else st.integers(2, 16)
    for name in GRAPH_FAMILIES
}
MODELS = sorted({probe.model.value for probe in PROBES.values()})


@st.composite
def grids(draw, inputs):
    model = draw(st.sampled_from(MODELS))
    families = draw(st.lists(st.sampled_from(sorted(GRAPH_FAMILIES)), min_size=1, max_size=2, unique=True))
    return {
        "scenario": "drawn",
        "kind": "grid",
        "model": model,
        "rounds": 24,
        "seeds": draw(st.lists(st.integers(0, 50), min_size=1, max_size=3, unique=True)),
        "graphs": [
            {
                "family": family,
                "sizes": draw(st.lists(SMALL_SIZES[family], min_size=1, max_size=2, unique=True)),
            }
            for family in families
        ],
        "probes": sorted(name for name, probe in PROBES.items() if probe.model.value == model),
        "inputs": inputs,
    }


@pytest.mark.parametrize("inputs", sorted(INPUT_PATTERNS))
# The counter is cleared before each count, so sharing the fixture
# across examples is safe.
@settings(max_examples=15, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_shared_runs_give_the_unit_by_unit_rows(jobs, inputs, data):
    raw = data.draw(grids(inputs), label="grid")
    for flags in ENGINES:
        scenario = validate_scenario(
            {**raw, "engine": flags}, source="drawn"
        )
        fresh = unit_by_unit(scenario, **flags)
        jobs.clear()
        assert run_scenario(scenario)["rows"] == fresh, flags
        assert jobs["jobs"] == len(distinct_runs(scenario)), flags


def test_seeded_inputs_share_only_equal_bits(jobs):
    # At n >= 8 seeds 0 and 1 draw different bits on every size, so no
    # unit shares a run; the rows still equal the unit-by-unit rows.
    scenario = shipped("gossip_grid.json", inputs="seeded")
    fresh = unit_by_unit(scenario)
    jobs.clear()
    assert run_scenario(scenario)["rows"] == fresh
    assert jobs["jobs"] == len(distinct_runs(scenario)) == 48


# ---------------------------------------------------------------------- #
# sharing is counted
# ---------------------------------------------------------------------- #

def grid_sweep(engine):
    """The grid the ``grid_sweep`` benchmark runs under each engine."""
    return validate_scenario(
        {
            "scenario": "grid-sweep",
            "kind": "grid",
            "model": "simple broadcast",
            "rounds": 140,
            "seeds": [1, 2],
            "graphs": [
                {"family": family, "sizes": [8, 16, 32, 64, 128]}
                for family in ("complete", "ring", "directed-ring", "star", "hypercube", "random")
            ],
            "probes": ["gossip-max"],
            "inputs": "one-hot",
            "engine": engine,
        },
        source="grid_sweep",
    )


@pytest.mark.parametrize(
    "name,runs,units",
    [("gossip_grid.json", 28, 48), ("onebit_counting.json", 24, 40)],
)
def test_one_run_per_distinct_key(jobs, name, runs, units):
    scenario = shipped(name)
    assert len(grid_units(scenario)) == units
    run_scenario(scenario)
    assert jobs["jobs"] == runs == len(distinct_runs(scenario))


@pytest.mark.parametrize("name,units", [("gossip_grid.json", 48), ("onebit_counting.json", 40)])
def test_unit_by_unit_path_runs_per_unit(jobs, name, units):
    unit_by_unit(shipped(name))
    assert jobs["jobs"] == units


@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_grid_sweep_runs_35_of_60(jobs, engine):
    document = run_scenario(grid_sweep(engine))
    assert document["summary"] == {"rows": 60, "consistent": 60, "verdict": "PASS"}
    assert jobs["jobs"] == 35


def test_one_seed_has_nothing_to_share(jobs):
    scenario = shipped("onebit_counting.json", seeds=[0])
    run_scenario(scenario)
    assert jobs["jobs"] == len(grid_units(scenario)) == 20


def test_warm_store_runs_nothing(jobs, tmp_path):
    from repro.store.cache import ResultStore

    scenario = shipped("onebit_counting.json")
    store = ResultStore(tmp_path / "store")
    cold = document_bytes(run_scenario(scenario, store=store))
    assert jobs["jobs"] == 24
    jobs.clear()
    warm = document_bytes(run_scenario(scenario, store=store))
    assert jobs["jobs"] == 0
    assert warm == cold == document_bytes(run_scenario(scenario))


def test_sharing_stops_at_the_run(jobs):
    scenario = shipped("onebit_counting.json")
    first = document_bytes(run_scenario(scenario))
    second = document_bytes(run_scenario(scenario))
    assert first == second
    assert jobs["jobs"] == 2 * 24


def test_a_served_unit_records_nothing(jobs, tmp_path):
    # Seed 0's rows are in the store; seed 1's units on seed-independent
    # families duplicate served units, which ran nothing, so they run.
    from repro.store.cache import ResultStore

    store = ResultStore(tmp_path / "store")
    run_scenario(shipped("onebit_counting.json", seeds=[0]), store=store)
    jobs.clear()
    scenario = shipped("onebit_counting.json")
    document = run_scenario(scenario, store=store)
    assert jobs["jobs"] == 20
    assert document_bytes(document) == document_bytes(run_scenario(scenario))


# ---------------------------------------------------------------------- #
# per-unit contracts stay per unit
# ---------------------------------------------------------------------- #

def test_every_unit_is_stored_under_its_own_key(jobs, tmp_path):
    from repro.store.cache import ResultStore, result_key

    scenario = shipped("onebit_counting.json")
    store = ResultStore(tmp_path / "store")
    document = run_scenario(scenario, store=store)
    assert jobs["jobs"] == 24
    assert store.puts == len(grid_units(scenario)) == 40
    for unit, row in zip(grid_units(scenario), document["rows"]):
        key = result_key("scenario-row", runner._row_params(scenario, *unit))
        assert store.get(key) == row


def test_progress_fires_after_every_unit(jobs):
    scenario = shipped("onebit_counting.json")
    calls = []
    run_scenario(scenario, progress=lambda done, total: calls.append((done, total)))
    assert calls == [(done, 40) for done in range(1, 41)]
    assert jobs["jobs"] == 24


def small_gossip_grid(engine):
    return validate_scenario(
        {
            "scenario": "small-gossip",
            "kind": "grid",
            "model": "simple broadcast",
            "rounds": 24,
            "seeds": [0, 1],
            "graphs": [
                {"family": family, "sizes": [4, 8]}
                for family in ("complete", "ring", "star", "random")
            ],
            "probes": ["gossip-max"],
            "inputs": "one-hot",
            "engine": engine,
        },
        source="small-gossip",
    )


def traced(run):
    calls = []
    run(lambda unit, snapshots: calls.append((unit, snapshots)))
    return calls


@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_duplicates_replay_the_unit_by_unit_snapshots(jobs, engine):
    scenario = small_gossip_grid(engine)
    fresh = traced(lambda on_trace: unit_by_unit(scenario, on_trace=on_trace, **engine))
    jobs.clear()
    shared = traced(lambda on_trace: run_scenario(scenario, on_trace=on_trace))
    assert jobs["jobs"] == len(distinct_runs(scenario)) < len(grid_units(scenario))
    assert [unit for unit, _ in shared] == [
        {"graph": family, "n": n, "seed": seed, "probe": probe}
        for family, n, seed, probe in grid_units(scenario)
    ]
    assert all(snapshots for _, snapshots in shared)
    assert shared == fresh


def test_onebit_duplicates_replay_the_unit_by_unit_snapshots(jobs):
    scenario = shipped("onebit_counting.json")
    fresh = traced(lambda on_trace: unit_by_unit(scenario, on_trace=on_trace))
    shared = traced(lambda on_trace: run_scenario(scenario, on_trace=on_trace))
    assert all(snapshots for _, snapshots in shared)
    assert shared == fresh


def test_replayed_snapshots_are_the_callers_own(jobs):
    # A consumer that edits what it receives cannot change what a later
    # duplicate is handed.
    scenario = small_gossip_grid({})
    received = []

    def vandal(unit, snapshots):
        received.append((unit, [dict(snapshot) for snapshot in snapshots]))
        for snapshot in snapshots:
            snapshot.clear()
        snapshots.clear()

    run_scenario(scenario, on_trace=vandal)
    assert received == traced(lambda on_trace: unit_by_unit(scenario, on_trace=on_trace))


def test_traced_job_writes_the_unit_by_unit_event_log(jobs, tmp_path):
    from repro.store.events import JobEventLog
    from repro.store.jobs import open_queue, open_store, run_worker

    scenario = shipped("onebit_counting.json")
    queue = open_queue(tmp_path / "root")
    store = open_store(tmp_path / "root")
    record = queue.submit("scenario", {"config": scenario.normalized(), "trace": True})
    assert run_worker(tmp_path / "root", queue=queue, store=store) == 1
    assert queue.get(record.id).status == "done"
    assert jobs["jobs"] == 24

    expected = []
    total = len(grid_units(scenario))
    for done, unit in enumerate(grid_units(scenario), start=1):
        compute_grid_row(
            scenario, *unit,
            on_trace=lambda u, snapshots: expected.extend(
                ("trace", {**u, **snapshot}) for snapshot in snapshots
            ),
        )
        expected.append(
            ("progress", {"kind": "scenario", "units_done": done, "units_total": total})
        )
    written = [
        (event["event"], event["data"])
        for event in JobEventLog(store.root).read(record.id)
        if event["event"] in ("trace", "progress")
    ]
    assert written == expected
