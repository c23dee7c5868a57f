"""One graph per distinct network in a grid run.

``run_scenario``'s sequential path builds each network once per call and
hands the same immutable graph to every later unit on it: another probe,
or another seed of a family whose build does not read the seed.  These
tests pin that contract:

* every family's ``uses_seed`` declaration is proven — seed-independent
  families build equal graphs (edge order and fingerprint included) for
  any two seeds, and a family declared seeded builds different graphs
  for some pair;
* sharing is exact — a run's rows equal the rows of the unit-by-unit
  path, which builds a fresh graph for every unit, under the object,
  vector and quotient engines;
* sharing is counted — a counting wrapper on every family's ``build``
  reads one build per distinct network, and none on a warm store.
"""

import collections
import dataclasses
import os

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineFlags
from repro.core.memo import graph_fingerprint
from repro.scenarios import (
    GRAPH_FAMILIES,
    INPUT_PATTERNS,
    PROBES,
    compute_grid_row,
    document_bytes,
    grid_units,
    load_scenario,
    run_scenario,
    validate_scenario,
)
from repro.scenarios.registry import GraphFamily

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
CONFIGS = os.path.join(REPO_ROOT, "configs")

#: Valid sizes up to 64 for every registered family.  A family added to
#: the registry without a row here fails the meta-test below, so its
#: seed declaration cannot go unproven.
SIZES = {
    "complete": st.integers(2, 64),
    "ring": st.integers(2, 64),
    "directed-ring": st.integers(2, 64),
    "star": st.integers(2, 64),
    "hypercube": st.sampled_from([2, 4, 8, 16, 32, 64]),
    "random": st.integers(2, 64),
}
SEEDS = st.integers(0, 2**32)

SEED_INDEPENDENT = sorted(name for name, f in GRAPH_FAMILIES.items() if not f.uses_seed)
SEEDED = sorted(name for name, f in GRAPH_FAMILIES.items() if f.uses_seed)

#: The object, vector and quotient engines, forced on or off so that no
#: ``REPRO_*`` variable changes which engine a run uses.
ENGINES = (
    {"quotient": False, "vector": False},
    {"quotient": False, "vector": True},
    {"quotient": True, "vector": False},
)


def test_every_registered_family_has_a_row():
    assert sorted(SIZES) == sorted(GRAPH_FAMILIES)


def test_the_default_declaration_is_the_safe_one():
    assert GraphFamily("undeclared", lambda n, seed: None).uses_seed is True


def test_network_key_carries_the_seed_only_when_read():
    for name, family in GRAPH_FAMILIES.items():
        expected = (name, 8, 3) if family.uses_seed else (name, 8)
        assert family.network_key(8, 3) == expected


@pytest.mark.parametrize("name", SEED_INDEPENDENT)
@settings(max_examples=25)
@given(data=st.data())
def test_seed_independent_family_builds_one_graph(name, data):
    family = GRAPH_FAMILIES[name]
    n = data.draw(SIZES[name], label="n")
    assert family.check_size is None or family.check_size(n) is None
    first = family.build(n, data.draw(SEEDS, label="seed"))
    second = family.build(n, data.draw(SEEDS, label="other seed"))
    assert first == second
    assert first.edge_specs() == second.edge_specs()  # ports too
    assert graph_fingerprint(first) == graph_fingerprint(second)


@pytest.mark.parametrize("name", SEEDED)
def test_seeded_family_reads_its_seed(name):
    family = GRAPH_FAMILIES[name]
    n, a, b = find(
        st.tuples(SIZES[name], SEEDS, SEEDS),
        lambda drawn: family.build(drawn[0], drawn[1]) != family.build(drawn[0], drawn[2]),
    )
    assert graph_fingerprint(family.build(n, a)) != graph_fingerprint(family.build(n, b))


# ---------------------------------------------------------------------- #
# sharing is exact
# ---------------------------------------------------------------------- #

SMALL_SIZES = {
    name: st.sampled_from([2, 4, 8, 16]) if name == "hypercube" else st.integers(2, 16)
    for name in SIZES
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
@settings(max_examples=25)
@given(data=st.data())
def test_shared_graphs_give_the_unit_by_unit_rows(inputs, data):
    raw = data.draw(grids(inputs), label="grid")
    for flags in ENGINES:
        scenario = validate_scenario(
            {**raw, "engine": flags}, source="drawn"
        )
        fresh = [
            compute_grid_row(scenario, *unit, engine=EngineFlags(**flags))
            for unit in grid_units(scenario)
        ]
        assert run_scenario(scenario)["rows"] == fresh, flags


# ---------------------------------------------------------------------- #
# sharing is counted
# ---------------------------------------------------------------------- #

@pytest.fixture
def builds(monkeypatch):
    """Per-family build counts, through a counting wrapper on every
    registered family's ``build`` (the runner looks families up at call
    time, so it sees the wrappers)."""
    for flag in ("REPRO_VECTOR", "REPRO_QUOTIENT", "REPRO_STORE"):
        monkeypatch.delenv(flag, raising=False)
    counts = collections.Counter()
    for name, family in list(GRAPH_FAMILIES.items()):
        def counting(n, seed, _build=family.build, _name=name):
            counts[_name] += 1
            return _build(n, seed)

        monkeypatch.setitem(GRAPH_FAMILIES, name, dataclasses.replace(family, build=counting))
    return counts


def shipped(name):
    return load_scenario(os.path.join(CONFIGS, name))


@pytest.mark.parametrize(
    "name,distinct,units",
    [("gossip_grid.json", 28, 48), ("onebit_counting.json", 12, 40)],
)
def test_one_build_per_distinct_network(builds, name, distinct, units):
    scenario = shipped(name)
    assert len(grid_units(scenario)) == units
    run_scenario(scenario)
    assert sum(builds.values()) == distinct
    assert builds["random"] == len(scenario.seeds) * sum(
        len(spec.sizes) for spec in scenario.graphs if spec.family == "random"
    )


def test_unit_by_unit_path_builds_per_unit(builds):
    scenario = shipped("onebit_counting.json")
    for unit in grid_units(scenario):
        compute_grid_row(scenario, *unit)
    assert sum(builds.values()) == 40


def test_warm_store_builds_nothing(builds, tmp_path):
    from repro.store.cache import ResultStore

    scenario = shipped("gossip_grid.json")
    store = ResultStore(tmp_path / "store")
    cold = document_bytes(run_scenario(scenario, store=store))
    assert sum(builds.values()) == 28
    builds.clear()
    warm = document_bytes(run_scenario(scenario, store=store))
    assert sum(builds.values()) == 0
    assert warm == cold


def test_sharing_stops_at_the_run(builds):
    scenario = shipped("onebit_counting.json")
    first = document_bytes(run_scenario(scenario))
    second = document_bytes(run_scenario(scenario))
    assert first == second
    assert sum(builds.values()) == 2 * 12
