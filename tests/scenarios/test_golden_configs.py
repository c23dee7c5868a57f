"""Golden-config regression tests: the DSL reproduces the hard-coded paths.

``configs/table1.json`` and ``configs/table2.json`` must compile to
documents that are *byte-identical* to what the pre-DSL machinery emits
— :func:`~repro.analysis.tables.reproduce_table1/2` assembled through
:func:`~repro.store.jobs.table_document`.  If the DSL ever drifts from
the hard-coded reproduction, these tests are the tripwire.  Literal
SHA-256 digests pin both tables' documents at seeds 1, 2 and 7919 as
well, and the two shipped grid configs' documents under every engine
mode.
"""

import functools
import hashlib
import os

import pytest

from repro.scenarios import compute_grid_row, document_bytes, grid_units, load_scenario, run_scenario

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
CONFIGS = os.path.join(REPO_ROOT, "configs")


def config_path(name: str) -> str:
    return os.path.join(CONFIGS, name)


@functools.lru_cache(maxsize=None)
def hard_coded_bytes(table: int, seed: int = 0) -> bytes:
    """The pre-DSL reproduction, assembled exactly as the durable table
    jobs assemble it — the byte-level golden reference."""
    from repro.analysis.tables import (
        cell_to_payload,
        reproduce_table1,
        reproduce_table2,
    )
    from repro.store.jobs import table_document

    if table == 1:
        cells = [cell_to_payload(r) for r in reproduce_table1(6, seed)]
        return document_bytes(table_document("table1", 6, seed, cells))
    cells = [cell_to_payload(r) for r in reproduce_table2(5, seed)]
    return document_bytes(table_document("table2", 5, seed, cells))


#: SHA-256 of the Table 1 (n=6) and Table 2 (n=5) documents at seeds
#: beyond the configs' seed 0.  Literal digests: any change to the bytes
#: of either table at these seeds, in any engine mode, fails here.
PINNED_TABLE_DIGESTS = {
    1: (
        "e4e524055999e9fea8a2930f3790f53a52d9c1a524089ae6b6a68a94b290b7f9",
        "631d8c257008f97300e8d07641ea380d110dcbaa2dfd5d7d98ceae69c12fabe8",
    ),
    2: (
        "d14cfe8249e36c9ac87112374a91f89414f5074162f6a358662b15c2f12f9967",
        "2b5ea8b536075820c10a387ae0240efb56214199813724b6b9b7a6ae05575b74",
    ),
    7919: (
        "a98153333e72493a672d96716442ebd4f6a82e141d0ad69d7c8513e1547799f6",
        "038a365962609454d0fc0a6dd0466fd9249dce537dc60c969cfb73cbe51b4ab1",
    ),
}


@pytest.mark.parametrize("seed", sorted(PINNED_TABLE_DIGESTS))
@pytest.mark.parametrize("table", [1, 2])
def test_table_document_digest_is_pinned(table, seed):
    digest = hashlib.sha256(hard_coded_bytes(table, seed)).hexdigest()
    assert digest == PINNED_TABLE_DIGESTS[seed][table - 1]


@pytest.mark.parametrize("table,name", [(1, "table1.json"), (2, "table2.json")])
class TestGoldenConfigs:
    def test_sequential_byte_identity(self, table, name):
        document = run_scenario(load_scenario(config_path(name)))
        assert document_bytes(document) == hard_coded_bytes(table)

    def test_document_shape_matches_table_jobs(self, table, name):
        scenario = load_scenario(config_path(name))
        assert scenario.kind == "table"
        assert scenario.table == table
        assert scenario.n == (6 if table == 1 else 5)
        assert scenario.seed == 0
        document = run_scenario(scenario)
        assert document["kind"] == f"table{table}"
        assert document["parameters"] == {"n": scenario.n, "seed": 0}
        assert document["summary"]["verdict"] == "PASS"


#: SHA-256 of the documents of the shipped grid configs.  Cross-engine
#: agreement cannot catch a change common to every engine (no engine
#: scrambles a set or multiset reader's inbox any more); these literals can.
PINNED_GRID_DIGESTS = {
    "gossip_grid.json": "736c118a87436ea053de00bd37869ad3ca136d33dd0e256f92c9fe63213ef422",
    "onebit_counting.json": "c158f1c4f717c5bf3590e5a0c0fc7d5f20e2bcbf422c6d19788ec9f452115574",
}


@pytest.mark.parametrize("engine", [None, "REPRO_VECTOR", "REPRO_QUOTIENT"])
@pytest.mark.parametrize("name", sorted(PINNED_GRID_DIGESTS))
def test_grid_document_digest_is_pinned(name, engine, monkeypatch):
    for flag in ("REPRO_VECTOR", "REPRO_QUOTIENT"):
        monkeypatch.delenv(flag, raising=False)
    if engine is not None:
        monkeypatch.setenv(engine, "1")
    document = run_scenario(load_scenario(config_path(name)))
    assert hashlib.sha256(document_bytes(document)).hexdigest() == PINNED_GRID_DIGESTS[name]


class TestShippedGridConfig:
    def test_onebit_counting_is_deterministic_and_consistent(self):
        scenario = load_scenario(config_path("onebit_counting.json"))
        first = document_bytes(run_scenario(scenario))
        second = document_bytes(run_scenario(scenario))
        assert first == second
        document = run_scenario(scenario)
        assert document["summary"] == {
            "rows": 40,
            "consistent": 40,
            "verdict": "PASS",
        }
        # The grid genuinely separates the probes: OR-flooding converges
        # everywhere, the indegree census only on complete graphs.
        by_probe = {}
        for row in document["rows"]:
            by_probe.setdefault(row["probe"], []).append(row)
        assert all(row["converged"] for row in by_probe["or-flood"])
        assert all(
            row["converged"] == (row["graph"] == "complete")
            for row in by_probe["census"]
        )

    def test_gossip_grid_quotient_run_matches_object_run(self, monkeypatch):
        # One-hot inputs refine the base: the quotient engine activates on
        # half the runs and must still emit the object engine's bytes.  A
        # grid run makes one run per distinct network, input vector and
        # probe (28 for the 48 rows); unit by unit, every row runs.
        from repro.core.engine.quotient import quotient_stats

        monkeypatch.delenv("REPRO_VECTOR", raising=False)
        monkeypatch.delenv("REPRO_QUOTIENT", raising=False)
        scenario = load_scenario(config_path("gossip_grid.json"))
        plain = run_scenario(scenario)
        assert plain["summary"] == {"rows": 48, "consistent": 48, "verdict": "PASS"}
        monkeypatch.setenv("REPRO_QUOTIENT", "1")

        def counted(run):
            before = quotient_stats()
            result = run()
            after = quotient_stats()
            return result, after["activations"] - before["activations"], {
                reason: count - before["fallback_reasons"].get(reason, 0)
                for reason, count in after["fallback_reasons"].items()
                if count != before["fallback_reasons"].get(reason, 0)
            }

        quotient, activations, fallbacks = counted(lambda: run_scenario(scenario))
        assert document_bytes(quotient) == document_bytes(plain)
        assert activations == 12
        assert fallbacks == {"trivial-base": 12, "base-too-large": 4}
        rows, activations, fallbacks = counted(
            lambda: [compute_grid_row(scenario, *unit) for unit in grid_units(scenario)]
        )
        assert rows == plain["rows"]
        assert activations == 24
        assert fallbacks == {"trivial-base": 16, "base-too-large": 8}
