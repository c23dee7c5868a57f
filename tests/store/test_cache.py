"""Unit tests for the content-addressed result store and atomic layer."""

import json
import os

import pytest

from repro.core.engine import ENGINE_VERSION
from repro.store.atomic import (
    append_line,
    atomic_write_bytes,
    atomic_write_text,
    sweep_temp_files,
)
from repro.store.cache import (
    ResultStore,
    canonical_params,
    default_store,
    fetch_or_compute,
    resolve_store,
    result_key,
)


class TestAtomic:
    def test_write_and_replace(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        assert path.read_text() == "second"
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_write_bytes(self, tmp_path):
        path = tmp_path / "blob.bin"
        atomic_write_bytes(path, b"\x00\x01\x02")
        assert path.read_bytes() == b"\x00\x01\x02"

    def test_append_line(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        append_line(path, "one")
        append_line(path, "two\n")
        assert path.read_text() == "one\ntwo\n"

    def test_sweep_temp_files(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / ".tmp-orphan").write_text("junk")
        (tmp_path / "sub" / ".tmp-nested").write_text("junk")
        (tmp_path / "keep.json").write_text("{}")
        removed = sweep_temp_files(tmp_path)
        assert len(removed) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.json", "sub"]


class TestResultKey:
    def test_insertion_order_irrelevant(self):
        a = result_key("cell", {"n": 5, "seed": 0, "model": "sb"})
        b = result_key("cell", {"model": "sb", "seed": 0, "n": 5})
        assert a == b

    def test_distinct_inputs_distinct_keys(self):
        base = result_key("cell", {"n": 5})
        assert result_key("cell", {"n": 6}) != base
        assert result_key("other", {"n": 5}) != base
        assert result_key("cell", {"n": 5}, engine_version="0") != base

    def test_canonical_params_sorted(self):
        assert canonical_params({"b": 1, "a": 2}) == '{"a":2,"b":1}'


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key("thing", {"x": 1})
        assert store.get(key) is None
        store.put(key, {"value": [1, 2, 3]}, kind="thing", params={"x": 1})
        assert store.get(key) == {"value": [1, 2, 3]}
        assert key in store
        assert store.stats() == {
            "hits": 1, "misses": 1, "puts": 1, "healed": 0, "entries": 1,
        }

    def test_deterministic_entry_bytes(self, tmp_path):
        a, b = ResultStore(tmp_path / "a"), ResultStore(tmp_path / "b")
        key = result_key("thing", {"x": 1})
        a.put(key, {"v": 2}, kind="thing", params={"x": 1})
        b.put(key, {"v": 2}, kind="thing", params={"x": 1})
        path_a, path_b = a.entry_path(key), b.entry_path(key)
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_undecodable_entry_heals(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key("thing", {})
        store.put(key, {"v": 1})
        with open(store.entry_path(key), "w") as fh:
            fh.write("{truncated")
        assert store.get(key) is None
        assert store.healed == 1
        assert not os.path.exists(store.entry_path(key))

    def test_digest_mismatch_heals(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key("thing", {})
        store.put(key, {"v": 1})
        path = store.entry_path(key)
        with open(path) as fh:
            entry = json.load(fh)
        entry["payload"]["v"] = 999  # flip a payload bit, keep the digest
        with open(path, "w") as fh:
            json.dump(entry, fh)
        assert store.get(key) is None
        assert store.healed == 1

    def test_mis_keyed_entry_heals(self, tmp_path):
        store = ResultStore(tmp_path)
        key_a = result_key("thing", {"x": "a"})
        key_b = result_key("thing", {"x": "b"})
        store.put(key_a, {"v": 1})
        os.makedirs(os.path.dirname(store.entry_path(key_b)), exist_ok=True)
        os.replace(store.entry_path(key_a), store.entry_path(key_b))
        assert store.get(key_b) is None  # content says key_a: quarantined
        assert store.healed == 1

    def test_invalidate(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key("thing", {})
        store.put(key, {"v": 1})
        assert store.invalidate(key)
        assert key not in store
        assert not store.invalidate(key)

    def test_journal_records_puts(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(result_key("a", {}), {"v": 1}, kind="a")
        store.put(result_key("b", {}), {"v": 2}, kind="b")
        with open(store.journal_path) as fh:
            lines = [json.loads(l) for l in fh]
        assert [l["op"] for l in lines] == ["put", "put"]

    def test_gc_prunes_stale_versions_and_corruption(self, tmp_path):
        store = ResultStore(tmp_path)
        good = result_key("thing", {"x": 1})
        store.put(good, {"v": 1}, kind="thing")
        # A stale-generation entry, written as the old engine would have.
        stale = result_key("thing", {"x": 2}, engine_version="0")
        path = store.entry_path(stale)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry = {
            "key": stale, "kind": "thing", "params": {"x": 2},
            "engine_version": "0", "payload": {"v": 2},
            "payload_sha256": store._digest({"v": 2}),
        }
        with open(path, "w") as fh:
            json.dump(entry, fh)
        # A corrupt file and an orphaned temp file.
        corrupt = result_key("thing", {"x": 3})
        os.makedirs(os.path.dirname(store.entry_path(corrupt)), exist_ok=True)
        with open(store.entry_path(corrupt), "w") as fh:
            fh.write("not json")
        with open(os.path.join(store.root, ".tmp-orphan"), "w") as fh:
            fh.write("junk")

        report = store.gc()
        assert report == {
            "temp_files": 1,
            "corrupt_entries": 1,
            "stale_versions": 1,
            "stale_codecs": 0,
        }
        assert store.get(good) == {"v": 1}

    def test_gc_prunes_stale_snapshot_codecs(self, tmp_path):
        # Entries written before the quotient snapshot codec ("2") carry
        # either an older stamp or no stamp at all; gc prunes both, while
        # current-codec entries survive.
        from repro.core.engine import ENGINE_VERSION
        from repro.store.snapshot import SNAPSHOT_CODEC_VERSION

        store = ResultStore(tmp_path)
        good = result_key("thing", {"x": 1})
        store.put(good, {"v": 1}, kind="thing")
        with open(store.entry_path(good)) as fh:
            assert json.load(fh)["snapshot_codec"] == SNAPSHOT_CODEC_VERSION
        stale_entries = {
            result_key("thing", {"x": 2}): "0",   # older codec stamp
            result_key("thing", {"x": 3}): None,  # pre-quotient: no stamp
        }
        for key, codec in stale_entries.items():
            path = store.entry_path(key)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            entry = {
                "key": key, "kind": "thing", "params": {},
                "engine_version": ENGINE_VERSION, "payload": {"v": 2},
                "payload_sha256": store._digest({"v": 2}),
            }
            if codec is not None:
                entry["snapshot_codec"] = codec
            with open(path, "w") as fh:
                json.dump(entry, fh)

        report = store.gc()
        assert report["stale_codecs"] == 2
        assert report["stale_versions"] == 0
        assert store.get(good) == {"v": 1}
        for key in stale_entries:
            assert key not in store

        # prune_versions=False leaves codec-stale entries alone too.
        for key in stale_entries:
            path = store.entry_path(key)
            entry = {
                "key": key, "kind": "thing", "params": {},
                "engine_version": ENGINE_VERSION, "payload": {"v": 2},
                "payload_sha256": store._digest({"v": 2}),
            }
            with open(path, "w") as fh:
                json.dump(entry, fh)
        assert store.gc(prune_versions=False)["stale_codecs"] == 0
        assert all(key in store for key in stale_entries)

    def test_entries_and_len(self, tmp_path):
        store = ResultStore(tmp_path)
        assert len(store) == 0
        for x in range(3):
            store.put(result_key("k", {"x": x}), {"x": x})
        assert len(store) == 3
        keys = {key for key, _entry in store.entries()}
        assert keys == {result_key("k", {"x": x}) for x in range(3)}


class TestResolution:
    def test_default_store_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert default_store() is None
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        store = default_store()
        assert store is not None and store.root == str(tmp_path)

    def test_resolve_store(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert resolve_store(None) is None
        store = ResultStore(tmp_path)
        assert resolve_store(store) is store
        assert resolve_store(str(tmp_path)).root == str(tmp_path)


class TestFetchOrCompute:
    def test_without_store_just_computes(self):
        calls = []
        value = fetch_or_compute(
            None, "k", {}, lambda: calls.append(1) or 42, lambda v: {"v": v},
            lambda p: p["v"],
        )
        assert value == 42 and calls == [1]

    def test_second_fetch_served_from_disk(self, tmp_path):
        store = ResultStore(tmp_path)
        calls = []

        def fetch():
            return fetch_or_compute(
                store, "k", {"x": 1},
                lambda: calls.append(1) or {"answer": 7},
                lambda v: dict(v), lambda p: dict(p),
            )

        assert fetch() == {"answer": 7}
        assert fetch() == {"answer": 7}
        assert calls == [1]
        assert store.hits == 1 and store.puts == 1

    def test_decode_failure_recomputes_and_heals(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key("k", {"x": 1})
        store.put(key, {"wrong": "shape"}, kind="k", params={"x": 1})

        def decode(payload):
            return payload["answer"]  # KeyError on the bad entry

        value = fetch_or_compute(
            store, "k", {"x": 1}, lambda: {"answer": 7}, lambda v: dict(v), decode
        )
        assert value == {"answer": 7}
        assert store.healed == 1
        assert store.get(key) == {"answer": 7}


class TestTableIntegration:
    # Counter assertions pin parallel=False: under the process pool each
    # worker opens its own store handle, so the parent's counters stay 0
    # (the disk-state test below covers that backend).
    def test_warm_table_skips_computation(self, tmp_path):
        from repro.analysis.tables import reproduce_table1

        store = ResultStore(tmp_path)
        cold = reproduce_table1(n=4, seed=0, store=store, parallel=False)
        assert store.puts == 16 and store.hits == 0
        warm = reproduce_table1(n=4, seed=0, store=store, parallel=False)
        assert store.hits == 16 and store.puts == 16
        for a, b in zip(cold, warm):
            assert (a.model, a.knowledge, a.consistent, a.measured) == (
                b.model, b.knowledge, b.consistent, b.measured
            )
            assert a.details == b.details
            assert a.manifest == b.manifest

    def test_corrupted_cell_recomputes_transparently(self, tmp_path):
        from repro.analysis.tables import reproduce_table1

        store = ResultStore(tmp_path)
        reproduce_table1(n=4, seed=0, store=store, parallel=False)
        # Corrupt one arbitrary entry on disk.
        key, _ = next(store.entries())
        with open(store.entry_path(key), "w") as fh:
            fh.write("bitrot")
        results = reproduce_table1(n=4, seed=0, store=store, parallel=False)
        assert store.healed == 1
        assert all(r.consistent for r in results)
        assert len(store) == 16  # healed entry was re-persisted

    def test_parallel_backend_fills_and_reads_store(self, tmp_path):
        from repro.analysis.tables import reproduce_table1

        store = ResultStore(tmp_path)
        cold = reproduce_table1(n=4, seed=0, store=store, parallel=True, workers=2)
        assert len(store) == 16  # workers persisted every cell
        warm = reproduce_table1(n=4, seed=0, store=store, parallel=True, workers=2)
        for a, b in zip(cold, warm):
            assert (a.model, a.knowledge, a.consistent) == (
                b.model, b.knowledge, b.consistent
            )
            assert a.details == b.details
            assert a.manifest == b.manifest
        # And a sequential read of the pool-filled store is pure hits.
        store.hits = store.puts = 0
        reproduce_table1(n=4, seed=0, store=store, parallel=False)
        assert store.hits == 16 and store.puts == 0

    def test_sweep_uses_store(self, tmp_path):
        from repro.analysis.rates import sweep_proof_invariants

        store = ResultStore(tmp_path)
        specs = [(4, 3, 0, 12), (4, 3, 1, 12)]
        first = sweep_proof_invariants(specs, store=store)
        assert store.puts == 2
        second = sweep_proof_invariants(specs, store=store)
        assert store.hits == 2 and store.puts == 2
        assert [c.ok for c in first] == [c.ok for c in second]
        assert [c.problems for c in first] == [c.problems for c in second]
