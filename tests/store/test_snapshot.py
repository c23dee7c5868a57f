"""Unit tests for the snapshot codec: round-trips, guards, checkpoints."""

import base64
import dataclasses
import json
import os
import random

import pytest

from repro.algorithms.gossip import GossipAlgorithm
from repro.algorithms.history_tree import HistoryTreeAlgorithm
from repro.algorithms.minimum_base_alg import OutdegreeViewAlgorithm, SymmetricViewAlgorithm
from repro.core.engine import ENGINE_VERSION
from repro.core.engine.trace import Tracer
from repro.core.execution import Execution
from repro.dynamics.generators import random_dynamic_symmetric
from repro.graphs.builders import (
    bidirectional_ring,
    directed_ring,
    random_strongly_connected,
    random_symmetric_connected,
)
from repro.graphs.views import ViewBuilder
from repro.store.snapshot import (
    SNAPSHOT_CODEC_VERSION,
    Checkpointer,
    Snapshot,
    SnapshotIntegrityError,
    SnapshotVersionError,
    decode_states,
    encode_states,
    read_snapshot,
    restore_execution,
    resume_execution,
    snapshot_execution,
    write_snapshot,
)


def make_execution(n=5, seed=1, scramble=0, rounds=0):
    g = random_strongly_connected(n, seed=seed)
    e = Execution(GossipAlgorithm(max), g, inputs=list(range(n)), scramble_seed=scramble)
    if rounds:
        e.run(rounds)
    return g, e


class TestStateCodec:
    def test_round_trip(self):
        states = [{"a": {1, 2}}, (3, frozenset([4])), None, 7.5]
        assert decode_states(encode_states(states)) == states

    def test_copy_is_deep(self):
        states = [{"inner": [1, 2]}]
        copied = decode_states(encode_states(states))
        copied[0]["inner"].append(3)
        assert states[0]["inner"] == [1, 2]

    def test_non_list_blob_rejected(self):
        import pickle

        with pytest.raises(SnapshotIntegrityError):
            decode_states(pickle.dumps({"not": "a list"}))


class TestEnvelope:
    def test_bytes_round_trip(self):
        _, e = make_execution(rounds=3)
        snap = snapshot_execution(e)
        back = Snapshot.from_bytes(snap.to_bytes())
        assert back.states() == snap.states()
        assert back.round_number == snap.round_number
        assert back.rng_state == snap.rng_state
        assert back.algorithm == snap.algorithm

    def test_bytes_are_deterministic(self):
        _, e = make_execution(rounds=3)
        assert snapshot_execution(e).to_bytes() == snapshot_execution(e).to_bytes()

    def test_codec_version_guard(self):
        _, e = make_execution(rounds=1)
        d = snapshot_execution(e).to_dict()
        d["codec_version"] = "0"
        with pytest.raises(SnapshotVersionError, match="codec version"):
            Snapshot.from_dict(d)

    def test_engine_version_guard(self):
        _, e = make_execution(rounds=1)
        d = snapshot_execution(e).to_dict()
        d["engine_version"] = "not-" + ENGINE_VERSION
        with pytest.raises(SnapshotVersionError, match="engine version"):
            Snapshot.from_dict(d)

    def test_restore_refuses_cross_generation_snapshot(self):
        _, e = make_execution(rounds=1)
        snap = snapshot_execution(e)
        stale = Snapshot(
            algorithm=snap.algorithm,
            n=snap.n,
            round_number=snap.round_number,
            states_blob=snap.states_blob,
            states_digest=snap.states_digest,
            rng_state=snap.rng_state,
            engine_version="ancient",
        )
        with pytest.raises(SnapshotVersionError):
            restore_execution(e, stale)

    def test_corrupt_blob_sha_detected(self):
        _, e = make_execution(rounds=1)
        d = snapshot_execution(e).to_dict()
        d["blob_sha256"] = "0" * 64
        with pytest.raises(SnapshotIntegrityError, match="sha256"):
            Snapshot.from_dict(d)

    def test_corrupt_blob_bytes_detected(self):
        _, e = make_execution(rounds=1)
        d = snapshot_execution(e).to_dict()
        blob = bytearray(base64.b64decode(d["states_b64"]))
        blob[len(blob) // 2] ^= 0xFF
        d["states_b64"] = base64.b64encode(bytes(blob)).decode("ascii")
        with pytest.raises(SnapshotIntegrityError):
            Snapshot.from_dict(d)

    def test_state_digest_mismatch_detected(self):
        _, e = make_execution(rounds=1)
        snap = snapshot_execution(e)
        snap.states_digest ^= 1
        with pytest.raises(SnapshotIntegrityError, match="digest"):
            snap.states()

    def test_garbage_bytes_rejected(self):
        with pytest.raises(SnapshotIntegrityError):
            Snapshot.from_bytes(b"\x00\x01 not json")
        with pytest.raises(SnapshotIntegrityError):
            Snapshot.from_bytes(b"[1, 2, 3]")


class TestRestore:
    def test_restore_continues_identically(self):
        g, e1 = make_execution(rounds=4)
        snap = snapshot_execution(e1)
        e1.run(5)
        e2 = resume_execution(snap, GossipAlgorithm(max), g)
        e2.run(5)
        assert e2.states == e1.states
        assert e2.round_number == e1.round_number

    def test_execution_facade_methods(self):
        g, e1 = make_execution(rounds=2)
        snap = e1.snapshot()
        e1.run(3)
        _, e2 = make_execution(rounds=0)
        e2.restore(snap).run(3)
        assert e2.states == e1.states

    def test_wrong_algorithm_rejected(self):
        from repro.algorithms.push_sum import PushSumAlgorithm

        g, e = make_execution(n=4, rounds=1)
        snap = snapshot_execution(e)
        other = Execution(PushSumAlgorithm(), g, inputs=[1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="cannot restore"):
            restore_execution(other, snap)

    def test_wrong_size_rejected(self):
        _, e5 = make_execution(n=5, rounds=1)
        _, e4 = make_execution(n=4, rounds=0)
        with pytest.raises(ValueError, match="agents"):
            restore_execution(e4, snapshot_execution(e5))

    def test_scramble_mismatch_rejected(self):
        g, e = make_execution(rounds=1, scramble=0)
        snap = snapshot_execution(e)
        plain = Execution(
            GossipAlgorithm(max), g, inputs=list(range(5)), scramble_seed=None
        )
        with pytest.raises(ValueError, match="scramble"):
            restore_execution(plain, snap)

    def test_unscrambled_snapshot_resumes(self):
        g = bidirectional_ring(5)
        e1 = Execution(GossipAlgorithm(max), g, inputs=[2, 7, 1, 8, 3], scramble_seed=None)
        e1.run(2)
        snap = snapshot_execution(e1)
        assert snap.rng_state is None
        e1.run(3)
        e2 = resume_execution(snap, GossipAlgorithm(max), g)
        e2.run(3)
        assert e2.states == e1.states

    def test_tracer_counters_survive_resume(self):
        g, e1 = make_execution(rounds=0)
        tracer1 = Tracer()
        e1.attach(tracer1)
        e1.run(4)
        snap = snapshot_execution(e1)
        e1.run(6)

        e2 = resume_execution(snap, GossipAlgorithm(max), g)
        tracer2 = Tracer()
        e2.attach(tracer2)
        restore_execution(e2, snap)  # restores the registry into tracer2
        e2.run(6)
        assert (
            tracer2.registry.counter("rounds").value
            == tracer1.registry.counter("rounds").value
            == 10
        )
        assert (
            tracer2.registry.counter("messages_delivered").value
            == tracer1.registry.counter("messages_delivered").value
        )


class TestAdvancedStreamSnapshots:
    """A set or multiset reader draws nothing from its scramble stream,
    but a checkpoint written by an engine that scrambled every inbox
    carries an advanced stream position.  Restored or resumed, such a
    checkpoint must continue exactly as the uninterrupted run does."""

    SEED, K, TOTAL = 5, 2, 9

    #: ``(make(builder), network, inputs, quotient)``; gossip outputs its
    #: whole known set, so every state change shows in the outputs.
    CASES = {
        "gossip": (
            lambda b: GossipAlgorithm(),
            random_strongly_connected(6, seed=4), [3, 1, 4, 1, 5, 9], False,
        ),
        "outdegree-views": (
            lambda b: OutdegreeViewAlgorithm(b),
            random_strongly_connected(5, seed=2), [0, 1, 0, 0, 1], False,
        ),
        "symmetric-views": (
            lambda b: SymmetricViewAlgorithm(b, max_view_depth=6),
            random_symmetric_connected(6, seed=2), [1, 1, 0, 1, 0, 0], False,
        ),
        "history-tree": (
            lambda b: HistoryTreeAlgorithm(builder=b),
            random_dynamic_symmetric(5, seed=3), [3, 1, 1, 4, 1], False,
        ),
        "quotient-gossip": (
            lambda b: GossipAlgorithm(), directed_ring(8), [0, 1, 2, 3] * 2, True,
        ),
    }

    @staticmethod
    def advanced_stream(seed, draws=257):
        rng = random.Random(seed)
        for _ in range(draws):
            rng.random()
        version, internal, gauss_next = rng.getstate()
        return [version, list(internal), gauss_next]

    def run_case(self, name):
        make, network, inputs, quotient = self.CASES[name]

        def execution():
            return Execution(
                make(ViewBuilder()), network, inputs=inputs,
                scramble_seed=self.SEED, quotient=quotient,
            )

        straight = execution()
        expected = []
        for _ in range(self.TOTAL):
            straight.step()
            expected.append(straight.outputs())
        assert expected[self.K - 1] != expected[-1], "snapshot must precede stabilization"
        first = execution().run(self.K)
        assert getattr(first, "quotient_active", False) == quotient
        advanced = self.advanced_stream(self.SEED)
        snapshot = dataclasses.replace(first.snapshot(), rng_state=advanced)
        snapshot = Snapshot.from_bytes(snapshot.to_bytes())
        return make, network, execution, expected, snapshot, advanced

    def assert_resumes(self, resumed, expected, advanced):
        assert resumed.round_number == self.K
        assert resumed.outputs() == expected[self.K - 1]
        for r in range(self.K, self.TOTAL):
            resumed.step()
            assert resumed.outputs() == expected[r], f"round {r + 1} diverged"
        assert resumed.snapshot().rng_state == advanced  # drew nothing

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_restore_into_fresh_execution(self, name):
        _make, _network, execution, expected, snapshot, advanced = self.run_case(name)
        self.assert_resumes(execution().restore(snapshot), expected, advanced)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_resume_execution(self, name):
        make, network, _execution, expected, snapshot, advanced = self.run_case(name)
        resumed = resume_execution(snapshot, make(ViewBuilder()), network)
        assert getattr(resumed, "quotient_active", False) == self.CASES[name][3]
        self.assert_resumes(resumed, expected, advanced)


class TestSnapshotFiles:
    def test_write_read_round_trip(self, tmp_path):
        _, e = make_execution(rounds=3)
        snap = snapshot_execution(e)
        path = tmp_path / "ckpt.json"
        write_snapshot(path, snap)
        back = read_snapshot(path)
        assert back.states() == snap.states()
        # Atomic writes leave no temp residue behind.
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]

    def test_corrupt_file_raises_cleanly(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_bytes(b"{torn write")
        with pytest.raises(SnapshotIntegrityError):
            read_snapshot(path)

    def test_checkpointer_periodic_saves(self, tmp_path):
        g, e = make_execution(rounds=0)
        path = tmp_path / "ckpt.json"
        ckpt = e.checkpoint_to(path, every=3)
        e.run(7)
        assert ckpt.saved_rounds == [3, 6]
        assert read_snapshot(path).round_number == 6
        forced = ckpt.save()
        assert forced.round_number == 7
        assert read_snapshot(path).round_number == 7

    def test_checkpointer_rejects_bad_interval(self, tmp_path):
        _, e = make_execution()
        with pytest.raises(ValueError):
            Checkpointer(e, tmp_path / "x.json", every=0)

    def test_checkpoint_file_always_restorable(self, tmp_path):
        """The newest finished write is what's on disk; resuming from it
        matches the original trajectory from that round on."""
        g, e1 = make_execution(rounds=0)
        path = tmp_path / "ckpt.json"
        e1.checkpoint_to(path, every=2)
        e1.run(9)
        snap = read_snapshot(path)
        assert snap.round_number == 8
        e2 = resume_execution(snap, GossipAlgorithm(max), g)
        e2.run(1)
        assert e2.states == e1.states
        assert e2.round_number == 9


class TestVersionConstants:
    def test_current_versions_accepted(self):
        _, e = make_execution(rounds=1)
        snap = snapshot_execution(e)
        assert snap.codec_version == SNAPSHOT_CODEC_VERSION
        assert snap.engine_version == ENGINE_VERSION
        Snapshot.from_dict(snap.to_dict())  # must not raise
