"""The tracer's ring buffer: wraparound, lazy decode, atomic export.

The pre-PR-7 tracer appended one ``TraceEvent`` object (a dict of Python
scalars) per round, which made tracing-on runs ~19x slower than
untraced ones and let the event list grow without bound.  Rounds now
land in a preallocated structured-array ring decoded lazily at read
time; these tests pin the observable semantics of that change — the
:attr:`Tracer.events` view itself is already covered by the pre-existing
trace suite, which runs unchanged.
"""

import json
import os
from pathlib import Path

import pytest

from repro.algorithms import GossipAlgorithm, PushSumAlgorithm
from repro.core.engine.trace import (
    DEFAULT_RING_CAPACITY,
    Tracer,
    events_from_jsonl,
    trace_execution,
)
from repro.core.execution import Execution
from repro.graphs.builders import bidirectional_ring, random_strongly_connected


def _traced_run(rounds, ring_capacity=DEFAULT_RING_CAPACITY, n=6):
    g = random_strongly_connected(n, seed=1)
    ex = Execution(PushSumAlgorithm(), g, inputs=[float(v + 1) for v in range(n)])
    tracer = Tracer(ring_capacity=ring_capacity)
    trace_execution(ex, rounds=rounds, tracer=tracer)
    return tracer


class TestRingBuffer:
    def test_no_wraparound_below_capacity(self):
        tracer = _traced_run(10, ring_capacity=16)
        assert tracer.dropped_rounds == 0
        rounds = tracer.round_events()
        assert [e.round for e in rounds] == list(range(1, 11))

    def test_wraparound_keeps_last_k(self):
        tracer = _traced_run(25, ring_capacity=8)
        assert tracer.dropped_rounds == 17
        rounds = tracer.round_events()
        assert [e.round for e in rounds] == list(range(18, 26))

    def test_wraparound_exact_boundary(self):
        tracer = _traced_run(8, ring_capacity=8)
        assert tracer.dropped_rounds == 0
        assert [e.round for e in tracer.round_events()] == list(range(1, 9))

    def test_events_interleave_plan_and_round_in_order(self):
        tracer = _traced_run(5)
        kinds = [e.kind for e in tracer.events]
        # One compile for the static graph, then the rounds.
        assert kinds[0] == "plan_compile"
        assert kinds[1:] == ["round"] * 5

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(ring_capacity=0)

    def test_decoded_fields_are_plain_python(self):
        # int64/float64 leak from the structured array unless decoded;
        # json.dumps is the arbiter (np.int64 is not serializable).
        tracer = _traced_run(3)
        for event in tracer.events:
            json.dumps(event.to_dict())

    def test_residuals_off_decodes_none(self):
        g = bidirectional_ring(5)
        ex = Execution(GossipAlgorithm(max), g, inputs=list(range(5)))
        tracer = Tracer(residuals=False)
        trace_execution(ex, rounds=3, tracer=tracer)
        assert all(e.fields["residual"] is None for e in tracer.round_events())

    def test_events_view_is_fresh_per_read(self):
        tracer = _traced_run(4)
        first = tracer.events
        first.clear()
        assert len(tracer.events) == 4 + 1  # rounds + plan compile

    def test_ring_survives_pickle(self):
        import pickle

        tracer = _traced_run(6, ring_capacity=4)
        clone = pickle.loads(pickle.dumps(tracer))
        assert clone.dropped_rounds == tracer.dropped_rounds
        assert [e.to_dict() for e in clone.events] == [
            e.to_dict() for e in tracer.events
        ]


class TestExportJsonl:
    def test_roundtrip(self, tmp_path):
        tracer = _traced_run(7, ring_capacity=4)
        path = str(tmp_path / "trace.jsonl")
        assert tracer.export_jsonl(path, manifest={"kind": "test"}) == path
        manifest, events = events_from_jsonl(Path(path).read_text())
        assert manifest == {"kind": "test"}
        assert events[-1].kind == "summary"
        decoded_rounds = [e for e in events if e.kind == "round"]
        assert [e.to_dict() for e in decoded_rounds] == [
            e.to_dict() for e in tracer.round_events()
        ]

    def test_without_summary(self, tmp_path):
        tracer = _traced_run(3)
        path = str(tmp_path / "trace.jsonl")
        tracer.export_jsonl(path, include_summary=False)
        _, events = events_from_jsonl(Path(path).read_text())
        assert all(e.kind != "summary" for e in events)

    def test_crash_mid_export_leaves_previous_file(self, tmp_path, monkeypatch):
        tracer = _traced_run(3)
        path = str(tmp_path / "trace.jsonl")
        tracer.export_jsonl(path)
        before = Path(path).read_text()

        # Fault injection: the atomic rename step dies.  The export goes
        # tempfile-then-replace, so the original must be untouched.
        real_replace = os.replace

        def exploding_replace(src, dst):
            if str(dst) == path:
                raise OSError("disk on fire")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            _traced_run(9).export_jsonl(path)
        assert Path(path).read_text() == before
