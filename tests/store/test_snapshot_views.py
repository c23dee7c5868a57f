"""Snapshot restore of view-based executions resumes every round exactly.

View-exchange and history-tree states hold hash-consed views whose uids
index the algorithm's :class:`~repro.graphs.views.ViewBuilder`, and the
builder memoizes bases and solves by uid.  A restored state is an
unpickled copy: unless restore re-interns it, its uids name other views
of the target builder.  Each case here runs one computation straight
through on a private builder, and a second copy that is snapshotted
before it stabilizes, serialized, and restored into an execution on a
fresh builder, on a builder warm from another computation, or on the
snapshotting builder itself.  The restored round, and every round after
it, must output what the straight run output.
"""

import pytest

from repro.algorithms.frequency_static import StaticFunctionAlgorithm
from repro.algorithms.history_tree import HistoryTreeAlgorithm
from repro.core.execution import Execution
from repro.core.models import CommunicationModel as CM
from repro.core.network_class import Knowledge
from repro.dynamics.generators import random_dynamic_symmetric
from repro.functions.library import AVERAGE, SUM
from repro.graphs.builders import random_strongly_connected, random_symmetric_connected
from repro.graphs.views import ViewBuilder
from repro.store.snapshot import Snapshot

KNOWLEDGE = [Knowledge.NONE, Knowledge.EXACT_N, Knowledge.LEADER]
INTO = ["fresh", "warm", "origin"]


def static_case(model, knowledge):
    n = 6
    graph = (random_symmetric_connected if model is CM.SYMMETRIC else random_strongly_connected)(
        n, seed=2
    )
    values = [3, 1, 1, 4, 1, 5]
    f = AVERAGE if knowledge is Knowledge.NONE else SUM

    def make(builder=None):
        return StaticFunctionAlgorithm(
            f, model, knowledge=knowledge, n=n, leader_count=1, builder=builder
        )

    return make, graph, values, 6, 30


def history_case(knowledge):
    n = 5
    values = [3, 1, 1, 4, 1]

    def make(builder=None):
        return HistoryTreeAlgorithm(
            knowledge=knowledge, n=n, leader_count=1, f=AVERAGE, builder=builder
        )

    return make, random_dynamic_symmetric(n, seed=3), values, 3, 40


def with_leader(values, knowledge):
    if knowledge is not Knowledge.LEADER:
        return values
    return [(v, i == 0) for i, v in enumerate(values)]


def assert_restore_resumes_every_round(case, knowledge, into):
    make, network, values, k, total = case
    inputs = with_leader(values, knowledge)

    straight = Execution(make(), network, inputs=inputs)
    expected = []
    for _ in range(total):
        straight.step()
        expected.append(straight.outputs())
    assert expected[k - 1] != expected[-1], "snapshot must precede stabilization"
    assert None not in expected[-1]

    first = Execution(make(), network, inputs=inputs)
    first.run(k)
    snapshot = Snapshot.from_bytes(first.snapshot().to_bytes())

    if into == "fresh":
        builder = ViewBuilder()
    elif into == "warm":
        # Another computation fills the intern table and the memo, so the
        # snapshot's uids all name other views here.
        builder = ViewBuilder()
        other = Execution(make(builder), network, inputs=inputs[::-1])
        for _ in range(total):
            other.step()
            other.outputs()
    else:
        builder = first.algorithm.builder
    resumed = Execution(make(builder), network, inputs=inputs).restore(snapshot)
    assert resumed.round_number == k
    assert resumed.outputs() == expected[k - 1], "restored states read wrong"
    for r in range(k, total):
        resumed.step()
        assert resumed.outputs() == expected[r], f"round {r + 1} diverged"


class TestViewStateRestore:
    @pytest.mark.parametrize("into", INTO)
    @pytest.mark.parametrize("knowledge", KNOWLEDGE, ids=lambda k: k.value)
    @pytest.mark.parametrize(
        "model", [CM.OUTDEGREE_AWARE, CM.SYMMETRIC, CM.OUTPUT_PORT_AWARE], ids=lambda m: m.value
    )
    def test_static_function(self, model, knowledge, into):
        assert_restore_resumes_every_round(static_case(model, knowledge), knowledge, into)

    @pytest.mark.parametrize("into", INTO)
    @pytest.mark.parametrize("knowledge", KNOWLEDGE, ids=lambda k: k.value)
    def test_history_tree(self, knowledge, into):
        assert_restore_resumes_every_round(history_case(knowledge), knowledge, into)
