"""The grid path runs on integer edge arrays alone.

A ``DiGraph`` builds its ``Edge`` records and its port numbering only
when something reads them.  A ``gossip-max`` grid unit — graph build,
plan compile, CSR lowering, quotient activation, the δ0 detector — reads
neither, under any engine.  An output-port run, which does read ports,
still reads the ones ``port_of`` gives.
"""

import pytest

from repro.core.agent import OutputPortAlgorithm
from repro.core.engine import BatchJob, EngineFlags, PlanCache, run_batch
from repro.core.engine.plan import DeliveryPlan
from repro.core.engine.quotient import clear_quotient_stats, quotient_stats
from repro.core.engine.reference import ReferenceExecution
from repro.core.engine.vector import csr_for
from repro.graphs.builders import random_strongly_connected
from repro.graphs.digraph import Edge
from repro.scenarios import run_scenario, validate_scenario

ENGINES = {
    "object": {"quotient": False, "vector": False},
    "vector": {"quotient": False, "vector": True},
    "quotient": {"quotient": True, "vector": False},
}


def unit(engine):
    return validate_scenario(
        {
            "scenario": "no-records",
            "kind": "grid",
            "model": "simple broadcast",
            "rounds": 140,
            "seeds": [1],
            "graphs": [{"family": "complete", "sizes": [32]}],
            "probes": ["gossip-max"],
            "inputs": "one-hot",
            "engine": engine,
        }
    )


@pytest.fixture
def counted(monkeypatch):
    """Counts ``Edge`` constructions and keeps every compiled plan."""
    seen = {"records": 0, "plans": []}
    edge_init, plan_init = Edge.__init__, DeliveryPlan.__init__

    def counting_edge(self, *args, **kwargs):
        seen["records"] += 1
        edge_init(self, *args, **kwargs)

    def keeping_plan(self, graph):
        plan_init(self, graph)
        seen["plans"].append(self)

    monkeypatch.setattr(Edge, "__init__", counting_edge)
    monkeypatch.setattr(DeliveryPlan, "__init__", keeping_plan)
    return seen


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_gossip_unit_builds_no_records_and_no_ports(name, counted):
    clear_quotient_stats()
    document = run_scenario(unit(ENGINES[name]))
    assert document["summary"]["verdict"] == "PASS"
    assert counted["records"] == 0
    plans = counted["plans"]
    assert plans
    assert all(plan._source_ports is None for plan in plans)
    csrs = [plan._csr for plan in plans if plan._csr is not None]
    assert all(csr._ports is None for csr in csrs)
    # Each engine took its own path, so the checks above covered it.
    assert bool(csrs) == (name == "vector")
    assert (quotient_stats()["activations"] > 0) == (name == "quotient")


class PortShift(OutputPortAlgorithm):
    """Port ``p`` carries ``state + p``; a vertex keeps the largest."""

    def initial_state(self, input_value):
        return input_value

    def messages(self, state, outdegree):
        return [state + p for p in range(outdegree)]

    def transition(self, state, received):
        return max(state, max(received))

    def output(self, state):
        return state


def test_output_port_run_reads_port_of():
    g = random_strongly_connected(7, seed=4)
    expected = tuple(tuple(g.port_of(e) for e in g.in_edges(j)) for j in g.vertices())
    cache = PlanCache()
    (result,) = run_batch(
        [BatchJob(PortShift(), g, inputs=[0] * 7, rounds=3)],
        plan_cache=cache,
        engine=EngineFlags(quotient=False, vector=False),
    )
    plan = cache.plan_for(g)
    assert plan.source_ports == expected
    assert list(csr_for(plan).ports) == [p for ports in expected for p in ports]
    # The reference interpreter reads port_of edge by edge.
    reference = ReferenceExecution(PortShift(), g, inputs=[0] * 7)
    for _ in range(3):
        reference.step()
    assert result.execution.states == reference.states

