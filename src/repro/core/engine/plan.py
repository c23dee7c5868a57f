"""Topology plans: a round's graph compiled to a flat delivery schedule.

The naive executor re-walks ``in_edges`` — and re-checks the §2.1
self-loop assumption edge by edge — every round, even on a static network
where the answer never changes.  A :class:`DeliveryPlan` does that walk
once and records the result as flat tuples the transport layer can
consume with nothing but list indexing:

* ``sources[j]`` — the source vertex of each in-edge of receiver ``j``,
  in in-edge order (the pre-scramble delivery order);
* ``source_ports[j]`` — the output port each of those edges occupies at
  its source (only the port-aware transport reads it, so it is built on
  first read);
* ``outdegrees[v]`` — ``d⁻(v)``, what outdegree-aware sending functions
  see;
* the model preconditions (``all_self_loops``, lazily ``symmetric``),
  hoisted out of the per-round loop.

Plans are immutable and graph-identity keyed: :class:`PlanCache` maps
``(id(graph), plan_epoch)`` to a compiled plan while holding a strong
reference to the graph (so the id cannot be recycled underneath the
cache) and evicts least-recently-used entries beyond its capacity —
which is exactly the invalidation a dynamic network that materializes a
fresh ``DiGraph`` per round needs.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Optional, Tuple

from repro.graphs.digraph import DiGraph
from repro.graphs.properties import is_symmetric


class DeliveryPlan:
    """One communication graph, compiled for repeated delivery."""

    __slots__ = (
        "graph",
        "n",
        "num_messages",
        "outdegrees",
        "sources",
        "_source_ports",
        "all_self_loops",
        "_symmetric",
        "_csr",
    )

    def __init__(self, graph: DiGraph):
        self.graph = graph
        n = graph.n
        self.n = n
        self.num_messages = graph.num_edges
        self.outdegrees: Tuple[int, ...] = tuple(map(graph.outdegree, range(n)))
        self.sources: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(graph.in_neighbors(j)) for j in range(n)
        )
        self._source_ports: Optional[Tuple[Tuple[int, ...], ...]] = None
        self.all_self_loops: bool = graph.all_have_self_loops()
        self._symmetric: Optional[bool] = None
        # Lazily attached by repro.core.engine.vector.csr_for: the same
        # delivery schedule as flat numpy index arrays.  Kept on the plan
        # so CSR compilation amortizes exactly like the plan itself does
        # (once per distinct graph).
        self._csr = None

    @property
    def source_ports(self) -> Tuple[Tuple[int, ...], ...]:
        """Per receiver, the output port of each in-edge at its source
        (built on first read: only output-port-aware sends consult it)."""
        if self._source_ports is None:
            self._source_ports = source_ports(self.graph)
        return self._source_ports

    @property
    def symmetric(self) -> bool:
        """Whether the compiled graph is symmetric (computed on first use:
        only the ``SYMMETRIC`` model ever asks)."""
        if self._symmetric is None:
            self._symmetric = is_symmetric(self.graph)
        return self._symmetric

    def __repr__(self) -> str:
        return f"DeliveryPlan(n={self.n}, messages={self.num_messages})"


def source_ports(graph: DiGraph) -> Tuple[Tuple[int, ...], ...]:
    """Per receiver of ``graph``, the output port of each in-edge at its
    source, in in-edge order."""
    port_of = graph.port_of
    return tuple(tuple(map(port_of, graph.in_edges(j))) for j in range(graph.n))


def compile_plan(graph: DiGraph) -> DeliveryPlan:
    """Compile ``graph`` into a fresh :class:`DeliveryPlan`."""
    return DeliveryPlan(graph)


class PlanCache:
    """LRU cache of compiled plans, shared across executions.

    Keys are ``(id(graph), epoch)``: graphs are immutable, so object
    identity is a sound cache key as long as the graph stays alive — the
    cache guarantees that by keeping each plan, and through its
    ``.graph`` the keyed graph, referenced.
    The ``epoch`` component is the owning dynamic graph's
    ``plan_epoch`` (see :class:`repro.dynamics.dynamic_graph.DynamicGraph`);
    bumping it retires every plan compiled under the old epoch without
    the cache having to know why.
    """

    def __init__(self, maxsize: int = 128):
        if maxsize < 1:
            raise ValueError("a plan cache needs room for at least one plan")
        self.maxsize = maxsize
        self._plans: "OrderedDict[Tuple[int, int], DeliveryPlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: Optional tracing callback ``hook(kind, plan, seconds)`` with
        #: ``kind`` in {"plan_hit", "plan_compile"} — see
        #: :meth:`repro.core.engine.trace.Tracer.on_plan_event`.  ``None``
        #: (the default) keeps the lookup path down to one attribute test.
        self.trace_hook = None

    def plan_for(self, graph: DiGraph, epoch: int = 0) -> DeliveryPlan:
        """The compiled plan for ``graph``, compiling on first sight."""
        key = (id(graph), epoch)
        plans = self._plans
        hook = self.trace_hook
        plan = plans.get(key)
        if plan is not None:
            self.hits += 1
            plans.move_to_end(key)
            if hook is not None:
                hook("plan_hit", plan, 0.0)
            return plan
        self.misses += 1
        if hook is None:
            plan = DeliveryPlan(graph)
        else:
            started = time.perf_counter()
            plan = DeliveryPlan(graph)
            hook("plan_compile", plan, time.perf_counter() - started)
        plans[key] = plan
        if len(plans) > self.maxsize:
            plans.popitem(last=False)
        return plan

    def invalidate(self, graph: DiGraph) -> None:
        """Drop every cached plan compiled from ``graph`` (any epoch)."""
        doomed = [key for key in self._plans if key[0] == id(graph)]
        for key in doomed:
            del self._plans[key]

    def clear(self) -> None:
        self._plans.clear()

    def __len__(self) -> int:
        return len(self._plans)

    def __repr__(self) -> str:
        return (
            f"PlanCache({len(self._plans)}/{self.maxsize} plans, "
            f"{self.hits} hits, {self.misses} misses)"
        )
