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

from repro.core import memo
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
        # (once per distinct graph, shared through the memo layer).
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
    cache guarantees that by keeping the graph referenced from its plan.
    The ``epoch`` component is the owning dynamic graph's
    ``plan_epoch`` (see :class:`repro.dynamics.dynamic_graph.DynamicGraph`);
    bumping it retires every plan compiled under the old epoch without
    the cache having to know why.
    """

    def __init__(self, maxsize: int = 128):
        if maxsize < 1:
            raise ValueError("a plan cache needs room for at least one plan")
        self.maxsize = maxsize
        # key -> (graph, plan).  The graph reference is load-bearing: the
        # key is id(graph), and entries adopted from the memo layer carry
        # a plan whose ``.graph`` is a content-equal *twin* — without the
        # explicit reference the keyed graph could be collected and its
        # id recycled by an unrelated graph, turning a stale entry into a
        # wrong answer.
        self._plans: "OrderedDict[Tuple[int, int], Tuple[DiGraph, DeliveryPlan]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: Optional tracing callback ``hook(kind, plan, seconds)`` with
        #: ``kind`` in {"plan_hit", "plan_compile"} — see
        #: :meth:`repro.core.engine.trace.Tracer.on_plan_event`.  ``None``
        #: (the default) keeps the lookup path down to one attribute test.
        self.trace_hook = None

    def plan_for(self, graph: DiGraph, epoch: int = 0) -> DeliveryPlan:
        """The compiled plan for ``graph``, compiling on first sight.

        On an identity miss, graphs that already carry a content
        fingerprint (interned or manifested ones — anonymous graphs pay
        one attribute test and nothing more) are looked up in the
        process-wide memo layer, which can hand back a plan compiled from
        a content-equal twin; only if that also misses is a new plan
        compiled, and then published back to the memo.
        """
        key = (id(graph), epoch)
        plans = self._plans
        hook = self.trace_hook
        entry = plans.get(key)
        if entry is not None:
            self.hits += 1
            plans.move_to_end(key)
            plan = entry[1]
            if hook is not None:
                hook("plan_hit", plan, 0.0)
            return plan
        if graph._fingerprint is not None:
            plan = memo.cached_plan(graph)
            if plan is not None:
                # A content hit: adopt the memoized plan under this
                # graph's identity so the next round is a plain hit.
                self.hits += 1
                plans[key] = (graph, plan)
                if len(plans) > self.maxsize:
                    plans.popitem(last=False)
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
        plans[key] = (graph, plan)
        if len(plans) > self.maxsize:
            plans.popitem(last=False)
        memo.store_plan(graph, plan)
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
