"""Dynamic graphs ``𝔾 = (𝔾(t))_{t ≥ 1}`` (Section 2.1).

A dynamic graph is an infinite sequence of directed graphs over a fixed
vertex set, with a self-loop at every vertex in every round.  We model it
as an object answering :meth:`graph_at` for every round ``t ≥ 1``; concrete
subclasses wrap a static graph, a finite sequence, a period, or a callable.
"""

from __future__ import annotations

import abc
from typing import Callable, List, Sequence

from repro.graphs.digraph import DiGraph


class DynamicGraph(abc.ABC):
    """A fixed vertex set with a communication graph per round."""

    #: Number of agents (constant over time).
    n: int

    @abc.abstractmethod
    def graph_at(self, t: int) -> DiGraph:
        """The communication graph of round ``t`` (``t ≥ 1``)."""

    def _check_round(self, t: int) -> None:
        if t < 1:
            raise ValueError(f"rounds are numbered from 1, got {t}")

    def window(self, start: int, length: int) -> List[DiGraph]:
        """The graphs of rounds ``start .. start+length-1``."""
        return [self.graph_at(start + k) for k in range(length)]

    # ------------------------------------------------------------------ #
    # compiled-plan invalidation (the engine's plan layer)
    # ------------------------------------------------------------------ #

    @property
    def plan_epoch(self) -> int:
        """Generation counter for compiled delivery plans.

        The engine (:mod:`repro.core.engine.plan`) caches each round
        graph's compiled delivery schedule keyed by ``(graph identity,
        plan_epoch)``.  The returned graphs are immutable, so the epoch
        only ever changes through :meth:`invalidate_plans` — a subclass
        (or a user reconfiguring one, e.g. changing a loss rate mid-run)
        calls it to retire every plan compiled so far.
        """
        return getattr(self, "_plan_epoch", 0)

    def invalidate_plans(self) -> int:
        """Retire all compiled plans for this network; returns the new epoch."""
        self._plan_epoch = self.plan_epoch + 1
        return self._plan_epoch


class StaticAsDynamic(DynamicGraph):
    """A static network viewed as the constant dynamic graph."""

    def __init__(self, graph: DiGraph):
        self.graph = graph
        self.n = graph.n

    def graph_at(self, t: int) -> DiGraph:
        self._check_round(t)
        return self.graph

    def __repr__(self) -> str:
        return f"StaticAsDynamic({self.graph!r})"


class SequenceDynamicGraph(DynamicGraph):
    """A finite prefix of graphs, then the last one forever."""

    def __init__(self, graphs: Sequence[DiGraph]):
        if not graphs:
            raise ValueError("need at least one graph")
        ns = {g.n for g in graphs}
        if len(ns) != 1:
            raise ValueError(f"all rounds must share the vertex set, got sizes {sorted(ns)}")
        self.graphs = list(graphs)
        self.n = graphs[0].n

    def graph_at(self, t: int) -> DiGraph:
        self._check_round(t)
        return self.graphs[min(t - 1, len(self.graphs) - 1)]


class PeriodicDynamicGraph(DynamicGraph):
    """Cycles through a finite list of graphs forever."""

    def __init__(self, graphs: Sequence[DiGraph]):
        if not graphs:
            raise ValueError("need at least one graph")
        ns = {g.n for g in graphs}
        if len(ns) != 1:
            raise ValueError(f"all rounds must share the vertex set, got sizes {sorted(ns)}")
        self.graphs = list(graphs)
        self.n = graphs[0].n

    def graph_at(self, t: int) -> DiGraph:
        self._check_round(t)
        return self.graphs[(t - 1) % len(self.graphs)]


class FunctionDynamicGraph(DynamicGraph):
    """A dynamic graph defined by an arbitrary (deterministic) callable.

    The callable must be a pure function of ``t`` — the executor may query
    the same round more than once.  Results are memoized.
    """

    def __init__(self, n: int, fn: Callable[[int], DiGraph]):
        self.n = n
        self._fn = fn
        self._cache: dict = {}

    def graph_at(self, t: int) -> DiGraph:
        self._check_round(t)
        if t not in self._cache:
            g = self._fn(t)
            if g.n != self.n:
                raise ValueError(f"round {t} produced a graph on {g.n} != {self.n} vertices")
            self._cache[t] = g
        return self._cache[t]

    def invalidate_plans(self) -> int:
        """Also drop the memoized graphs: a bumped epoch means the
        callable's output is no longer trusted to be the same."""
        self._cache.clear()
        return super().invalidate_plans()
