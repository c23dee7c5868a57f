"""Random dynamic graphs with certified finite dynamic diameter."""

from __future__ import annotations

from repro.graphs.builders import (
    random_strongly_connected,
    random_symmetric_connected,
)
from repro.graphs.digraph import DiGraph
from repro.dynamics.dynamic_graph import DynamicGraph, FunctionDynamicGraph


def random_dynamic_symmetric(
    n: int, seed: int = 0, extra_edge_prob: float = 0.2
) -> DynamicGraph:
    """Each round an independent random *connected symmetric* graph.

    Connectivity in every round bounds the dynamic diameter by ``n - 1``
    (one new vertex is reached per round along a connected graph).
    """

    def fn(t: int) -> DiGraph:
        return random_symmetric_connected(n, extra_edge_prob, seed=hash((seed, t)) & 0x7FFFFFFF)

    return FunctionDynamicGraph(n, fn)


def random_dynamic_strongly_connected(
    n: int, seed: int = 0, extra_edge_prob: float = 0.2
) -> DynamicGraph:
    """Each round an independent random strongly connected digraph.

    Strong connectivity every round bounds the dynamic diameter by ``n - 1``.
    """

    def fn(t: int) -> DiGraph:
        return random_strongly_connected(n, extra_edge_prob, seed=hash((seed, t)) & 0x7FFFFFFF)

    return FunctionDynamicGraph(n, fn)


def sparse_pulsed_dynamic(
    n: int,
    pulse_every: int = 3,
    seed: int = 0,
    symmetric: bool = True,
    extra_edge_prob: float = 0.2,
) -> DynamicGraph:
    """Mostly-silent rounds with a connected "pulse" every ``pulse_every`` rounds.

    Off-pulse rounds have only self-loops (agents are mutually isolated),
    so individual rounds are badly disconnected, yet the dynamic diameter
    is finite (at most ``pulse_every · (n - 1) + pulse_every``).  This is
    the paper's point that with ``D ≥ 2`` "some intermediate graphs in any
    period of length D may be disconnected (e.g., with only self-loops)".
    """
    if pulse_every < 1:
        raise ValueError("pulse_every must be >= 1")
    quiet = DiGraph(n, [], ensure_self_loops=True)
    build = random_symmetric_connected if symmetric else random_strongly_connected

    def fn(t: int) -> DiGraph:
        if t % pulse_every == 0:
            return build(n, extra_edge_prob, seed=hash((seed, t)) & 0x7FFFFFFF)
        return quiet

    return FunctionDynamicGraph(n, fn)
