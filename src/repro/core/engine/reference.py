"""The naive reference interpreter: an executable specification.

This is (essentially) the pre-engine ``Execution.step()`` kept alive on
purpose: it re-derives the topology from ``in_edges`` every round,
re-dispatches on the algorithm flavor per vertex, and checks the model
preconditions edge by edge.  Two consumers rely on it:

* the engine-equivalence property tests, which assert that the compiled
  fast path and this interpreter produce bit-identical state
  trajectories across all five communication models, static and dynamic
  networks, with and without scrambling.  This interpreter scrambles
  every algorithm, whatever its
  :attr:`~repro.core.agent.Algorithm.receives` declaration, so those
  tests re-check each set or multiset declaration the engine relies on
  when it skips the shuffle;
* ``benchmarks/bench_engine.py``, which uses it (with
  ``legacy_scramble=True``, reinstating the old fresh-``Random``-per-
  agent-per-round seeding) as the "old executor" baseline for the
  rounds/sec comparison.

It deliberately shares no code with the engine layers beyond the agent
interfaces.
"""

from __future__ import annotations

import random
from typing import Any, List, Optional, Sequence, Union

from repro.core.agent import (
    Algorithm,
    BroadcastAlgorithm,
    OneBitAlgorithm,
    OutdegreeAlgorithm,
    OutputPortAlgorithm,
)
from repro.graphs.digraph import DiGraph
from repro.graphs.properties import is_symmetric
from repro.dynamics.dynamic_graph import DynamicGraph, StaticAsDynamic


class ReferenceExecution:
    """Single-layer round interpreter with the old executor's structure.

    ``legacy_scramble=True`` reproduces the pre-engine scramble schedule
    (a fresh ``random.Random(seed*1_000_003 + t*9973 + j)`` per agent per
    round); the default draws from one per-execution stream in
    ``(t, j)`` order, matching the engine bit for bit.
    """

    def __init__(
        self,
        algorithm: Algorithm,
        network: Union[DiGraph, DynamicGraph],
        inputs: Optional[Sequence[Any]] = None,
        initial_states: Optional[Sequence[Any]] = None,
        scramble_seed: Optional[int] = 0,
        check_model: bool = True,
        legacy_scramble: bool = False,
    ):
        self.algorithm = algorithm
        if isinstance(network, DiGraph):
            network = StaticAsDynamic(network)
        self.network = network
        self.n = network.n
        if initial_states is not None:
            self.states: List[Any] = list(initial_states)
        else:
            if inputs is None:
                raise ValueError("provide inputs or initial_states")
            self.states = [algorithm.initial_state(v) for v in inputs]
        if len(self.states) != self.n:
            raise ValueError(f"got {len(self.states)} states for {self.n} agents")
        self.round_number = 0
        self._scramble_seed = scramble_seed
        self._check_model = check_model
        self._legacy = legacy_scramble
        self._rng = (
            None
            if scramble_seed is None or legacy_scramble
            else random.Random(scramble_seed)
        )

    def _outgoing(self, g: DiGraph, v: int) -> Any:
        alg = self.algorithm
        d = g.outdegree(v)
        if isinstance(alg, OutputPortAlgorithm):
            msgs = list(alg.messages(self.states[v], d))
            if len(msgs) != d:
                raise ValueError(
                    f"{alg.name()} produced {len(msgs)} messages for outdegree {d}"
                )
            return msgs
        if isinstance(alg, OneBitAlgorithm):
            # Same contract as the engine's OneBitTransport, restated
            # independently (this interpreter shares no engine code):
            # booleans normalize, anything outside {0, 1} is rejected.
            b = alg.bit(self.states[v], d)
            if b is True or b is False:
                return int(b)
            if type(b) is int and b in (0, 1):
                return b
            raise ValueError(
                f"{alg.name()} emitted {b!r}; the one-bit broadcast "
                "model only carries 0 or 1"
            )
        if isinstance(alg, OutdegreeAlgorithm):
            return alg.message(self.states[v], d)
        if isinstance(alg, BroadcastAlgorithm):
            return alg.message(self.states[v])
        raise TypeError(f"unknown algorithm flavor: {type(alg).__name__}")

    def step(self) -> int:
        t = self.round_number + 1
        g = self.network.graph_at(t)
        if g.n != self.n:
            raise ValueError(f"round {t} graph has {g.n} vertices, expected {self.n}")
        if self._check_model:
            if not g.all_have_self_loops():
                raise ValueError(f"round {t} graph violates the self-loop assumption (§2.1)")
            if self.algorithm.model.requires_symmetric_network and not is_symmetric(g):
                raise ValueError(f"round {t} graph is not symmetric but the model requires it")

        outgoing = [self._outgoing(g, v) for v in range(self.n)]
        port_model = isinstance(self.algorithm, OutputPortAlgorithm)

        inboxes: List[List[Any]] = [[] for _ in range(self.n)]
        for j in range(self.n):
            for e in g.in_edges(j):
                payload = outgoing[e.source]
                if port_model:
                    payload = payload[g.port_of(e)]
                inboxes[j].append(payload)

        if self._scramble_seed is not None:
            for j in range(self.n):
                if self._legacy:
                    rng = random.Random(self._scramble_seed * 1_000_003 + t * 9973 + j)
                else:
                    rng = self._rng
                rng.shuffle(inboxes[j])

        self.states = [
            self.algorithm.transition(self.states[j], tuple(inboxes[j]))
            for j in range(self.n)
        ]
        self.round_number = t
        return t

    def run(self, rounds: int) -> "ReferenceExecution":
        for _ in range(rounds):
            self.step()
        return self

    def outputs(self) -> List[Any]:
        return [self.algorithm.output(s) for s in self.states]
