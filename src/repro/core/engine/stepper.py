"""The engine stepper: plan lookup, transport, transition, observation.

This is the round loop behind the public
:class:`repro.core.execution.Execution` façade.  Per round it

1. asks the network for round ``t``'s graph and the :class:`PlanCache`
   for its compiled :class:`DeliveryPlan` (a dictionary hit on static
   networks);
2. enforces the model preconditions off the plan's precomputed flags;
3. runs the flavor-resolved transport (sending + delivery);
4. scrambles each inbox from the single per-execution RNG stream, unless
   the algorithm reads its inbox as a set or multiset
   (:attr:`~repro.core.agent.Algorithm.receives`);
5. applies the transition function and, only if observers are attached,
   emits a :class:`RoundRecord`.
"""

from __future__ import annotations

import random
import time
from typing import Any, List, Optional, Sequence

from repro.core.agent import Algorithm, receives_of
from repro.core.engine.instrumentation import RoundObserver, RoundRecord
from repro.core.engine.plan import PlanCache
from repro.core.engine.transport import transport_for
from repro.dynamics.dynamic_graph import DynamicGraph


class EngineStepper:
    """Drives one execution's rounds over the layered engine."""

    __slots__ = (
        "algorithm",
        "network",
        "n",
        "states",
        "round_number",
        "check_model",
        "plan_cache",
        "transport",
        "observers",
        "_scramble",
    )

    def __init__(
        self,
        algorithm: Algorithm,
        network: DynamicGraph,
        states: Sequence[Any],
        scramble_seed: Optional[int] = 0,
        check_model: bool = True,
        plan_cache: Optional[PlanCache] = None,
        observers: Optional[Sequence[RoundObserver]] = None,
    ):
        self.algorithm = algorithm
        self.network = network
        self.n = network.n
        self.states: List[Any] = list(states)
        self.round_number = 0
        self.check_model = check_model
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self.transport = transport_for(algorithm)
        self.observers: List[RoundObserver] = list(observers or ())
        # A set or multiset reader cannot see inbox order: it holds no stream.
        unordered = receives_of(type(algorithm)) in ("set", "multiset")
        self._scramble = (
            None if unordered or scramble_seed is None else random.Random(scramble_seed)
        )

    def step(self) -> int:
        """Run one full round; returns the new round number."""
        t = self.round_number + 1
        network = self.network
        g = network.graph_at(t)
        if g.n != self.n:
            raise ValueError(f"round {t} graph has {g.n} vertices, expected {self.n}")
        plan = self.plan_cache.plan_for(g, getattr(network, "plan_epoch", 0))
        if self.check_model:
            if not plan.all_self_loops:
                raise ValueError(
                    f"round {t} graph violates the self-loop assumption (§2.1)"
                )
            if self.algorithm.model.requires_symmetric_network and not plan.symmetric:
                raise ValueError(
                    f"round {t} graph is not symmetric but the model requires it"
                )

        observers = self.observers
        started = time.perf_counter() if observers else 0.0

        transport = self.transport
        algorithm = self.algorithm
        outgoing = transport.outgoing(algorithm, self.states, plan)
        inboxes = transport.deliver(plan, outgoing)

        rng = self._scramble
        if rng is not None:
            shuffle = rng.shuffle
            for inbox in inboxes:
                shuffle(inbox)

        transition = algorithm.transition
        old_states = self.states
        self.states = [
            transition(old_states[j], tuple(inboxes[j])) for j in range(self.n)
        ]
        self.round_number = t

        if observers:
            record = RoundRecord(
                round_number=t,
                plan=plan,
                algorithm=algorithm,
                outgoing=outgoing,
                inboxes=inboxes,
                states=tuple(self.states),
                wall_seconds=time.perf_counter() - started,
            )
            for observer in observers:
                observer.on_round(record)
        return t

    def run(self, rounds: int) -> "EngineStepper":
        for _ in range(rounds):
            self.step()
        return self

    def attach(self, observer: RoundObserver) -> None:
        self.observers.append(observer)

    def detach(self, observer: RoundObserver) -> None:
        self.observers.remove(observer)
