"""The synchronous round executor (Section 2.2).

In each round ``t = 1, 2, ...`` every agent (a) applies the sending
function to generate messages, (b) receives the messages carried by the
in-edges of ``𝔾(t)``, and (c) applies the transition function.  The
executor enforces the declared communication model: an algorithm is handed
*exactly* the information its model allows — nothing for simple broadcast,
the current outdegree for outdegree awareness, per-port fan-out for output
port awareness — and delivers each agent's inbox as
:attr:`~repro.core.agent.Algorithm.receives` declares.

This module is the thin public façade over the layered engine of
:mod:`repro.core.engine`: topology plans (compiled, cached delivery
schedules), flavor-resolved transports, the round stepper, and
round-level instrumentation hooks.  The constructor signature and the
round-for-round state trajectories are those of the original monolithic
executor; the engine just reaches them faster.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Union

from repro.core.agent import Algorithm
from repro.core.engine.instrumentation import RoundObserver
from repro.core.engine.plan import PlanCache
from repro.core.engine.stepper import EngineStepper
from repro.core.metrics import canonical_repr
from repro.graphs.digraph import DiGraph
from repro.dynamics.dynamic_graph import DynamicGraph, StaticAsDynamic


class Execution:
    """One execution of an algorithm on a network.

    Parameters
    ----------
    algorithm:
        The anonymous algorithm run (identically) by every agent.
    network:
        A static :class:`DiGraph` or a :class:`DynamicGraph`.
    inputs:
        One private input value per agent; ``initial_state`` is applied to
        each.  Ignored when ``initial_states`` is given.
    initial_states:
        Explicit initial local states — the self-stabilization entry point
        (arbitrary initialization, §2.2).
    scramble_seed:
        Seed of the per-execution scramble stream (inboxes are shuffled in
        ``(round, receiver)`` order from one RNG).  ``None`` disables
        scrambling (messages arrive in in-edge order) — useful only for
        debugging.  It has no effect on an algorithm that reads its inbox
        as a set or multiset (:attr:`~repro.core.agent.Algorithm.receives`).
    check_model:
        Verify per round that the network satisfies the model's class
        constraints (symmetry for ``SYMMETRIC``, staticity for
        ``OUTPUT_PORT_AWARE``).

    The quotient and vector backends
    (:class:`~repro.core.engine.quotient.QuotientExecution`,
    :class:`~repro.core.engine.vector.VectorExecution`) subclass this
    façade with the same constructor and trajectory;
    :func:`~repro.core.engine.batch.select_backend` picks one.
    """

    def __init__(
        self,
        algorithm: Algorithm,
        network: Union[DiGraph, DynamicGraph],
        inputs: Optional[Sequence[Any]] = None,
        initial_states: Optional[Sequence[Any]] = None,
        scramble_seed: Optional[int] = 0,
        check_model: bool = True,
    ):
        self.algorithm = algorithm
        if isinstance(network, DiGraph):
            self.network: DynamicGraph = StaticAsDynamic(network)
            self._static = True
        else:
            self.network = network
            self._static = isinstance(network, StaticAsDynamic)
        self.n = self.network.n
        if initial_states is not None:
            if len(initial_states) != self.n:
                raise ValueError(f"got {len(initial_states)} states for {self.n} agents")
            states: List[Any] = list(initial_states)
        else:
            if inputs is None:
                raise ValueError("provide inputs or initial_states")
            if len(inputs) != self.n:
                raise ValueError(f"got {len(inputs)} inputs for {self.n} agents")
            states = [algorithm.initial_state(v) for v in inputs]
        self._scramble_seed = scramble_seed
        self._check_model = check_model
        model = algorithm.model
        if check_model and model.static_only and not self._static:
            raise ValueError(f"{model} is only meaningful on static networks (§2.2)")
        self._stepper = EngineStepper(
            algorithm,
            self.network,
            states,
            scramble_seed=scramble_seed,
            check_model=check_model,
        )

    # ------------------------------------------------------------------ #
    # engine plumbing
    # ------------------------------------------------------------------ #

    @property
    def states(self) -> List[Any]:
        """The current local states ``q_1 .. q_n``."""
        return self._stepper.states

    @states.setter
    def states(self, new_states: Sequence[Any]) -> None:
        self._stepper.states = list(new_states)

    @property
    def round_number(self) -> int:
        return self._stepper.round_number

    @property
    def plan_cache(self) -> PlanCache:
        """The compiled-delivery-plan cache backing this execution."""
        return self._stepper.plan_cache

    def share_plan_cache(self, cache: PlanCache) -> "Execution":
        """Adopt a shared cache so executions on the same graphs reuse
        compiled plans (the batch runner does this automatically)."""
        self._stepper.plan_cache = cache
        return self

    @property
    def observers(self) -> List[RoundObserver]:
        return self._stepper.observers

    def attach(self, observer: RoundObserver) -> "Execution":
        """Attach a round-level observer (see
        :mod:`repro.core.engine.instrumentation`); returns ``self``."""
        self._stepper.attach(observer)
        return self

    def detach(self, observer: RoundObserver) -> "Execution":
        self._stepper.detach(observer)
        return self

    # ------------------------------------------------------------------ #
    # the round loop
    # ------------------------------------------------------------------ #

    def step(self) -> int:
        """Run one full round; returns the new round number."""
        return self._stepper.step()

    def run(self, rounds: int) -> "Execution":
        """Advance ``rounds`` rounds; returns ``self`` for chaining."""
        for _ in range(rounds):
            self._stepper.step()
        return self

    # ------------------------------------------------------------------ #

    def outputs(self) -> List[Any]:
        """Current output variables ``x_1 .. x_n``."""
        output = self.algorithm.output
        return [output(s) for s in self._stepper.states]

    def unanimous_output(self) -> Any:
        """The common output if all agents agree, else ``None``.

        Agreement is ``==`` with a :func:`~repro.core.metrics.canonical_repr`
        fallback for unorderable or exotic payloads.  (Plain ``repr``
        comparison would be wrong for sets: two equal frozensets may
        iterate — hence print — in different orders depending on insertion
        history and hash seed; the canonicalizer sorts them first.)

        Outputs are read one agent at a time, and reading stops once the
        answer is known: at once when the first output is ``None``, and at
        the first agent that disagrees.  An agent whose state *is* the
        first agent's state object is not read again (the vector engine
        hands one state object to every agent holding the same packed
        row), so a unanimous round of such states costs one ``output``
        call.  An ``output`` that raises is raised only when it is
        reached.
        """
        states = self.states
        output = self.algorithm.output
        first_state = states[0]
        first = output(first_state)
        if first is None:
            return None
        first_canonical: Optional[str] = None
        for state in states[1:]:
            if state is first_state:
                continue
            o = output(state)
            try:
                if o == first:
                    continue
            except Exception:
                pass
            if first_canonical is None:
                first_canonical = canonical_repr(first)
            if canonical_repr(o) != first_canonical:
                return None
            # canonically equal but not ==: treat as agreeing (e.g. NaN
            # payloads, or equal sets whose == is shadowed).
        return first

    def __repr__(self) -> str:
        return (
            f"Execution({self.algorithm.name()}, n={self.n}, "
            f"round={self.round_number})"
        )
