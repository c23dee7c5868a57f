"""Quotient-accelerated execution: run the minimum base, lift on demand.

Lemma 3.1 (the Lifting lemma) says executions lift along fibrations: if
``φ : G -> B`` is a fibration and an algorithm runs on ``B`` from a base
configuration, then copying every base vertex's trajectory across its
fibre *is* an execution on ``G`` — round for round, bit for bit.  For a
symmetric graph with a small minimum base (a 2^16-vertex hypercube has a
one-vertex base) that collapses the per-round cost from ``O(n + m)`` to
the size of the base.

:class:`QuotientExecution` is that lemma made operational.  It exposes
the full :class:`~repro.core.execution.Execution` façade but, when the
*activation checks* pass, drives a private base-graph execution and lifts
the state vector lazily via
:func:`~repro.fibrations.lifting.lift_global_state` only when someone
actually reads ``states`` / ``outputs``.

Activation decides on class lists before it builds anything.  The
initial states are pushed down onto the equitable partition of the
graph; when they are not constant on its classes, onto the partition of
the graph valued by their canonical reprs, which shares the graph's edge
structure (and with it the refiner's per-edge-structure cache).  The
size checks read the class count.  Only a run that will execute on the
base then quotients the class list it holds: one quotient and one
checked fibration per activation, none per fallback.

Activation does not consult the content memo (:mod:`repro.core.memo`)
and hashes no graph: each run refines the graph it was given.  A grid
run builds each network once and runs it once, so a content key would
cost about what the refinement it might save does; the runs that could
share one, table probes under ``REPRO_QUOTIENT=1``, refine graphs of a
handful of vertices.

Activation falls back to plain direct execution (same trajectory, no
speedup, ``quotient_active == False``) whenever the lemma does not apply
or would not pay.  The checks run in this order, and the first failure
names the fallback:

* the network is dynamic (bases would change per round);
* the model is ``OUTPUT_PORT_AWARE`` (port numberings do not commute
  with fibrations, so per-port sends on the base are not faithful);
* the model is not *outdegree-message-preserving*
  (:attr:`~repro.core.models.CommunicationModel.outdegree_message_preserving`
  is ``False`` — today exactly ``ONE_BIT_BROADCAST``): the bit-width
  restriction is a channel property the quotient layer does not assume
  to commute with fibrations, so one-bit runs always take this checked
  fallback instead of activating;
* the initial configuration is not constant on the classes even after
  refining by it (:func:`~repro.fibrations.lifting.pushdown_by_classes`
  raises; only unequal states whose canonical reprs collide get here) —
  such a configuration is outside the image of the lift;
* the base is trivial (as many classes as vertices), or ``base.n / g.n``
  is above :data:`QUOTIENT_RATIO`;
* the model sees outdegrees but the fibration does not preserve them
  (``outdeg_G(v) != outdeg_B(φ(v))`` for some ``v``);
* ``check_model`` is requested and the *full* graph violates the model's
  preconditions (self-loops, symmetry for ``SYMMETRIC``) — the direct
  stepper then raises exactly as it always did.  Note the checks must run
  on ``G``: the base of a symmetric graph need not be symmetric (a star's
  base is an asymmetric two-vertex graph), so the base execution itself
  always runs with ``check_model=False``.

One behavioral caveat is inherent: a base run delivers (and scrambles)
each inbox in a different order than a full-graph run, so quotient and
direct trajectories are bit-identical exactly when the transition
ignores inbox order — what a set or multiset declaration
(:attr:`~repro.core.agent.Algorithm.receives`) asserts.  The property
suite pins the bit-identity on such algorithms across all four
communication models.

Module-level counters (``quotient_stats`` / ``publish_quotient_metrics``)
mirror the memo layer's: activations, fallbacks by reason, and lazy
lifts, so ``python -m repro trace`` and the provenance manifests can
report how much of a workload actually rode the quotient.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.core.execution import Execution
from repro.graphs.digraph import DiGraph

#: Activation threshold: fall back when base.n/g.n exceeds this.  It
#: decides only which runs activate, never an output.
QUOTIENT_RATIO = 0.5

_STATS: Dict[str, int] = {"activations": 0, "fallbacks": 0, "lifts": 0}
_FALLBACK_REASONS: Dict[str, int] = {}


def clear_quotient_stats() -> None:
    """Zero the counters (tests and benchmarks)."""
    for key in _STATS:
        _STATS[key] = 0
    _FALLBACK_REASONS.clear()


def quotient_stats() -> Dict[str, Any]:
    """Process-local counters: activations, fallbacks (by reason), lifts."""
    return {
        "activations": _STATS["activations"],
        "fallbacks": _STATS["fallbacks"],
        "lifts": _STATS["lifts"],
        "fallback_reasons": dict(sorted(_FALLBACK_REASONS.items())),
    }


def publish_quotient_metrics(registry, baseline: Optional[Dict[str, Any]] = None) -> None:
    """Fold quotient counters into a ``MetricsRegistry``
    (``quotient_activations`` / ``quotient_fallbacks`` / ``quotient_lifts``),
    scoped to the delta since ``baseline`` (a prior :func:`quotient_stats`)."""
    base = baseline or {}
    stats = quotient_stats()
    for name in ("activations", "fallbacks", "lifts"):
        registry.counter(f"quotient_{name}").inc(stats[name] - base.get(name, 0))


def _record_fallback(reason: str) -> str:
    _STATS["fallbacks"] += 1
    _FALLBACK_REASONS[reason] = _FALLBACK_REASONS.get(reason, 0) + 1
    return reason


class QuotientExecution(Execution):
    """An :class:`Execution` that transparently runs on the minimum base.

    Construct it directly, or through
    :func:`~repro.core.engine.batch.select_backend`.  The full façade
    behaves exactly like a direct execution; ``quotient_active`` reports
    whether the activation checks passed, ``quotient_fallback_reason``
    names the first one that failed, ``base_execution`` and
    ``minimum_base`` expose the machinery for inspection.
    """

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.minimum_base = None
        self.base_execution: Optional[Execution] = None
        self.quotient_fallback_reason: Optional[str] = None
        self._lifted_round = 0  # full stepper holds the round-0 states
        self._activate()

    # ------------------------------------------------------------------ #
    # activation
    # ------------------------------------------------------------------ #

    def _activate(self) -> None:
        """Run the activation checks; on success build the base execution.

        The decision is made on class lists: the initial states are
        pushed down onto the equitable partition of the graph and, when
        they are not constant on its classes, of the graph valued by the
        states.  Only a run that passes the size checks builds a
        quotient, and it builds exactly one, from the class list already
        held.
        """
        from repro.core.metrics import canonical_repr
        from repro.fibrations.lifting import pushdown_by_classes
        from repro.fibrations.minimum_base import equitable_partition, quotient_by_partition
        from repro.graphs.properties import is_symmetric

        model = self.algorithm.model
        if not self._static:
            self.quotient_fallback_reason = _record_fallback("dynamic-network")
            return
        if model.static_only:
            # OUTPUT_PORT_AWARE: port numberings need not commute with the
            # fibration, so per-port sends on the base are not faithful.
            self.quotient_fallback_reason = _record_fallback("output-port-model")
            return
        if not model.outdegree_message_preserving:
            # ONE_BIT_BROADCAST: the single-bit channel restriction is not
            # assumed faithful across a fibration, so the quotient layer
            # never activates for it — the conservative checked fallback.
            self.quotient_fallback_reason = _record_fallback(
                "model-not-message-preserving"
            )
            return
        graph: DiGraph = self.network.graph_at(1)
        states = self._stepper.states
        source = graph
        classes = equitable_partition(graph)
        try:
            base_states = pushdown_by_classes(classes, states)
        except ValueError:
            # The initial configuration is not constant on the value-free
            # base's fibres — but it may still have lift structure.  Refine:
            # the partition of the graph *valued by the initial states*
            # (joined with any existing values) is the coarsest equitable
            # partition on which the configuration IS fibrewise-constant.
            # States join as canonical reprs: the partition only needs
            # their equality classes, and reprs keep arbitrary state
            # payloads out of the graph fingerprint.
            keys = [canonical_repr(state) for state in states]
            source = graph.with_values(
                keys if graph.values is None else list(zip(graph.values, keys))
            )
            classes = equitable_partition(source)
            try:
                base_states = pushdown_by_classes(classes, states)
            except ValueError:
                # Unequal states whose canonical reprs collide share a
                # class; no base can carry them.
                self.quotient_fallback_reason = _record_fallback(
                    "inputs-not-fibrewise-constant"
                )
                return
        base_n = len(base_states)
        if base_n >= graph.n:
            self.quotient_fallback_reason = _record_fallback("trivial-base")
            return
        if base_n / graph.n > QUOTIENT_RATIO:
            self.quotient_fallback_reason = _record_fallback("base-too-large")
            return
        # The refiner certified the partition decided on above.
        mb = quotient_by_partition(source, classes, verify=False)
        if model.sees_outdegree and any(
            graph.outdegree(v) != mb.base.outdegree(mb.classes[v])
            for v in graph.vertices()
        ):
            # The base quotients by in-neighborhoods; outdegrees need not
            # survive, and when they don't the base run would hand the
            # sending function the wrong ``d``.
            self.quotient_fallback_reason = _record_fallback("outdegree-not-preserved")
            return
        if self._check_model:
            # Model preconditions are properties of the FULL graph; the
            # base may satisfy them vacuously (or violate them) even when
            # G does the opposite, so check G here and run the base
            # unchecked.  On violation, fall back: the direct stepper
            # raises the canonical error at the first step.
            if not graph.all_have_self_loops():
                self.quotient_fallback_reason = _record_fallback("model-violation")
                return
            if model.requires_symmetric_network and not is_symmetric(graph):
                self.quotient_fallback_reason = _record_fallback("model-violation")
                return
        self.minimum_base = mb
        self.base_execution = Execution(
            self.algorithm,
            mb.base,
            initial_states=base_states,
            scramble_seed=self._scramble_seed,
            check_model=False,
        )
        _STATS["activations"] += 1

    # ------------------------------------------------------------------ #
    # façade: delegate to the base run when active
    # ------------------------------------------------------------------ #

    @property
    def quotient_active(self) -> bool:
        """Whether this run actually executes on the minimum base."""
        return self.base_execution is not None

    @property
    def base_n(self) -> int:
        """Vertices actually simulated per round (``n`` when inactive)."""
        return self.minimum_base.base.n if self.quotient_active else self.n

    def _lift(self) -> None:
        """Refresh the cached full state vector from the base run."""
        base = self.base_execution
        if self._lifted_round != base.round_number:
            from repro.fibrations.lifting import lift_global_state

            self._stepper.states = lift_global_state(
                self.minimum_base.fibration, base.states
            )
            self._stepper.round_number = base.round_number
            self._lifted_round = base.round_number
            _STATS["lifts"] += 1

    @property
    def states(self) -> List[Any]:
        if self.quotient_active:
            self._lift()
        return self._stepper.states

    @states.setter
    def states(self, new_states: Sequence[Any]) -> None:
        if self.quotient_active:
            from repro.fibrations.lifting import pushdown_valuation

            # Raises when the new configuration is not fibrewise-constant
            # — such a configuration cannot be reached by any base run.
            base_states = pushdown_valuation(self.minimum_base.fibration, list(new_states))
            self.base_execution.states = base_states
            self._lifted_round = self.base_execution.round_number
        self._stepper.states = list(new_states)

    @property
    def round_number(self) -> int:
        if self.quotient_active:
            return self.base_execution.round_number
        return self._stepper.round_number

    @property
    def plan_cache(self):
        if self.quotient_active:
            return self.base_execution.plan_cache
        return self._stepper.plan_cache

    def share_plan_cache(self, cache) -> "QuotientExecution":
        if self.quotient_active:
            self.base_execution.share_plan_cache(cache)
        else:
            self._stepper.plan_cache = cache
        return self

    @property
    def observers(self):
        if self.quotient_active:
            return self.base_execution.observers
        return self._stepper.observers

    def attach(self, observer) -> "QuotientExecution":
        if self.quotient_active:
            # Observers ride the base run: they see base-sized rounds
            # (that is the whole point) with the true round numbering.
            self.base_execution.attach(observer)
        else:
            self._stepper.attach(observer)
        return self

    def detach(self, observer) -> "QuotientExecution":
        if self.quotient_active:
            self.base_execution.detach(observer)
        else:
            self._stepper.detach(observer)
        return self

    def step(self) -> int:
        if self.quotient_active:
            return self.base_execution.step()
        return self._stepper.step()

    def run(self, rounds: int) -> "QuotientExecution":
        if self.quotient_active:
            self.base_execution.run(rounds)
        else:
            super().run(rounds)
        return self

    def outputs(self) -> List[Any]:
        if self.quotient_active:
            from repro.fibrations.lifting import lift_valuation

            output = self.algorithm.output
            base_outputs = [output(s) for s in self.base_execution.states]
            return lift_valuation(self.minimum_base.fibration, base_outputs)
        return super().outputs()

    def unanimous_output(self) -> Any:
        if self.quotient_active:
            # The fibration is surjective, so unanimity on the base IS
            # unanimity on the full graph.
            return self.base_execution.unanimous_output()
        return super().unanimous_output()

    def __repr__(self) -> str:
        if self.quotient_active:
            return (
                f"QuotientExecution({self.algorithm.name()}, n={self.n}, "
                f"base_n={self.base_n}, round={self.round_number})"
            )
        return (
            f"QuotientExecution({self.algorithm.name()}, n={self.n}, "
            f"fallback={self.quotient_fallback_reason!r}, round={self.round_number})"
        )
