"""The vector backend: whole rounds as numpy gather/scatter kernels.

The object engine (:mod:`repro.core.engine.stepper`) dispatches Python
per vertex per round — message construction, inbox lists, a transition
call each — which is exactly the cost profile the dynamic-network tables
multiply by thousands of rounds.  For the algorithm families whose round
update is a *segment reduction over in-edges* (set flooding, Push-Sum
and its vector/frequency variants, Metropolis averaging — the workloads
of the paper's Tables 1/2 and of the related average-computation and
polynomial-counting lines), the whole round is instead three array ops:

1. **gather** each in-edge's payload from its source vertex,
2. **segment-reduce** per receiver (``np.bincount`` / masked scatter),
3. apply the (vectorized) transition to the reduced columns.

:class:`CSRPlan` is the delivery schedule of a compiled
:class:`~repro.core.engine.plan.DeliveryPlan` re-expressed as flat index
arrays (CSR over receivers), cached on the plan object so it amortizes
exactly as plans do — once per distinct round graph, shared through the
memo layer by content fingerprint.

:class:`VectorExecution` is the façade: construct it directly, or pick
it with ``EngineFlags(vector=True)`` or ``REPRO_VECTOR=1`` through
:func:`~repro.core.engine.batch.select_backend`.  At construction it
resolves a :class:`VectorKernel` for the algorithm from the registry
(:func:`register_kernel` / :func:`kernel_for`) and packs the state
vector; every ``step`` then runs entirely in numpy, and the object-level
states materialize lazily only when somebody reads ``states`` /
``outputs``.  Whenever no kernel applies — an exotic automaton, an
overridden transition, numpy missing, unpackable states — it falls back
transparently to the object stepper (``vector_active == False``,
``vector_fallback_reason`` says why), so results are identical either
way and the flag is always safe to set.

**Faithfulness contract.**  A registered kernel must compute the *same
round function* as the algorithm's ``transition`` up to two inherent
caveats, both pinned by the property suite in
``tests/property/test_vector_properties.py``:

* kernels see inboxes in in-edge order and reduce them associatively,
  so they are faithful exactly for transitions that ignore inbox order
  (:attr:`~repro.core.agent.Algorithm.receives`; the same caveat as
  quotient execution).  The vector path draws nothing from the
  execution's scramble RNG.
* float reductions may associate differently than the object engine's
  left-to-right sums, so trajectories agree bit-for-bit for exact
  (integer/set) kernels and within :func:`repro.analysis.impossibility.
  outputs_match` tolerance for floating-point ones.

With observers attached, each round additionally materializes the
object-level record (outgoing payloads, inboxes, new states) through the
ordinary transport so tracers see the same
:class:`~repro.core.engine.instrumentation.RoundRecord` fields they
would on the object path — observed rounds cost object-engine time;
unobserved rounds run at vector speed.

Module counters (:func:`vector_stats` / :func:`publish_vector_metrics`)
mirror the quotient layer's: activations, fallbacks by reason, and how
many rounds actually ran vectorized.
"""

from __future__ import annotations

import time
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Sequence, Type

try:  # numpy ships as the ``vector`` extra; everything else works without it.
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image bundles numpy
    _np = None

from repro.core.agent import Algorithm
from repro.core.engine.instrumentation import RoundRecord
from repro.core.engine.plan import DeliveryPlan, source_ports
from repro.core.execution import Execution
from repro.core.metrics import canonical_repr

_STATS: Dict[str, int] = {
    "activations": 0,
    "fallbacks": 0,
    "vector_rounds": 0,
    "observed_rounds": 0,
}
_FALLBACK_REASONS: Dict[str, int] = {}


def numpy_available() -> bool:
    """Whether numpy imported (the backend is inert without it)."""
    return _np is not None


def clear_vector_stats() -> None:
    """Zero the counters (tests and benchmarks)."""
    for key in _STATS:
        _STATS[key] = 0
    _FALLBACK_REASONS.clear()


def vector_stats() -> Dict[str, Any]:
    """Process-local counters: activations, fallbacks (by reason), and
    round counts split into vectorized vs observer-materialized."""
    return {
        "activations": _STATS["activations"],
        "fallbacks": _STATS["fallbacks"],
        "vector_rounds": _STATS["vector_rounds"],
        "observed_rounds": _STATS["observed_rounds"],
        "fallback_reasons": dict(sorted(_FALLBACK_REASONS.items())),
    }


def publish_vector_metrics(registry, baseline: Optional[Dict[str, Any]] = None) -> None:
    """Fold vector counters into a ``MetricsRegistry`` (``vector_*``),
    scoped to the delta since ``baseline`` (a prior :func:`vector_stats`)."""
    base = baseline or {}
    stats = vector_stats()
    for name in ("activations", "fallbacks", "vector_rounds", "observed_rounds"):
        registry.counter(f"vector_{name}").inc(stats[name] - base.get(name, 0))


def _record_fallback(reason: str) -> str:
    _STATS["fallbacks"] += 1
    _FALLBACK_REASONS[reason] = _FALLBACK_REASONS.get(reason, 0) + 1
    return reason


# ---------------------------------------------------------------------- #
# CSR plans
# ---------------------------------------------------------------------- #

class CSRPlan:
    """A :class:`DeliveryPlan` as flat numpy index arrays.

    Receiver-major CSR over in-edges: edge ``e`` in ``indptr[j]:indptr[j+1]``
    is the ``e``-th in-edge of receiver ``j``, in in-edge (pre-scramble)
    order.  ``targets`` repeats each receiver once per in-edge so the
    scatter side of a kernel is one ``np.bincount(targets, weights=...)``.
    ``ports`` (each in-edge's output port at its source) is built on first
    read: only port-aware kernels consult it.
    """

    __slots__ = (
        "n",
        "num_messages",
        "indptr",
        "sources",
        "targets",
        "outdegrees",
        "indegrees",
        "_graph",
        "_ports",
    )

    def __init__(self, plan: DeliveryPlan):
        np = _np
        n = plan.n
        self.n = n
        self.num_messages = plan.num_messages
        counts = np.fromiter(map(len, plan.sources), dtype=np.int64, count=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        self.indptr = indptr
        m = int(indptr[-1])
        self.sources = np.fromiter(chain.from_iterable(plan.sources), dtype=np.int64, count=m)
        self.targets = np.repeat(np.arange(n, dtype=np.int64), counts)
        self.outdegrees = np.asarray(plan.outdegrees, dtype=np.int64)
        self.indegrees = counts
        # The graph, not the plan: the plan holds this object, and a
        # reference back would make the pair a cycle only the collector
        # frees.
        self._graph = plan.graph
        self._ports = None

    @property
    def ports(self):
        """Each in-edge's output port at its source, in CSR order."""
        if self._ports is None:
            self._ports = _np.fromiter(
                chain.from_iterable(source_ports(self._graph)),
                dtype=_np.int64,
                count=self.num_messages,
            )
        return self._ports

    def __repr__(self) -> str:
        return f"CSRPlan(n={self.n}, messages={self.num_messages})"


def csr_for(plan: DeliveryPlan) -> CSRPlan:
    """The CSR arrays of ``plan``, built on first use and cached on it."""
    csr = plan._csr
    if csr is None:
        csr = plan._csr = CSRPlan(plan)
    return csr


# ---------------------------------------------------------------------- #
# kernels and their registry
# ---------------------------------------------------------------------- #

class VectorKernel:
    """One algorithm's round function, vectorized.

    A kernel owns the packed representation of the whole state vector
    (any numpy-friendly object) and three operations:

    * :meth:`pack` — object states -> packed array(s); raise ``ValueError``
      (or ``TypeError``/``KeyError``) on states outside the representable
      set, which makes the execution fall back rather than miscompute;
    * :meth:`unpack` — packed -> the *exact* list of object states the
      object engine would hold (bit-for-bit for exact kernels);
    * :meth:`step` — one full round (send + deliver + transition) over a
      :class:`CSRPlan`; must be inbox-order-invariant and must mirror the
      object engine's error behavior (e.g. raise ``ZeroDivisionError``
      where a sending function would divide by a zero outdegree).
    """

    def __init__(self, algorithm: Algorithm):
        self.algorithm = algorithm

    def pack(self, states: Sequence[Any]):
        raise NotImplementedError

    def unpack(self, packed) -> List[Any]:
        raise NotImplementedError

    def step(self, packed, csr: CSRPlan):
        raise NotImplementedError


#: algorithm class -> factory(algorithm) -> kernel (or None to decline).
_KERNEL_FACTORIES: Dict[Type[Algorithm], Callable[[Algorithm], Optional[VectorKernel]]] = {}
_BUILTINS_LOADED = False


def register_kernel(algorithm_cls: Type[Algorithm]):
    """Class decorator registering a kernel factory for ``algorithm_cls``.

    The factory receives the algorithm instance and returns a
    :class:`VectorKernel` — or ``None`` to decline (e.g. an unsupported
    parameterization).  Registration covers subclasses too, but only
    *faithful* ones: a subclass that overrides any of ``initial_state`` /
    ``message`` / ``messages`` / ``transition`` no longer matches the
    registered round function and is skipped by :func:`kernel_for`.
    """

    def decorator(factory):
        _KERNEL_FACTORIES[algorithm_cls] = factory
        return factory

    return decorator


_ROUND_FUNCTION_METHODS = ("initial_state", "message", "messages", "transition")


def _faithful_subclass(actual: type, registered: type) -> bool:
    """Whether ``actual`` inherits the registered class's round function
    unchanged (overriding ``model`` or ``output`` is fine — kernels never
    reimplement those)."""
    for name in _ROUND_FUNCTION_METHODS:
        if getattr(actual, name, None) is not getattr(registered, name, None):
            return False
    return True


def _ensure_builtin_kernels() -> None:
    """Import the library algorithms once so their kernels register.

    Lazy on purpose: this module sits inside the engine package, and the
    algorithm library imports the engine — importing it at module load
    would cycle."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    from repro.algorithms import gossip, metropolis, push_sum, push_sum_frequency

    register_kernel(gossip.GossipAlgorithm)(GossipKernel)
    register_kernel(push_sum.PushSumAlgorithm)(PushSumKernel)
    register_kernel(push_sum.VectorPushSumAlgorithm)(VectorPushSumKernel)
    register_kernel(metropolis.MetropolisAlgorithm)(MetropolisKernel)
    register_kernel(push_sum_frequency.PushSumFrequencyAlgorithm)(FrequencyKernel)


def kernel_for(algorithm: Algorithm) -> Optional[VectorKernel]:
    """Resolve a kernel for ``algorithm`` (``None`` when nothing applies).

    The registry is consulted along the algorithm's MRO, nearest class
    first; an entry on a base class only applies when the subclass keeps
    the registered round function (see :func:`register_kernel`).
    """
    if _np is None:
        return None
    _ensure_builtin_kernels()
    for cls in type(algorithm).__mro__:
        factory = _KERNEL_FACTORIES.get(cls)
        if factory is None:
            continue
        if cls is not type(algorithm) and not _faithful_subclass(type(algorithm), cls):
            return None
        return factory(algorithm)
    return None


def _require_positive_outdegrees(csr: CSRPlan) -> None:
    """Sending functions that split mass divide by the outdegree; mirror
    the object engine's ``ZeroDivisionError`` on outdegree-0 vertices
    (impossible under the §2.1 self-loop assumption, reachable only with
    ``check_model=False``)."""
    if int(csr.outdegrees.min(initial=1)) == 0:
        raise ZeroDivisionError("division by zero outdegree in sending function")


def _universe(values) -> List[Any]:
    """The distinct ``values`` in canonical order: one column each.

    Raises ``ValueError`` (so the execution falls back) when two values
    compare equal but are spelled differently — ``1``, ``1.0`` and
    ``True``, or ``0.0`` and ``-0.0``: one column cannot give each agent
    back the spelling its object-level union would keep.
    """
    spellings: Dict[Any, str] = {}
    for value in values:
        spelled = canonical_repr(value)
        if spellings.setdefault(value, spelled) != spelled:
            raise ValueError(
                f"values {spellings[value]} and {spelled} are equal but spelled differently"
            )
    return [value for value, _ in sorted(spellings.items(), key=lambda item: item[1])]


# -- set flooding (simple broadcast / symmetric) ------------------------ #

class GossipKernel(VectorKernel):
    """Exact kernel for :class:`~repro.algorithms.gossip.GossipAlgorithm`.

    States are frozensets over the finite value domain actually present;
    the packed form is a boolean membership matrix ``(n, |universe|)``
    whose round update is an OR-scatter along in-edges.  Values flood
    monotonically, so the pack-time universe (the union of the current
    states) is closed under every future round — bit-for-bit exact.
    """

    def __init__(self, algorithm):
        super().__init__(algorithm)
        self.universe: List[Any] = []

    def pack(self, states):
        np = _np
        # TypeError on non-set states -> fallback
        self.universe = _universe(value for state in states for value in state)
        index = {value: i for i, value in enumerate(self.universe)}
        packed = np.zeros((len(states), len(self.universe)), dtype=bool)
        for j, state in enumerate(states):
            for value in state:
                packed[j, index[value]] = True
        return packed

    def unpack(self, packed):
        # Agents with equal rows share one frozenset: a set-broadcast
        # round holds at most 2^|universe| distinct states however large
        # n is, so a read builds one set per class, not one per agent.
        np = _np
        if packed.shape[1] == 0:  # a zero-byte row key has no void view
            return [frozenset()] * len(packed)
        keys = np.packbits(packed, axis=1)
        keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel().tolist()
        universe = self.universe
        classes: Dict[bytes, frozenset] = {}
        states = []
        for j, key in enumerate(keys):
            state = classes.get(key)
            if state is None:
                state = classes[key] = frozenset(universe[i] for i in packed[j].nonzero()[0])
            states.append(state)
        return states

    def step(self, packed, csr):
        np = _np
        # Broadcast sends the state itself; delivery ORs the senders'
        # membership rows into each receiver (self-loops keep the old
        # state in exactly the same way the object transition does).
        received = np.zeros_like(packed)
        np.logical_or.at(received, csr.targets, packed[csr.sources])
        return packed | received


# -- Push-Sum (outdegree-aware) ----------------------------------------- #

class PushSumKernel(VectorKernel):
    """Float kernel for :class:`~repro.algorithms.push_sum.PushSumAlgorithm`:
    states ``(y, z)`` pack to an ``(n, 2)`` float64 array; the round is a
    divide-by-outdegree gather and a per-receiver ``bincount`` sum."""

    def pack(self, states):
        np = _np
        packed = np.array([(float(y), float(z)) for (y, z) in states], dtype=np.float64)
        packed = packed.reshape(len(states), 2)
        return packed

    def unpack(self, packed):
        return [(float(y), float(z)) for y, z in packed]

    def step(self, packed, csr):
        np = _np
        _require_positive_outdegrees(csr)
        shares = packed / csr.outdegrees[:, None]
        gathered = shares[csr.sources]
        n = csr.n
        y = np.bincount(csr.targets, weights=gathered[:, 0], minlength=n)
        z = np.bincount(csr.targets, weights=gathered[:, 1], minlength=n)
        return np.stack([y, z], axis=1)


class VectorPushSumKernel(VectorKernel):
    """Kernel for :class:`~repro.algorithms.push_sum.VectorPushSumAlgorithm`
    (ℝᵏ estimates): ``y`` packs to ``(n, k)``, ``z`` to ``(n,)``."""

    def __init__(self, algorithm):
        super().__init__(algorithm)
        self.k: Optional[int] = None

    def pack(self, states):
        np = _np
        ys = [state[0] for state in states]
        k = len(ys[0])
        if any(len(y) != k for y in ys):
            raise ValueError("ragged vector push-sum states")
        self.k = k
        y = np.array([[float(c) for c in row] for row in ys], dtype=np.float64)
        z = np.array([float(state[1]) for state in states], dtype=np.float64)
        return (y.reshape(len(states), k), z)

    def unpack(self, packed):
        y, z = packed
        return [
            (tuple(float(c) for c in row), float(w)) for row, w in zip(y, z)
        ]

    def step(self, packed, csr):
        np = _np
        _require_positive_outdegrees(csr)
        y, z = packed
        d = csr.outdegrees[:, None].astype(np.float64)
        shares_y = (y / d)[csr.sources]
        shares_z = (z / csr.outdegrees)[csr.sources]
        n = csr.n
        new_y = np.empty_like(y)
        for i in range(y.shape[1]):
            new_y[:, i] = np.bincount(csr.targets, weights=shares_y[:, i], minlength=n)
        new_z = np.bincount(csr.targets, weights=shares_z, minlength=n)
        return (new_y, new_z)


# -- Metropolis averaging ----------------------------------------------- #

class MetropolisKernel(VectorKernel):
    """Kernel for :class:`~repro.algorithms.metropolis.MetropolisAlgorithm`.

    The object transition removes one copy of the agent's own ``(x, deg)``
    message before folding neighbors in; since that copy's contribution
    is ``weight · (x - x) = 0``, folding over *all* in-edges (self-loop
    included) computes the same update — which is what lets the kernel be
    a single weighted scatter.
    """

    def pack(self, states):
        np = _np
        return np.array([float(state[0]) for state in states], dtype=np.float64)

    def unpack(self, packed):
        return [(float(x),) for x in packed]

    def step(self, packed, csr):
        np = _np
        x = packed
        sent_deg = csr.outdegrees - 1  # the (x, deg) message's deg field
        my_deg = csr.indegrees - 1  # len(received) - 1 at each receiver
        xj = x[csr.sources]
        degj = sent_deg[csr.sources]
        myd = my_deg[csr.targets]
        scale = 2.0 if self.algorithm.lazy else 1.0
        weight = 1.0 / (scale * (1.0 + np.maximum(myd, degj)))
        contrib = weight * (xj - x[csr.targets])
        return x + np.bincount(csr.targets, weights=contrib, minlength=csr.n)


# -- per-value Push-Sum (frequencies / multisets) ----------------------- #

class FrequencyKernel(VectorKernel):
    """Kernel for :class:`~repro.algorithms.push_sum_frequency.
    PushSumFrequencyAlgorithm`.

    State ``(unit, {ω: (y, z)})`` packs over the fixed universe of values
    present at pack time (per-value instances only ever spread existing
    values, so the universe is closed under the round function).  A
    boolean ``known`` mask tracks table membership; the join semantics —
    the retained unit enters circulation exactly once, on first hearing
    of ω — is the masked update ``z += unit`` where ``~known & heard``.
    """

    def __init__(self, algorithm):
        super().__init__(algorithm)
        self.universe: List[Any] = []

    def pack(self, states):
        np = _np
        self.universe = _universe(value for _unit, table in states for value in table)
        index = {value: i for i, value in enumerate(self.universe)}
        n, width = len(states), len(self.universe)
        unit = np.zeros(n, dtype=np.float64)
        y = np.zeros((n, width), dtype=np.float64)
        z = np.zeros((n, width), dtype=np.float64)
        known = np.zeros((n, width), dtype=bool)
        for j, (u, table) in enumerate(states):
            unit[j] = float(u)
            for value, (yv, zv) in table.items():
                i = index[value]
                y[j, i] = float(yv)
                z[j, i] = float(zv)
                known[j, i] = True
        return {"unit": unit, "y": y, "z": z, "known": known}

    def unpack(self, packed):
        universe = self.universe
        states = []
        for u, yr, zr, kr in zip(packed["unit"], packed["y"], packed["z"], packed["known"]):
            table = {
                universe[i]: (float(yr[i]), float(zr[i])) for i in kr.nonzero()[0]
            }
            states.append((float(u), table))
        return states

    def step(self, packed, csr):
        np = _np
        _require_positive_outdegrees(csr)
        unit, y, z, known = packed["unit"], packed["y"], packed["z"], packed["known"]
        d = csr.outdegrees[:, None].astype(np.float64)
        # A sender's message carries shares exactly for its table keys;
        # unknown entries hold (0, 0) and known=False masks them out of
        # the heard/count accounting below.
        shares_y = np.where(known, y, 0.0) / d
        shares_z = np.where(known, z, 0.0) / d
        src = csr.sources
        tgt = csr.targets
        new_y = np.zeros_like(y)
        new_z = np.zeros_like(z)
        heard = np.zeros_like(known)
        np.add.at(new_y, tgt, shares_y[src])
        np.add.at(new_z, tgt, shares_z[src])
        np.logical_or.at(heard, tgt, known[src])
        joining = heard & ~known
        new_z += unit[:, None] * joining
        return {
            "unit": unit,
            "y": new_y,
            "z": new_z,
            "known": known | heard,
        }


# ---------------------------------------------------------------------- #
# the execution façade
# ---------------------------------------------------------------------- #

class VectorExecution(Execution):
    """An :class:`Execution` whose rounds run as numpy kernels.

    Construct it directly, or through
    :func:`~repro.core.engine.batch.select_backend`.  The full façade
    behaves exactly like a direct execution; ``vector_active`` reports
    whether a kernel was resolved and the states packed,
    ``vector_fallback_reason`` names the first activation check that
    failed, ``kernel`` exposes the live kernel for inspection.
    """

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.kernel: Optional[VectorKernel] = None
        self.vector_fallback_reason: Optional[str] = None
        self._packed = None
        self._vector_round = 0
        self._synced_round = 0  # round whose states the stepper holds
        self._activate()

    # -- activation ----------------------------------------------------- #

    def _activate(self) -> None:
        if _np is None:
            self.vector_fallback_reason = _record_fallback("numpy-unavailable")
            return
        kernel = kernel_for(self.algorithm)
        if kernel is None:
            self.vector_fallback_reason = _record_fallback("no-kernel")
            return
        try:
            packed = kernel.pack(self._stepper.states)
        except (TypeError, ValueError, KeyError, AttributeError, IndexError):
            # States outside the kernel's representable set (exotic
            # payloads handed via initial_states): run them objectwise.
            self.vector_fallback_reason = _record_fallback("pack-failed")
            return
        self.kernel = kernel
        self._packed = packed
        _STATS["activations"] += 1

    @property
    def vector_active(self) -> bool:
        """Whether rounds actually run through a kernel."""
        return self.kernel is not None

    # -- state synchronization ------------------------------------------ #

    def _materialize(self) -> None:
        """Refresh the object-level state vector from the packed one."""
        if self.vector_active and self._synced_round != self._vector_round:
            self._stepper.states = self.kernel.unpack(self._packed)
            self._stepper.round_number = self._vector_round
            self._synced_round = self._vector_round

    def _repack(self) -> None:
        """Adopt the stepper's states/round into the packed vector (the
        ``states`` setter calls this after assigning them)."""
        if not self.vector_active:
            return
        try:
            self._packed = self.kernel.pack(self._stepper.states)
        except (TypeError, ValueError, KeyError, AttributeError, IndexError):
            # The new configuration left the representable set (e.g. a
            # corrupted-state experiment): demote to the object path.
            self.kernel = None
            self._packed = None
            self.vector_fallback_reason = _record_fallback("pack-failed")
            return
        self._vector_round = self._stepper.round_number
        self._synced_round = self._stepper.round_number

    @property
    def states(self) -> List[Any]:
        self._materialize()
        return self._stepper.states

    @states.setter
    def states(self, new_states: Sequence[Any]) -> None:
        self._stepper.states = list(new_states)
        if self.vector_active:
            # New states keep the round number, as on the object path.
            self._stepper.round_number = self._vector_round
            self._repack()

    @property
    def round_number(self) -> int:
        if self.vector_active:
            return self._vector_round
        return self._stepper.round_number

    # -- the round loop ------------------------------------------------- #

    def step(self) -> int:
        if not self.vector_active:
            return self._stepper.step()
        t = self._vector_round + 1
        network = self.network
        g = network.graph_at(t)
        if g.n != self.n:
            raise ValueError(f"round {t} graph has {g.n} vertices, expected {self.n}")
        plan = self._stepper.plan_cache.plan_for(g, getattr(network, "plan_epoch", 0))
        if self._check_model:
            if not plan.all_self_loops:
                raise ValueError(
                    f"round {t} graph violates the self-loop assumption (§2.1)"
                )
            if self.algorithm.model.requires_symmetric_network and not plan.symmetric:
                raise ValueError(
                    f"round {t} graph is not symmetric but the model requires it"
                )
        csr = csr_for(plan)
        observers = self._stepper.observers
        if observers:
            return self._observed_step(t, plan, csr, observers)
        self._packed = self.kernel.step(self._packed, csr)
        self._vector_round = t
        _STATS["vector_rounds"] += 1
        return t

    def _observed_step(self, t: int, plan, csr, observers) -> int:
        """One round with the object-level record materialized.

        Outgoing payloads and inboxes come from the ordinary transport on
        the synchronized states (identical messages — the kernel computes
        the same sends), the new states from the kernel; the
        :class:`RoundRecord` observers receive carries both.  Inboxes
        appear in in-edge order: the vector path never consumes the
        scramble stream, and every kernel-backed algorithm is inbox-order
        invariant by contract.
        """
        started = time.perf_counter()
        self._materialize()
        stepper = self._stepper
        outgoing = stepper.transport.outgoing(self.algorithm, stepper.states, plan)
        inboxes = stepper.transport.deliver(plan, outgoing)
        self._packed = self.kernel.step(self._packed, csr)
        self._vector_round = t
        stepper.states = self.kernel.unpack(self._packed)
        stepper.round_number = t
        self._synced_round = t
        _STATS["observed_rounds"] += 1
        record = RoundRecord(
            round_number=t,
            plan=plan,
            algorithm=self.algorithm,
            outgoing=outgoing,
            inboxes=inboxes,
            states=tuple(stepper.states),
            wall_seconds=time.perf_counter() - started,
        )
        for observer in observers:
            observer.on_round(record)
        return t

    def run(self, rounds: int) -> "VectorExecution":
        for _ in range(rounds):
            self.step()
        return self

    def outputs(self) -> List[Any]:
        self._materialize()
        return super().outputs()

    def __repr__(self) -> str:
        if self.vector_active:
            return (
                f"VectorExecution({self.algorithm.name()}, n={self.n}, "
                f"kernel={type(self.kernel).__name__}, round={self.round_number})"
            )
        return (
            f"VectorExecution({self.algorithm.name()}, n={self.n}, "
            f"fallback={self.vector_fallback_reason!r}, round={self.round_number})"
        )
