"""The batch runner: many executions, one plan cache.

Regenerating a table cell never runs *one* execution: it runs the max,
average, and sum probes — usually on the same graph — and the benchmarks
run whole grids of (algorithm, network, inputs) triples.  ``run_batch``
is that shape made first-class: every job in a batch shares one
:class:`PlanCache`, so a graph's delivery schedule is compiled once for
the whole batch instead of once per execution, and each job declares how
it wants to be driven:

* ``runner="rounds"`` — advance a fixed number of rounds;
* ``runner="stable"`` — the δ0 detector
  (:func:`repro.core.convergence.run_until_stable`);
* ``runner="asymptotic"`` — the δ2 detector
  (:func:`repro.core.convergence.run_until_asymptotic`).

Results come back in job order as :class:`BatchResult` records carrying
the finished execution (observers still attached) and, for the detector
runners, the :class:`~repro.core.convergence.ConvergenceReport`.

Which backend runs the jobs is one value, :class:`EngineFlags`, and one
function resolves it, :func:`select_backend`.  Every backend emits the
object run's outputs (the Lifting lemma for the quotient backend, the
faithfulness contract for the vector backend), so the choice changes
speed, never a result, and every harness layer passes it through as
``engine=EngineFlags(...)``.

A batch always runs in the calling process.  Parallelism lives one
level up: independent jobs submitted to ``store run --pools N`` or
``serve --pools N`` run side by side in the orchestrator's pools.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from repro.core.agent import Algorithm
from repro.envflags import env_flag
from repro.core.engine.instrumentation import RoundObserver
from repro.core.engine.plan import PlanCache

_RUNNERS = ("rounds", "stable", "asymptotic")


@dataclass(frozen=True)
class EngineFlags:
    """Which execution backend runs.  ``True``/``False`` forces the
    quotient or vector backend on or off; ``None`` defers to
    ``REPRO_QUOTIENT`` / ``REPRO_VECTOR`` (see :func:`select_backend`)."""

    quotient: Optional[bool] = None
    vector: Optional[bool] = None


def select_backend(engine: EngineFlags = EngineFlags()) -> type:
    """The execution class ``engine`` selects: ``Execution``,
    ``QuotientExecution`` or ``VectorExecution``.

    Each flag left ``None`` reads its environment variable
    (``REPRO_QUOTIENT``, ``REPRO_VECTOR``; spellings as in
    :mod:`repro.envflags`), and an explicit value wins over it.  When
    both resolve on, quotient wins: a quotient-active run already
    simulates only the base.  Either backend still checks at
    construction whether it applies to the run and falls back to the
    object stepper when it does not (``quotient_fallback_reason`` /
    ``vector_fallback_reason``).
    """
    quotient = engine.quotient
    if quotient is None:
        quotient = env_flag("REPRO_QUOTIENT")
    if quotient:
        # Imported here: the backends subclass the Execution façade,
        # which imports this package.
        from repro.core.engine.quotient import QuotientExecution

        return QuotientExecution
    vector = engine.vector
    if vector is None:
        vector = env_flag("REPRO_VECTOR")
    if vector:
        from repro.core.engine.vector import VectorExecution

        return VectorExecution
    from repro.core.execution import Execution

    return Execution


@dataclass
class BatchJob:
    """One (algorithm, network, inputs) triple plus how to drive it."""

    algorithm: Algorithm
    network: Any  # DiGraph or DynamicGraph
    inputs: Optional[Sequence[Any]] = None
    initial_states: Optional[Sequence[Any]] = None
    scramble_seed: Optional[int] = 0
    check_model: bool = True
    runner: str = "rounds"
    rounds: int = 0
    patience: int = 5
    target: Any = None
    tolerance: float = 1e-6
    metric: Optional[Callable[[Any, Any], float]] = None
    output_filter: Optional[Callable[[Any], bool]] = None
    observers: List[RoundObserver] = field(default_factory=list)
    label: str = ""

    def __post_init__(self) -> None:
        if self.runner not in _RUNNERS:
            raise ValueError(f"unknown runner {self.runner!r}; pick one of {_RUNNERS}")
        if self.rounds < 0:
            raise ValueError("rounds must be non-negative")
        if self.runner != "rounds" and self.rounds <= 0:
            # A detector given zero rounds would trivially "converge"
            # without ever stepping the execution.
            raise ValueError(
                f"runner={self.runner!r} needs a positive round budget, got rounds={self.rounds}"
            )


@dataclass
class BatchResult:
    """One finished job: the live
    :class:`repro.core.execution.Execution`, its outputs, and any report."""

    job: BatchJob
    execution: Any  # repro.core.execution.Execution
    report: Any = None  # ConvergenceReport for the detector runners

    @property
    def outputs(self) -> List[Any]:
        return self.execution.outputs()

    @property
    def converged(self) -> bool:
        """The detector verdict (fixed-round jobs count as converged)."""
        return True if self.report is None else self.report.converged

    @property
    def label(self) -> str:
        return self.job.label


def _execute_job(job: BatchJob, cache: PlanCache, backend: type) -> BatchResult:
    """Run one job to completion on the given plan cache, as an
    execution of class ``backend``.

    Observers that also speak the plan-cache tracing protocol (an
    ``on_plan_event`` method, i.e. :class:`repro.core.engine.trace.Tracer`)
    are hooked into the cache for exactly this job's duration — the
    previous hook is restored afterwards, so tracers on a shared
    sequential cache never see each other's compiles.
    """
    # Imported here: the execution façade sits on top of this package.
    from repro.core.convergence import run_until_asymptotic, run_until_stable
    from repro.core.metrics import euclidean_metric

    execution = backend(
        job.algorithm,
        job.network,
        inputs=job.inputs,
        initial_states=job.initial_states,
        scramble_seed=job.scramble_seed,
        check_model=job.check_model,
    )
    execution.share_plan_cache(cache)
    plan_hooks = []
    for observer in job.observers:
        execution.attach(observer)
        hook = getattr(observer, "on_plan_event", None)
        if hook is not None:
            plan_hooks.append(hook)
    previous_hook = cache.trace_hook
    if plan_hooks:
        if len(plan_hooks) == 1:
            cache.trace_hook = plan_hooks[0]
        else:
            def cache_hook(kind, plan, seconds):
                for h in plan_hooks:
                    h(kind, plan, seconds)

            cache.trace_hook = cache_hook
    try:
        if job.runner == "stable":
            report = run_until_stable(
                execution, job.rounds, patience=job.patience, target=job.target
            )
            return BatchResult(job, execution, report)
        if job.runner == "asymptotic":
            report = run_until_asymptotic(
                execution,
                job.rounds,
                tolerance=job.tolerance,
                target=job.target,
                metric=job.metric or euclidean_metric,
                output_filter=job.output_filter,
            )
            return BatchResult(job, execution, report)
        execution.run(job.rounds)
        return BatchResult(job, execution)
    finally:
        if plan_hooks:
            cache.trace_hook = previous_hook


def run_batch(
    jobs: Sequence[BatchJob],
    plan_cache: Optional[PlanCache] = None,
    engine: EngineFlags = EngineFlags(),
) -> List[BatchResult]:
    """Run every job in this process, in job order, sharing compiled
    delivery plans across the batch.

    Pass an explicit ``plan_cache`` to share plans beyond one call — the
    table harness reuses a single cache across all cells of a table.

    Every job runs on the backend :func:`select_backend` picks for
    ``engine``, resolved once for the batch.

    ``REPRO_PARALLEL`` selects nothing; a truthy value warns.
    """
    if env_flag("REPRO_PARALLEL"):
        warnings.warn(
            "REPRO_PARALLEL no longer selects anything: batches run in this "
            "process; run independent jobs side by side with "
            "`store run --pools N` or `serve --pools N`",
            UserWarning,
        )
    backend = select_backend(engine)
    cache = plan_cache if plan_cache is not None else PlanCache()
    return [_execute_job(job, cache, backend) for job in jobs]
