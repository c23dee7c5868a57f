"""The proof of Theorem 5.2, step by step, on concrete executions.

The convergence proof factors Push-Sum's estimate dynamics through the
row-stochastic matrices

    ``B(t) = diag(z(t))⁻¹ · A(t) · diag(z(t-1))``,

shows every window product ``B(t+D-1 : t)`` is ``n^{-2D}``-safe with a
fully-connected associated graph, and contracts the estimate spread with
Dobrushin's coefficient:  ``δ(B(t:1)) ≤ (1 - n^{-2D})^{⌊t/D⌋}``.

This module computes those objects for an actual dynamic graph, so tests
and benchmarks can check each inequality of the proof numerically — a
reproduction of the *argument*, not just the statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.dynamics.dynamic_graph import DynamicGraph
from repro.linalg.stochastic import (
    backward_product,
    dobrushin_coefficient,
    is_row_stochastic,
    push_sum_matrix,
    seminorm_spread,
)


@dataclass
class PushSumTrace:
    """Matrix-level trace of a Push-Sum execution.

    ``a_matrices[t-1]`` is ``A(t)``; ``b_matrices[t-1]`` is ``B(t)``;
    ``z_history[t]`` is the weight vector after ``t`` rounds
    (``z_history[0]`` is the initial weights); ``x_history`` likewise for
    the estimates ``x = y / z``.
    """

    a_matrices: List[np.ndarray]
    b_matrices: List[np.ndarray]
    z_history: List[np.ndarray]
    x_history: List[np.ndarray]


def trace_push_sum(
    dg: DynamicGraph,
    values: List[float],
    weights: List[float] = None,
    rounds: int = 50,
) -> PushSumTrace:
    """Run Push-Sum at the matrix level and record the proof's objects."""
    n = dg.n
    y = np.asarray(values, dtype=float)
    z = np.asarray(weights if weights is not None else [1.0] * n, dtype=float)
    if len(y) != n or len(z) != n:
        raise ValueError("need one value and one weight per agent")
    if (z <= 0).any():
        raise ValueError("weights must be positive")
    a_matrices, b_matrices = [], []
    z_history, x_history = [z.copy()], [y / z]
    for t in range(1, rounds + 1):
        a = push_sum_matrix(dg.graph_at(t))
        z_prev = z
        y = a @ y
        z = a @ z
        b = np.diag(1.0 / z) @ a @ np.diag(z_prev)
        a_matrices.append(a)
        b_matrices.append(b)
        z_history.append(z.copy())
        x_history.append(y / z)
    return PushSumTrace(a_matrices, b_matrices, z_history, x_history)


def verify_proof_invariants(trace: PushSumTrace, d: int, n: int) -> List[str]:
    """Check every inequality of Theorem 5.2's proof on a trace.

    Returns a list of violations (empty = the proof's claims all hold on
    this execution):

    1. each ``B(t)`` is row-stochastic with positive diagonal, and its
       associated graph equals ``A(t)``'s;
    2. ``z`` stays within Lemma 5.1's envelope
       ``[n^{-D}·Σw, Σw]`` from round ``D`` on;
    3. every window product ``B(t+D-1 : t)`` is ``n^{-2D}``-safe and has
       positive entries (fully connected);
    4. ``δ(B(t:1)) ≤ (1 - n^{-2D})^{⌊t/D⌋}``;
    5. the estimate spread is non-increasing and bounded by
       ``δ(B(t:1)) · spread(x(0))``.
    """
    problems: List[str] = []
    total_w = float(trace.z_history[0].sum())

    for t, (a, b) in enumerate(zip(trace.a_matrices, trace.b_matrices), start=1):
        if not is_row_stochastic(b):
            problems.append(f"B({t}) is not row-stochastic")
        if (np.diagonal(b) <= 0).any():
            problems.append(f"B({t}) has a non-positive diagonal entry")
        if ((a > 0) != (b > 0)).any():
            problems.append(f"B({t})'s associated graph differs from A({t})'s")

    floor = n ** (-float(d)) * total_w
    for t, z in enumerate(trace.z_history):
        if t < d:
            continue
        if (z > total_w + 1e-9).any():
            problems.append(f"z({t}) exceeds the total weight")
        if (z < floor - 1e-12).any():
            problems.append(f"z({t}) below Lemma 5.1's floor n^-D · Σw")

    safety = n ** (-2.0 * d)
    for start in range(0, len(trace.b_matrices) - d + 1):
        window = backward_product(trace.b_matrices[start : start + d])
        if (window <= 0).any():
            problems.append(f"window B({start+d}:{start+1}) not fully connected")
        elif window[window > 0].min() < safety - 1e-15:
            problems.append(f"window B({start+d}:{start+1}) not n^-2D-safe")

    spread0 = seminorm_spread(trace.x_history[0])
    prev_spread = spread0
    for t in range(1, len(trace.b_matrices) + 1):
        product = backward_product(trace.b_matrices[:t])
        delta = dobrushin_coefficient(product)
        bound = (1.0 - safety) ** (t // d)
        if delta > bound + 1e-9:
            problems.append(f"δ(B({t}:1)) = {delta:.3g} exceeds the proof bound {bound:.3g}")
        spread = seminorm_spread(trace.x_history[t])
        if spread > prev_spread + 1e-9:
            problems.append(f"estimate spread increased at round {t}")
        if spread > delta * spread0 + 1e-9:
            problems.append(f"spread at round {t} exceeds δ(B(t:1)) · spread(x(0))")
        prev_spread = spread
    return problems


# ---------------------------------------------------------------------- #
# grid sweeps
# ---------------------------------------------------------------------- #

@dataclass
class ProofCheck:
    """Outcome of verifying the proof invariants for one configuration."""

    n: int
    d: int
    seed: int
    rounds: int
    problems: List[str]
    #: Provenance of the checked execution (network fingerprint, engine
    #: generation) — deterministic fields only, identical across backends.
    manifest: object = None

    @property
    def ok(self) -> bool:
        return not self.problems


def proof_check_to_payload(check: ProofCheck) -> dict:
    """JSON-safe record of one proof check — what the durable store keeps."""
    manifest = check.manifest
    return {
        "n": check.n,
        "d": check.d,
        "seed": check.seed,
        "rounds": check.rounds,
        "problems": list(check.problems),
        "manifest": None if manifest is None else manifest.to_dict(),
    }


def proof_check_from_payload(payload: dict) -> ProofCheck:
    """Rebuild a :class:`ProofCheck` from :func:`proof_check_to_payload`."""
    from repro.analysis.provenance import Manifest

    manifest = payload.get("manifest")
    return ProofCheck(
        int(payload["n"]),
        int(payload["d"]),
        int(payload["seed"]),
        int(payload["rounds"]),
        list(payload["problems"]),
        None if manifest is None else Manifest.from_dict(manifest),
    )


def _compute_proof_check(n: int, d: int, seed: int, rounds: int) -> ProofCheck:
    from repro.analysis.provenance import Manifest, network_fingerprint
    from repro.dynamics.generators import random_dynamic_strongly_connected

    dg = random_dynamic_strongly_connected(n, seed=seed)
    values = [float(v + 1) for v in range(n)]
    trace = trace_push_sum(dg, values, rounds=rounds)
    manifest = Manifest(
        kind="rate-sweep",
        seed=seed,
        n=n,
        rounds=rounds,
        graph_hash=network_fingerprint(dg),
        extra={"d": d},
    )
    return ProofCheck(n, d, seed, rounds, verify_proof_invariants(trace, d=d, n=n), manifest)


def check_proof_invariants(n: int, d: int, seed: int, rounds: int, store=None) -> ProofCheck:
    """One proof-invariant check, served from the result store when warm."""
    if store is None:
        return _compute_proof_check(n, d, seed, rounds)
    from repro.store.cache import fetch_or_compute

    return fetch_or_compute(
        store,
        "rate-sweep-check",
        {"n": n, "d": d, "seed": seed, "rounds": rounds},
        lambda: _compute_proof_check(n, d, seed, rounds),
        proof_check_to_payload,
        proof_check_from_payload,
    )


def sweep_proof_invariants(specs, store=None) -> List[ProofCheck]:
    """Check Theorem 5.2's proof inequalities across a grid of runs.

    ``specs`` is a sequence of ``(n, d, seed, rounds)`` tuples; each one
    builds a seeded random dynamic strongly connected network, traces
    Push-Sum on it, and verifies every inequality of the proof (``d`` is
    the dynamic-diameter bound to verify against; ``n - 1`` is always
    sound for per-round strongly connected graphs).  Results come back
    in spec order.  ``store`` short-circuits already-checked
    configurations from the durable result store (``None`` defers to the
    ``REPRO_STORE`` environment variable), which is what lets a killed
    sweep resume from its last finished configuration.
    """
    from repro.store.cache import resolve_store

    store = resolve_store(store)
    return [check_proof_invariants(*s, store=store) for s in specs]
