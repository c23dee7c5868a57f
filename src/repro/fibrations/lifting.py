"""Lifting along fibrations — the machinery of the Lifting lemma (§3.1).

Given a fibration ``φ : G -> B``, any per-vertex data on ``B`` (input
valuations, local states, whole global states) lifts to ``G`` by copying
fibrewise: ``xᵠ_i := x_{φ(i)}``.  Lemma 3.1 states that lifted executions
are executions; the execution-level check lives in
:mod:`repro.analysis.impossibility` (it needs the simulator), while the
pure data-level lifts live here.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence

from repro.fibrations.keys import payloads_equal
from repro.fibrations.morphism import GraphMorphism


def lift_valuation(phi: GraphMorphism, base_values: Sequence[Any]) -> List[Any]:
    """``vᵠ`` — the valuation of ``G`` obtained by copying ``v`` fibrewise."""
    if len(base_values) != phi.target_graph.n:
        raise ValueError(
            f"valuation has {len(base_values)} entries for base with {phi.target_graph.n} vertices"
        )
    return [base_values[phi(i)] for i in phi.source_graph.vertices()]


def lift_global_state(phi: GraphMorphism, base_state: Sequence[Any]) -> List[Any]:
    """``Cᵠ`` — a global state of ``G`` copied fibrewise from one of ``B``.

    Identical to :func:`lift_valuation`; kept separate to mirror the paper's
    two uses (initial valuations vs. mid-execution configurations).
    """
    return lift_valuation(phi, base_state)


def lifted_function(phi: GraphMorphism, f: Callable[[Sequence[Any]], Any]) -> Callable[[Sequence[Any]], Any]:
    """``fᵠ`` — the ``n_B``-ary function ``fᵠ(v) := f(vᵠ)`` of §3.1.

    Lemma 3.2: if some algorithm δ-computes ``f`` on both ``G`` and ``B``,
    then ``fᵠ = f`` (restricted to ``n_B``-ary inputs).  The impossibility
    experiments compare ``fᵠ`` against ``f`` on concrete vectors.
    """

    def f_phi(base_values: Sequence[Any]) -> Any:
        return f(lift_valuation(phi, base_values))

    return f_phi


def pushdown_valuation(phi: GraphMorphism, values: Sequence[Any]) -> List[Any]:
    """The base valuation whose lift is ``values``; raises if not fibrewise-constant.

    Fibre payloads are compared through the shared
    :func:`~repro.fibrations.keys.payloads_equal` convention (equality with
    a canonical-repr fallback), so ``Fraction(2, 1)`` and ``2`` on the same
    fibre are one constant — raw ``repr`` comparison used to split them.
    """
    if len(values) != phi.source_graph.n:
        raise ValueError(
            f"valuation has {len(values)} entries for graph with {phi.source_graph.n} vertices"
        )
    return _pushdown(phi.vertex_map, phi.target_graph.n, values)


def pushdown_by_classes(classes: Sequence[int], values: Sequence[Any]) -> List[Any]:
    """:func:`pushdown_valuation` along a class list, before any quotient
    is built: ``classes`` gives each vertex its base vertex ``0 .. m-1``
    (the fibration's vertex map to be).  Same comparison, same
    ``ValueError`` when ``values`` is not constant on some class."""
    if len(values) != len(classes):
        raise ValueError(
            f"valuation has {len(values)} entries for graph with {len(classes)} vertices"
        )
    return _pushdown(classes, max(classes, default=-1) + 1, values)


def _pushdown(vertex_map: Sequence[int], m: int, values: Sequence[Any]) -> List[Any]:
    out: List[Any] = [None] * m
    seen = [False] * m
    for i, x in enumerate(values):
        j = vertex_map[i]
        if seen[j]:
            if not payloads_equal(out[j], x):
                raise ValueError(f"valuation is not constant on the fibre of base vertex {j}")
        else:
            out[j] = x
            seen[j] = True
    return out


def pushdown_global_state(phi: GraphMorphism, state: Sequence[Any]) -> List[Any]:
    """The base global state whose lift is ``state``.

    Identical to :func:`pushdown_valuation`; the separate name mirrors the
    :func:`lift_valuation` / :func:`lift_global_state` pair.  Raises
    ``ValueError`` when the configuration is not fibrewise-constant — i.e.
    when it is *not* in the image of the lift and no base run can reach it.
    """
    return pushdown_valuation(phi, state)
