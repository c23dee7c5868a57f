"""Exact integer elimination and integer kernels (§4.2).

The static algorithm solves ``M z = 0`` for the fibre-cardinality vector,
where ``M`` is a small integer matrix derived from the minimum base; the
history-tree counter behind Table 2's symmetric column solves the same
kind of homogeneous integer system.  Both use the paper's "Gaussian
elimination over the Euclidean ring ℤ", here a sparse fraction-free
Gauss–Jordan elimination: a row is a ``{column: int}`` dict of its
nonzero entries, a row update is the integer combination that cancels
the pivot column, and every updated row is divided by the gcd of its
entries so the numbers stay small (Python integers never overflow).

Columns are scanned in order, so the pivot columns are those of
elimination over ℚ, and each reduced row is an integer multiple of the
corresponding row of the reduced row echelon form, which is unique.
``Fraction``s appear only when a kernel basis is read off; the primitive
integer kernel vector is that basis scaled to coprime integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import index
from typing import Dict, List, Optional, Sequence, Tuple


Matrix = Sequence[Sequence[int]]

#: A sparse integer row: column index → nonzero entry.
Row = Dict[int, int]


def gcd_list(xs: Sequence[int]) -> int:
    g = 0
    for x in xs:
        g = gcd(g, abs(x))
    return g


def lcm_list(xs: Sequence[int]) -> int:
    out = 1
    for x in xs:
        if x == 0:
            raise ValueError("lcm of zero is undefined")
        out = out * abs(x) // gcd(out, abs(x))
    return out


def _primitive(row: Row) -> Row:
    """``row`` divided by the gcd of its (nonzero) entries."""
    g = gcd(*row.values())
    if g == 1:
        return row
    return {c: x // g for c, x in row.items()}


def _cancel(row: Row, pivot: Row, c: int) -> Row:
    """The primitive integer combination of ``row`` and ``pivot`` that is
    zero in column ``c`` (both are nonzero there)."""
    a, p = row[c], pivot[c]
    g = gcd(a, p)
    s, t = p // g, a // g
    out = {k: s * x for k, x in row.items()}
    for k, x in pivot.items():
        y = out.get(k, 0) - t * x
        if y:
            out[k] = y
        else:
            del out[k]  # y == 0 and t * x != 0, so k was present
    return _primitive(out) if out else out


def _reduce(matrix: Matrix) -> Tuple[List[Row], List[int]]:
    """Sparse fraction-free Gauss–Jordan elimination over ℤ.

    Returns ``(rows, pivots)``: ``rows[r]`` is a primitive integer multiple
    of row ``r`` of the reduced row echelon form, whose leading entry sits
    in column ``pivots[r]``.  Entries must be integers (``TypeError``
    otherwise).
    """
    active: List[Row] = []
    for dense in matrix:
        row = {c: index(x) for c, x in enumerate(dense) if x}
        if row:
            active.append(_primitive(row))
    reduced: List[Row] = []
    pivots: List[int] = []
    # A column that is zero in every row stays zero under elimination.
    for c in sorted({c for row in active for c in row}):
        candidates = [row for row in active if c in row]
        if not candidates:
            continue
        # Any row with a nonzero here gives the same echelon form; the
        # sparsest one causes the least fill-in.
        pivot = min(candidates, key=len)
        remaining: List[Row] = []
        for row in active:
            if row is pivot:
                continue
            if c in row:
                row = _cancel(row, pivot, c)
                if not row:
                    continue
            remaining.append(row)
        active = remaining
        reduced = [_cancel(row, pivot, c) if c in row else row for row in reduced]
        reduced.append(pivot)
        pivots.append(c)
        if not active:
            break
    return reduced, pivots


def rational_rank(matrix: Matrix) -> int:
    """The rank of an integer matrix over ℚ (exact)."""
    return len(_reduce(matrix)[1])


def kernel_basis(matrix: Matrix) -> List[List[Fraction]]:
    """A basis of ``ker`` (right null space) over ℚ, exact.

    One vector per non-pivot column ``f``, in column order: ``1`` at
    ``f``, ``-rref[r][f]`` at each pivot column ``pivots[r]``, ``0``
    elsewhere.
    """
    rows, pivots = _reduce(matrix)
    n_cols = len(matrix[0]) if len(matrix) else 0
    pivot_set = set(pivots)
    basis: List[List[Fraction]] = []
    for fc in range(n_cols):
        if fc in pivot_set:
            continue
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            x = row.get(fc)
            if x:
                vec[pc] = Fraction(-x, row[pc])
        basis.append(vec)
    return basis


def primitive_integer_vector(vec: Sequence[Fraction]) -> List[int]:
    """Scale a rational vector to coprime integers (sign: first nonzero > 0)."""
    denoms = [f.denominator for f in vec]
    scale = lcm_list(denoms) if denoms else 1
    ints = [int(f * scale) for f in vec]
    g = gcd_list(ints)
    if g:
        ints = [x // g for x in ints]
    first = next((x for x in ints if x != 0), 0)
    if first < 0:
        ints = [-x for x in ints]
    return ints


def integer_kernel_vector(matrix: Matrix) -> Optional[List[int]]:
    """The primitive integer kernel vector, when ``ker`` has dimension one.

    Returns ``None`` when the kernel dimension differs from one.  For the
    fibre matrix of Theorem 4.1 the kernel is one-dimensional and spanned
    by a positive vector (the fibre cardinalities up to a common factor);
    callers should check positivity if they rely on it.
    """
    basis = kernel_basis(matrix)
    if len(basis) != 1:
        return None
    return primitive_integer_vector(basis[0])


def matvec(matrix: Matrix, vec: Sequence[int]) -> List[int]:
    """Integer matrix-vector product (exact)."""
    return [sum(a * x for a, x in zip(row, vec)) for row in matrix]
