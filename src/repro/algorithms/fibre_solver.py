"""Fibre-cardinality ratios from a (candidate) minimum base (§4.2–4.3).

Given the extracted base, each agent solves for the vector ``z`` of fibre
cardinalities *up to a common factor* — the content of eq. (2).  The three
communication models admit three solvers:

* outdegree awareness — eq. (1): build ``M`` (``M[i][j] = d_{i,j}`` off
  the diagonal, ``M[i][i] = d_{i,i} - b_i``) and return the primitive
  positive integer vector spanning ``ker M`` ("Gaussian elimination over
  the Euclidean ring ℤ"); the kernel is one-dimensional by the paper's
  Perron–Frobenius argument;
* output port awareness — eq. (3): every fibration is a covering, all
  fibres have equal cardinality, so ``z = (1, ..., 1)``;
* symmetric communications — eq. (4): ``d_{i,j} z_j = d_{j,i} z_i``, so
  ratios propagate along any spanning tree of the base's support and the
  system needs no elimination at all.

All solvers return ``None`` instead of raising while the input base is an
unstabilized candidate (inconsistent annotations, violated equations) —
the distributed algorithm simply outputs nothing until the views settle.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import List, Optional

from repro.graphs.digraph import DiGraph
from repro.linalg.exact import integer_kernel_vector, primitive_integer_vector


def _edge_counts(base: DiGraph) -> List[List[int]]:
    """``d[i][j]`` = number of base edges ``i -> j`` (colors ignored)."""
    d = [[0] * base.n for _ in range(base.n)]
    for i in base.vertices():
        row = d[i]
        for j in base.out_neighbors(i):
            row[j] += 1
    return d


def fibre_ratios_outdegree(base: DiGraph) -> Optional[List[int]]:
    """Solve eq. (1) on a base of the double-valued graph ``G_{v,d⁻}``.

    Vertex values must be ``(value, outdegree)`` pairs — §4.2's footnote 5:
    ``b_i`` is the fibre's outdegree *in G*, generally different from the
    base vertex's outdegree in ``B``, so it must be carried as data.
    """
    m = base.n
    b: List[int] = []
    for i in base.vertices():
        label = base.value(i)
        if not (isinstance(label, tuple) and len(label) == 2 and isinstance(label[1], int)):
            return None
        b.append(label[1])
    d = _edge_counts(base)
    matrix = [[d[i][j] if i != j else d[i][i] - b[i] for j in range(m)] for i in range(m)]
    z = integer_kernel_vector(matrix)
    if z is None or any(zi <= 0 for zi in z):
        return None
    return z


def fibre_ratios_ports(base: DiGraph) -> Optional[List[int]]:
    """Eq. (3): with output ports every fibration is a covering — all equal.

    Sanity-checks that each base vertex's out-edges carry distinct port
    colors (the covering's local isomorphism); candidates failing it are
    rejected as unstabilized.
    """
    colors = base.edge_colors()
    for v in base.vertices():
        ports = [colors[i] for i in base.out_edge_ids(v)]
        if len(set(ports)) != len(ports) or not all(isinstance(p, int) for p in ports):
            return None
    return [1] * base.n


def fibre_ratios_symmetric(base: DiGraph) -> Optional[List[int]]:
    """Eq. (4): propagate ``z_j = z_i · d_{j,i}/d_{i,j}`` along a spanning tree.

    The ratios must be globally consistent (every non-tree pair must also
    satisfy eq. (4)); a violated pair marks an unstabilized candidate.
    """
    m = base.n
    d = _edge_counts(base)
    # Support must be symmetric for a base of a bidirectional network.
    for i in range(m):
        for j in range(m):
            if (d[i][j] > 0) != (d[j][i] > 0):
                return None
    z: List[Optional[Fraction]] = [None] * m
    z[0] = Fraction(1)
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in range(m):
            if j == i or d[i][j] == 0 or z[j] is not None:
                continue
            z[j] = z[i] * Fraction(d[j][i], d[i][j])
            queue.append(j)
    if any(zj is None for zj in z):
        return None  # base support not connected: not a real base
    for i in range(m):
        for j in range(m):
            if d[i][j] and z[j] * d[i][j] != z[i] * d[j][i]:
                return None
    ints = primitive_integer_vector([zj for zj in z if zj is not None])
    if any(x <= 0 for x in ints):
        return None
    return ints
