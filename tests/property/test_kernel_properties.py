"""Property-based tests for the exact linear algebra layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.exact import (
    gcd_list,
    integer_kernel_vector,
    kernel_basis,
    primitive_integer_vector,
    rational_rank,
)


# ---------------------------------------------------------------------- #
# reference: dense Gauss–Jordan elimination over Fraction
# ---------------------------------------------------------------------- #

def reference_rref(matrix):
    """Reduced row echelon form over ``Fraction``: (rref, pivot columns).

    The solver's previous implementation, kept as the oracle the sparse
    fraction-free integer elimination must match exactly.
    """
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return rows, []
    n_cols = len(rows[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def reference_kernel_basis(matrix):
    rref, pivots = reference_rref(matrix)
    if not rref:
        return []
    n_cols = len(rref[0])
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc]
        basis.append(vec)
    return basis


def assert_matches_reference(m):
    basis = kernel_basis(m)
    expected = reference_kernel_basis(m)
    assert basis == expected
    assert all(type(x) is Fraction for vec in basis for x in vec)
    assert rational_rank(m) == len(reference_rref(m)[1])
    z = integer_kernel_vector(m)
    assert z == (primitive_integer_vector(expected[0]) if len(expected) == 1 else None)


@st.composite
def sparse_matrices(draw, max_rows=40, max_cols=25):
    """History-tree density: at most 4 nonzeros per row, entries -3..3."""
    n_rows = draw(st.integers(min_value=1, max_value=max_rows))
    n_cols = draw(st.integers(min_value=1, max_value=max_cols))
    matrix = []
    for _ in range(n_rows):
        row = [0] * n_cols
        support = draw(st.lists(st.integers(0, n_cols - 1), max_size=4, unique=True))
        for c in support:
            row[c] = draw(st.integers(min_value=-3, max_value=3))
        matrix.append(row)
    return matrix


@st.composite
def degenerate_matrices(draw):
    """Sparse matrices with all-zero rows and (scaled) duplicate rows spliced in."""
    matrix = draw(sparse_matrices(max_rows=12, max_cols=10))
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        at = draw(st.integers(0, len(matrix)))
        if draw(st.booleans()):
            row = [0] * len(matrix[0])
        else:
            k = draw(st.sampled_from([1, 1, -1, 2, -3]))
            row = [k * x for x in matrix[draw(st.integers(0, len(matrix) - 1))]]
        matrix.insert(at, row)
    return matrix


@st.composite
def thin_matrices(draw):
    """1 x n and n x 1 matrices, n up to 25."""
    n = draw(st.integers(min_value=1, max_value=25))
    n_rows, n_cols = draw(st.sampled_from([(1, n), (n, 1)]))
    return [[draw(st.integers(-3, 3)) for _ in range(n_cols)] for _ in range(n_rows)]


#: A homogeneous system from Table 2's history-tree counter (seed 4):
#: refinement rows, then symmetry-counting rows; 36 x 23, kernel (1,3,1,...).
TABLE2_SYSTEM = [
    {0: 1, 3: -1},
    {1: 1, 4: -1, 5: -1, 7: -1},
    {2: 1, 6: -1},
    {3: 1, 8: -1},
    {4: 1, 9: -1},
    {5: 1, 10: -1},
    {6: 1, 11: -1},
    {7: 1, 12: -1},
    {8: 1, 13: -1},
    {9: 1, 14: -1},
    {10: 1, 15: -1},
    {11: 1, 16: -1},
    {12: 1, 17: -1},
    {13: 1, 18: -1},
    {14: 1, 19: -1},
    {15: 1, 20: -1},
    {16: 1, 21: -1},
    {17: 1, 22: -1},
    {3: 2, 4: -1, 5: -1},
    {3: 1, 6: -1},
    {5: 1, 6: -1},
    {8: 1, 9: -1},
    {8: 1, 10: -1},
    {8: 1, 12: -1},
    {9: 1, 11: -1},
    {13: 1, 15: -1},
    {13: 1, 16: -1},
    {13: 1, 17: -1},
    {14: 1, 15: -1},
    {14: 1, 16: -1},
    {14: 1, 17: -1},
    {18: 1, 20: -1},
    {18: 1, 22: -1},
    {19: 1, 22: -1},
    {20: 1, 21: -1},
    {20: 1, 22: -1},
]


class TestAgainstReference:
    """Sparse integer elimination returns the very same Fractions, in the
    same order, as dense Gauss–Jordan over ``Fraction``."""

    @settings(max_examples=150, deadline=None)
    @given(sparse_matrices())
    def test_history_tree_density(self, m):
        assert_matches_reference(m)

    @settings(max_examples=100, deadline=None)
    @given(degenerate_matrices())
    def test_zero_and_duplicate_rows(self, m):
        assert_matches_reference(m)

    @settings(max_examples=50, deadline=None)
    @given(thin_matrices())
    def test_single_row_and_single_column(self, m):
        assert_matches_reference(m)

    @pytest.mark.parametrize("m", [
        [], [[]], [[0]], [[5]], [[0, 0, 0]], [[0], [0]], [[2], [-4], [0]],
        [[1, 2, 3], [1, 2, 3], [0, 0, 0], [2, 4, 6]],
    ])
    def test_edge_shapes(self, m):
        assert_matches_reference(m)

    def test_recorded_table2_system(self):
        m = [[row.get(c, 0) for c in range(23)] for row in TABLE2_SYSTEM]
        assert_matches_reference(m)
        assert integer_kernel_vector(m) == [1, 3] + [1] * 21

small_int = st.integers(min_value=-6, max_value=6)
matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda rows: st.integers(min_value=1, max_value=5).flatmap(
        lambda cols: st.lists(
            st.lists(small_int, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


class TestKernelProperties:
    @settings(max_examples=80, deadline=None)
    @given(matrices)
    def test_rank_nullity(self, m):
        cols = len(m[0])
        assert rational_rank(m) + len(kernel_basis(m)) == cols

    @settings(max_examples=80, deadline=None)
    @given(matrices)
    def test_kernel_vectors_annihilated(self, m):
        for vec in kernel_basis(m):
            for row in m:
                assert sum(Fraction(a) * x for a, x in zip(row, vec)) == 0

    @settings(max_examples=80, deadline=None)
    @given(matrices)
    def test_integer_kernel_consistency(self, m):
        z = integer_kernel_vector(m)
        if z is not None:
            assert gcd_list(z) in (0, 1)
            for row in m:
                assert sum(a * x for a, x in zip(row, z)) == 0

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.fractions(min_value=-5, max_value=5), min_size=1, max_size=6))
    def test_primitive_vector_parallel(self, vec):
        ints = primitive_integer_vector(vec)
        assert len(ints) == len(vec)
        if any(v != 0 for v in vec):
            # ints is parallel to vec: cross-ratios agree.
            iv = [(i, v) for i, v in enumerate(vec) if v != 0]
            i0, v0 = iv[0]
            for i, v in iv[1:]:
                assert Fraction(ints[i], ints[i0]) == v / v0
            assert gcd_list(ints) == 1
            first = next(x for x in ints if x != 0)
            assert first > 0
        else:
            assert all(x == 0 for x in ints)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(small_int, min_size=2, max_size=5))
    def test_rank_one_construction(self, vec):
        # The outer-product-like matrix [v; 2v; ...] has rank <= 1.
        m = [vec, [2 * x for x in vec], [0 * x for x in vec]]
        assert rational_rank(m) <= 1
