"""Tests for exact rational elimination and integer kernels."""

from fractions import Fraction

import pytest

from repro.linalg.exact import (
    gcd_list,
    integer_kernel_vector,
    kernel_basis,
    lcm_list,
    matvec,
    primitive_integer_vector,
    rational_rank,
)


class TestHelpers:
    def test_gcd_list(self):
        assert gcd_list([6, 9, 15]) == 3
        assert gcd_list([0, 0]) == 0
        assert gcd_list([-4, 6]) == 2

    def test_lcm_list(self):
        assert lcm_list([2, 3, 4]) == 12
        with pytest.raises(ValueError):
            lcm_list([2, 0])

    def test_matvec(self):
        assert matvec([[1, 2], [3, 4]], [1, 1]) == [3, 7]


class TestRank:
    def test_full_rank(self):
        assert rational_rank([[1, 0], [0, 1]]) == 2

    def test_rank_deficient(self):
        assert rational_rank([[1, 2], [2, 4]]) == 1

    def test_zero_matrix(self):
        assert rational_rank([[0, 0], [0, 0]]) == 0

    def test_rectangular(self):
        assert rational_rank([[1, 2, 3], [4, 5, 6]]) == 2


class TestKernel:
    def test_kernel_of_identity_empty(self):
        assert kernel_basis([[1, 0], [0, 1]]) == []

    def test_kernel_dimension(self):
        basis = kernel_basis([[1, 1, 1]])
        assert len(basis) == 2

    def test_kernel_vectors_annihilated(self):
        m = [[2, -1, 0], [0, 1, -2]]
        for vec in kernel_basis(m):
            for row in m:
                assert sum(Fraction(a) * x for a, x in zip(row, vec)) == 0

    def test_integer_kernel_vector(self):
        # Kernel of [[1, -2]] is spanned by (2, 1).
        assert integer_kernel_vector([[1, -2]]) == [2, 1]

    def test_integer_kernel_vector_none_when_dim_not_one(self):
        assert integer_kernel_vector([[1, 0], [0, 1]]) is None
        assert integer_kernel_vector([[0, 0], [0, 0]]) is None

    def test_coprimality(self):
        z = integer_kernel_vector([[3, -6]])
        assert z == [2, 1]
        assert gcd_list(z) == 1

    def test_rejects_non_integer_entries(self):
        with pytest.raises(TypeError):
            kernel_basis([[Fraction(1, 2), 1]])
        with pytest.raises(TypeError):
            rational_rank([[0.5, 1.0]])


class TestPrimitiveVector:
    def test_scaling_and_sign(self):
        assert primitive_integer_vector([Fraction(-1, 2), Fraction(-1, 3)]) == [3, 2]

    def test_already_integer(self):
        assert primitive_integer_vector([Fraction(4), Fraction(6)]) == [2, 3]

    def test_fibre_matrix_example(self):
        # Star on 4 vertices (hub + 3 leaves): fibres (1, 3).
        # M = [[d_hh - b_h, d_hl], [d_lh, d_ll - b_l]] with base edges
        # hub->leaf x1, leaf->hub x3, self-loops x1 each; b = (4, 2).
        m = [[1 - 4, 1], [3, 1 - 2]]
        z = integer_kernel_vector(m)
        assert z == [1, 3]
