"""Tests for valuation/state lifting and the lifted function fᵠ (§3.1)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fibrations.fibration import ring_collapse
from repro.fibrations.lifting import (
    lift_global_state,
    lift_valuation,
    lifted_function,
    pushdown_global_state,
    pushdown_valuation,
)


class TestLiftValuation:
    def test_fibrewise_copy(self):
        phi = ring_collapse(6, 3)
        assert lift_valuation(phi, ["a", "b", "c"]) == ["a", "b", "c", "a", "b", "c"]

    def test_length_checked(self):
        phi = ring_collapse(6, 3)
        with pytest.raises(ValueError):
            lift_valuation(phi, ["a", "b"])

    def test_global_state_alias(self):
        phi = ring_collapse(4, 2)
        assert lift_global_state(phi, [1, 2]) == [1, 2, 1, 2]


class TestLiftedFunction:
    def test_sum_scales_with_fibres(self):
        phi = ring_collapse(6, 3)
        f_phi = lifted_function(phi, sum)
        # fᵠ(v) = f(vᵠ): the sum over the 6-ring of the lifted values.
        assert f_phi([1, 2, 3]) == 2 * (1 + 2 + 3)

    def test_average_invariant(self):
        phi = ring_collapse(8, 4)
        avg = lambda v: sum(v) / len(v)
        f_phi = lifted_function(phi, avg)
        assert f_phi([1, 2, 3, 4]) == avg([1, 2, 3, 4])

    def test_max_invariant(self):
        phi = ring_collapse(9, 3)
        assert lifted_function(phi, max)([5, 1, 7]) == 7


class TestPushdown:
    def test_roundtrip(self):
        phi = ring_collapse(6, 2)
        lifted = lift_valuation(phi, ["x", "y"])
        assert pushdown_valuation(phi, lifted) == ["x", "y"]

    def test_non_constant_fibre_rejected(self):
        phi = ring_collapse(4, 2)
        with pytest.raises(ValueError):
            pushdown_valuation(phi, ["a", "b", "c", "b"])

    def test_length_checked(self):
        phi = ring_collapse(4, 2)
        with pytest.raises(ValueError):
            pushdown_valuation(phi, ["a"])

    def test_fraction_int_equality_not_repr(self):
        # Regression: the fibre-constancy check used to compare repr()s,
        # which split Fraction(2, 1) from 2 even though they are equal.
        # The check now goes through the keys convention (payloads_equal),
        # so numerically-equal payloads of different types push down fine.
        phi = ring_collapse(4, 2)
        assert pushdown_valuation(phi, [Fraction(2, 1), 3, 2, Fraction(3, 1)]) == [
            Fraction(2, 1),
            3,
        ]
        # ...while genuinely unequal payloads still split the fibre.
        with pytest.raises(ValueError):
            pushdown_valuation(phi, ["2", 0, 2, 0])

    def test_global_state_alias(self):
        phi = ring_collapse(4, 2)
        assert pushdown_global_state(phi, [1, 2, 1, 2]) == [1, 2]

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),   # base size
        st.integers(min_value=2, max_value=4),   # fibre multiplicity
        st.data(),
    )
    def test_roundtrip_property(self, base_n, mult, data):
        # pushdown(lift(v)) == v for every base valuation v.
        phi = ring_collapse(base_n * mult, base_n)
        values = data.draw(
            st.lists(
                st.one_of(
                    st.integers(-5, 5),
                    st.fractions(min_value=-9, max_value=9, max_denominator=9),
                    st.text(max_size=3),
                ),
                min_size=base_n,
                max_size=base_n,
            )
        )
        assert pushdown_valuation(phi, lift_valuation(phi, values)) == values

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=1000),
    )
    def test_non_constant_raises_property(self, base_n, mult, salt):
        # Any valuation that is injective on a fibre of size >= 2 is not
        # fibrewise-constant and must be rejected.
        phi = ring_collapse(base_n * mult, base_n)
        values = [(v * 7919 + salt) for v in range(base_n * mult)]
        with pytest.raises(ValueError):
            pushdown_valuation(phi, values)
