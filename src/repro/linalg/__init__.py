"""Linear algebra for the paper's two regimes.

:mod:`.exact` — exact fraction-free integer elimination for the static
pipeline ("Gaussian elimination over the Euclidean ring ℤ", §4.2);
:mod:`.perron` — the Perron–Frobenius analysis of the fibre matrix ``M``;
:mod:`.stochastic` — column-stochastic matrices, backward products,
α-safety, and Dobrushin's ergodic coefficient for the dynamic pipeline (§5).

Names resolve on first access (PEP 562): :mod:`.exact` is pure
``Fraction`` arithmetic, and importing it does not load numpy.
"""

from repro import _lazy

_EXPORTS = {
    "repro.linalg.exact": (
        "gcd_list", "integer_kernel_vector", "kernel_basis", "lcm_list",
        "rational_rank",
    ),
    "repro.linalg.perron": ("fibre_matrix", "perron_root", "kernel_dimension_is_one"),
    "repro.linalg.stochastic": (
        "alpha_safety", "backward_product", "dobrushin_coefficient",
        "is_column_stochastic", "is_row_stochastic", "metropolis_matrix",
        "push_sum_matrix",
    ),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__getattr__, __dir__ = _lazy.lazy_exports(globals(), _EXPORTS)
