"""Linear algebra for the paper's two regimes.

:mod:`.exact` — exact fraction-free integer elimination for the static
pipeline ("Gaussian elimination over the Euclidean ring ℤ", §4.2);
:mod:`.perron` — the Perron–Frobenius analysis of the fibre matrix ``M``;
:mod:`.stochastic` — column-stochastic matrices, backward products,
α-safety, and Dobrushin's ergodic coefficient for the dynamic pipeline (§5).
"""

from repro.linalg.exact import (
    gcd_list,
    integer_kernel_vector,
    kernel_basis,
    lcm_list,
    rational_rank,
)
from repro.linalg.perron import fibre_matrix, perron_root, kernel_dimension_is_one
from repro.linalg.stochastic import (
    alpha_safety,
    backward_product,
    dobrushin_coefficient,
    is_column_stochastic,
    is_row_stochastic,
    metropolis_matrix,
    push_sum_matrix,
)

__all__ = [
    "alpha_safety",
    "backward_product",
    "dobrushin_coefficient",
    "fibre_matrix",
    "gcd_list",
    "integer_kernel_vector",
    "is_column_stochastic",
    "is_row_stochastic",
    "kernel_basis",
    "kernel_dimension_is_one",
    "lcm_list",
    "metropolis_matrix",
    "perron_root",
    "push_sum_matrix",
    "rational_rank",
]
