"""Graph fibrations: morphisms, fibres, minimum bases, and lifting.

This subpackage implements Section 3 of the paper: graph morphisms and
fibrations between valued/colored multigraphs (:mod:`.morphism`,
:mod:`.fibration`), the minimum base and the coarsest-equitable-partition
construction behind it (:mod:`.minimum_base`), fibration-primality
(:mod:`.prime`), and the state/valuation lifting used by the Lifting lemma
(:mod:`.lifting`).
"""

from repro.fibrations.morphism import GraphMorphism, morphism_from_vertex_map
from repro.fibrations.fibration import (
    fibres,
    is_covering,
    is_fibration,
    ring_collapse,
)
from repro.fibrations.keys import equality_key, payloads_equal
from repro.fibrations.minimum_base import (
    equitable_partition,
    equitable_partition_reference,
    minimum_base,
    quotient_by_partition,
    same_partition,
    MinimumBase,
)
from repro.fibrations.prime import is_fibration_prime
from repro.fibrations.lifting import (
    lift_global_state,
    lift_valuation,
    lifted_function,
    pushdown_global_state,
    pushdown_valuation,
)

__all__ = [
    "GraphMorphism",
    "MinimumBase",
    "equality_key",
    "equitable_partition",
    "equitable_partition_reference",
    "fibres",
    "is_covering",
    "is_fibration",
    "is_fibration_prime",
    "lift_global_state",
    "lift_valuation",
    "lifted_function",
    "minimum_base",
    "morphism_from_vertex_map",
    "payloads_equal",
    "pushdown_global_state",
    "pushdown_valuation",
    "quotient_by_partition",
    "ring_collapse",
    "same_partition",
]
