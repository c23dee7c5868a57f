"""The paper's algorithms.

Static pipeline (Section 4): :mod:`.gossip` (set flooding, simple
broadcast), :mod:`.minimum_base_alg` (distributed Boldi–Vigna view/base
construction), :mod:`.fibre_solver` (eqs. (1), (3), (4)),
:mod:`.frequency_static` and :mod:`.multiset_static` (Theorem 4.1 and
Corollaries 4.2–4.4).

Dynamic pipeline (Section 5): :mod:`.push_sum` (Theorem 5.2),
:mod:`.push_sum_frequency` (Algorithm 1, Corollaries 5.3–5.5),
:mod:`.metropolis` (Metropolis / Lazy Metropolis averaging),
:mod:`.rational` (nearest rational in ℚ_N), :mod:`.history_tree`
(Di Luna–Viglietta-style exact counting for symmetric dynamic networks).

Beyond the paper: :mod:`.onebit` — the one-bit broadcast scenario pack
(OR-flooding and indegree census) for the fifth communication model.

Names resolve on first access (PEP 562): importing one algorithm loads
neither the others nor their dependencies.
"""

from repro import _lazy

_EXPORTS = {
    "repro.algorithms.gossip": ("GossipAlgorithm",),
    "repro.algorithms.push_sum": ("PushSumAlgorithm", "VectorPushSumAlgorithm"),
    "repro.algorithms.metropolis": ("MetropolisAlgorithm",),
    "repro.algorithms.constant_weight": (
        "ConstantWeightAveraging", "ConstantWeightFrequency",
    ),
    "repro.algorithms.rational": ("nearest_rational",),
    "repro.algorithms.push_sum_frequency": ("PushSumFrequencyAlgorithm",),
    "repro.algorithms.minimum_base_alg": (
        "DistributedMinimumBase", "OutdegreeViewAlgorithm", "PortViewAlgorithm",
        "SymmetricViewAlgorithm", "extract_base",
    ),
    "repro.algorithms.fibre_solver": (
        "fibre_ratios_outdegree", "fibre_ratios_ports", "fibre_ratios_symmetric",
    ),
    "repro.algorithms.frequency_static": ("StaticFunctionAlgorithm",),
    "repro.algorithms.multiset_static": ("known_size_algorithm", "leader_algorithm"),
    "repro.algorithms.history_tree": ("HistoryTreeAlgorithm",),
    "repro.algorithms.onebit": ("OneBitCensusAlgorithm", "OneBitFloodingAlgorithm"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__getattr__, __dir__ = _lazy.lazy_exports(globals(), _EXPORTS)
