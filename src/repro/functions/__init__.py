"""Function classes of the paper: set-, frequency-, and multiset-based.

:mod:`.frequency` implements frequency functions ``ν_v`` and the canonical
frequenced vector ``⟨ν⟩`` (Section 2.3); :mod:`.classes` the three function
classes and empirical classifiers; :mod:`.library` the concrete functions
used by the experiments (min, max, average, sum, threshold predicates,
quot-sum, ...); :mod:`.continuity` the notion of δ-continuity in frequency
(Section 5.4).

Names resolve on first access (PEP 562).
"""

from repro import _lazy

_EXPORTS = {
    "repro.functions.frequency": (
        "FrequencyFunction", "frequencies_of", "canonical_vector",
    ),
    "repro.functions.classes": (
        "FunctionClass", "NamedFunction", "frequency_based", "is_class_empirically",
        "multiset_based", "set_based",
    ),
    "repro.functions.library": (
        "AVERAGE", "COUNT_DISTINCT", "EXTENDED_LIBRARY", "FUNCTION_LIBRARY", "MAXIMUM",
        "MEDIAN", "MINIMUM", "MODE", "SIZE", "SUM", "SUPPORT_SET", "VARIANCE",
        "frequency_of", "multiplicity_of", "quot_sum", "threshold_predicate",
    ),
    "repro.functions.continuity": ("is_continuous_in_frequency_empirically",),
}

__all__ = [
    "AVERAGE",
    "COUNT_DISTINCT",
    "EXTENDED_LIBRARY",
    "FUNCTION_LIBRARY",
    "MEDIAN",
    "MODE",
    "VARIANCE",
    "FrequencyFunction",
    "FunctionClass",
    "MAXIMUM",
    "MINIMUM",
    "NamedFunction",
    "SIZE",
    "SUM",
    "SUPPORT_SET",
    "canonical_vector",
    "frequencies_of",
    "frequency_based",
    "frequency_of",
    "is_class_empirically",
    "is_continuous_in_frequency_empirically",
    "multiplicity_of",
    "multiset_based",
    "quot_sum",
    "set_based",
    "threshold_predicate",
]

__getattr__, __dir__ = _lazy.lazy_exports(globals(), _EXPORTS)
