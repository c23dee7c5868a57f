"""Experiment harnesses: the lifting-lemma machinery run as experiments
(:mod:`.impossibility`), cell-by-cell reproduction of Tables 1 and 2
(:mod:`.tables`), and plain-text table rendering (:mod:`.reporting`).

Names resolve on first access (PEP 562), so the table harness does not
load the numpy-backed proof sweeps of :mod:`.rates`.
"""

from repro import _lazy

_EXPORTS = {
    "repro.analysis.bandwidth": (
        "bandwidth_curve", "bandwidth_sweep", "traced_bytes_curve",
    ),
    "repro.analysis.impossibility": (
        "CollapseOutcome", "demonstrate_collapse", "frequency_counterexample",
        "outputs_match", "verify_counterexample", "verify_lifting_on_outputs",
    ),
    "repro.analysis.certificate": (
        "certificate_json", "parse_certificate", "reproduction_certificate",
        "verify_certificate",
    ),
    "repro.analysis.provenance": ("Manifest", "graph_fingerprint", "network_fingerprint"),
    "repro.analysis.rates": ("ProofCheck", "sweep_proof_invariants"),
    "repro.analysis.reporting": ("metrics_table", "render_table"),
    "repro.analysis.tables": (
        "CellResult", "run_dynamic_cell", "run_static_cell", "reproduce_table1",
        "reproduce_table2",
    ),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__getattr__, __dir__ = _lazy.lazy_exports(globals(), _EXPORTS)
