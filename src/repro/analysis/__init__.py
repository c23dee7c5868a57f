"""Experiment harnesses: the lifting-lemma machinery run as experiments
(:mod:`.impossibility`), cell-by-cell reproduction of Tables 1 and 2
(:mod:`.tables`), and plain-text table rendering (:mod:`.reporting`)."""

from repro.analysis.bandwidth import bandwidth_curve, bandwidth_sweep, traced_bytes_curve
from repro.analysis.impossibility import (
    CollapseOutcome,
    demonstrate_collapse,
    frequency_counterexample,
    outputs_match,
    verify_counterexample,
    verify_lifting_on_outputs,
)
from repro.analysis.certificate import (
    certificate_json,
    parse_certificate,
    reproduction_certificate,
    verify_certificate,
)
from repro.analysis.provenance import (
    Manifest,
    graph_fingerprint,
    network_fingerprint,
)
from repro.analysis.rates import ProofCheck, sweep_proof_invariants
from repro.analysis.reporting import metrics_table, render_table
from repro.analysis.tables import (
    CellResult,
    run_dynamic_cell,
    run_static_cell,
    reproduce_table1,
    reproduce_table2,
)

__all__ = [
    "CellResult",
    "CollapseOutcome",
    "Manifest",
    "ProofCheck",
    "bandwidth_curve",
    "bandwidth_sweep",
    "certificate_json",
    "demonstrate_collapse",
    "frequency_counterexample",
    "graph_fingerprint",
    "metrics_table",
    "network_fingerprint",
    "outputs_match",
    "parse_certificate",
    "render_table",
    "reproduce_table1",
    "reproduce_table2",
    "reproduction_certificate",
    "run_dynamic_cell",
    "run_static_cell",
    "sweep_proof_invariants",
    "traced_bytes_curve",
    "verify_certificate",
    "verify_counterexample",
    "verify_lifting_on_outputs",
]
