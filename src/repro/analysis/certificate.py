"""Machine-readable reproduction certificates, with provenance.

``python -m repro --json`` (or :func:`reproduction_certificate` directly)
emits a JSON document recording, for every cell of Tables 1 and 2, the
measured function class, the paper's claim, the probe details, the cell's
provenance manifest (seed, network fingerprint, model, help level, engine
generation), and the overall verdict — the artifact a CI pipeline
archives to prove the reproduction still holds.

The document is *round-trippable and re-verifiable*: :func:`parse_certificate`
reads the JSON back (validating its shape), and :func:`verify_certificate`
independently re-derives every cell's expected class from
:mod:`repro.core.computability`, recomputes each consistency flag and the
summary, and checks the manifests — so an archived certificate can be
audited without trusting the process that wrote it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.analysis.provenance import ENGINE_VERSION, Manifest
from repro.analysis.tables import (
    CellResult,
    cell_to_payload,
    reproduce_table1,
    reproduce_table2,
)
from repro.core.computability import computable_class
from repro.core.engine import EngineFlags
from repro.core.models import CommunicationModel
from repro.core.network_class import Knowledge

_REQUIRED_KEYS = ("paper", "parameters", "manifest", "table1", "table2", "summary")
_REQUIRED_CELL_KEYS = (
    "model", "knowledge", "dynamic", "measured_class", "paper_class",
    "open_question", "consistent", "details", "manifest",
)

#: Cell records in certificates are exactly the store's cell payloads, so
#: a certificate assembled from a warm store is byte-identical to one
#: computed from scratch.
_cell_record = cell_to_payload


def reproduction_certificate(
    n: int = 6,
    seed: int = 0,
    store=None,
    engine: EngineFlags = EngineFlags(),
) -> Dict[str, Any]:
    """Run both tables and assemble the certificate document.

    The document-level manifest records ``backend: "sequential"``; the
    per-cell manifests stay backend-free.  ``store`` follows the same
    contract as the table functions: individual cells are served from
    the durable result store when warm and persisted when cold.
    ``engine`` follows the tables' contract too: cells are
    byte-identical on every backend, so it never appears in the
    document itself.
    """
    table1 = [
        _cell_record(r)
        for r in reproduce_table1(n=n, seed=seed, store=store, engine=engine)
    ]
    table2 = [
        _cell_record(r)
        for r in reproduce_table2(n=min(n, 6), seed=seed, store=store, engine=engine)
    ]
    all_cells = table1 + table2
    manifest = Manifest(kind="certificate", seed=seed, n=n, backend="sequential")
    return {
        "paper": (
            "Know your audience: Communication model and computability in "
            "anonymous networks (Charron-Bost & Lambein-Monette, PODC 2024)"
        ),
        "parameters": {"n": n, "seed": seed},
        "manifest": manifest.to_dict(),
        "table1": table1,
        "table2": table2,
        "summary": {
            "cells": len(all_cells),
            "consistent": sum(c["consistent"] for c in all_cells),
            "open_cells_demonstrated": sum(
                1 for c in all_cells if c["open_question"] and c["measured_class"]
            ),
            "verdict": "PASS" if all(c["consistent"] for c in all_cells) else "FAIL",
        },
    }


def certificate_json(
    n: int = 6,
    seed: int = 0,
    indent: int = 2,
    store=None,
) -> str:
    return json.dumps(reproduction_certificate(n=n, seed=seed, store=store), indent=indent)


def write_certificate(path, doc: Dict[str, Any], indent: int = 2) -> None:
    """Write a certificate document to ``path`` atomically.

    A crash mid-write leaves either the previous document or the new one,
    never a torn file — CI archives these, so a half-written artifact must
    be impossible.
    """
    from repro.store.atomic import atomic_write_text

    atomic_write_text(path, json.dumps(doc, indent=indent) + "\n")


# ---------------------------------------------------------------------- #
# round trip: parse and re-verify
# ---------------------------------------------------------------------- #

def parse_certificate(text: str) -> Dict[str, Any]:
    """Parse certificate JSON, validating the document's shape.

    Raises ``ValueError`` on a document that is not a certificate (missing
    sections or malformed cells); returns the parsed dict otherwise.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("certificate must be a JSON object")
    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        raise ValueError(f"certificate is missing sections: {missing}")
    for table in ("table1", "table2"):
        for i, cell in enumerate(doc[table]):
            absent = [k for k in _REQUIRED_CELL_KEYS if k not in cell]
            if absent:
                raise ValueError(f"{table}[{i}] is missing keys: {absent}")
    return doc


def verify_certificate(doc: Dict[str, Any]) -> List[str]:
    """Independently re-verify a parsed certificate; returns problems.

    An empty list means the document is internally sound: every cell's
    paper-side claim matches :func:`repro.core.computability.computable_class`,
    every consistency flag re-derives from the recorded measurement, the
    summary recounts, and every cell carries a manifest whose parameters
    match the document's.  (This checks the *document*, not the world —
    rerunning the manifests' parameters and comparing is the second half
    of an audit, exercised by the round-trip tests.)
    """
    problems: List[str] = []
    params = doc["parameters"]
    for table, dynamic in (("table1", False), ("table2", True)):
        for cell in doc[table]:
            where = f"{table}[{cell['model']}/{cell['knowledge']}]"
            try:
                model = CommunicationModel(cell["model"])
                knowledge = Knowledge(cell["knowledge"])
            except ValueError as exc:
                problems.append(f"{where}: unknown enum value ({exc})")
                continue
            if cell["dynamic"] is not dynamic:
                problems.append(f"{where}: dynamic flag contradicts its table")
            expected = computable_class(model, knowledge, dynamic=dynamic)
            if cell["paper_class"] != expected.label():
                problems.append(
                    f"{where}: paper_class {cell['paper_class']!r} != "
                    f"{expected.label()!r} from computability tables"
                )
            if cell["open_question"] is not expected.open_question:
                problems.append(f"{where}: open_question flag is wrong")
            if expected.open_question:
                rederived = cell["measured_class"] is not None
            else:
                rederived = cell["measured_class"] == expected.function_class.label
            if cell["consistent"] is not rederived:
                problems.append(
                    f"{where}: consistent={cell['consistent']} does not re-derive "
                    f"from measured_class={cell['measured_class']!r}"
                )
            manifest = cell.get("manifest")
            if manifest is None:
                problems.append(f"{where}: cell carries no provenance manifest")
            else:
                if manifest.get("engine_version") != ENGINE_VERSION:
                    problems.append(f"{where}: manifest engine_version mismatch")
                if manifest.get("seed") != params["seed"]:
                    problems.append(f"{where}: manifest seed != parameters.seed")
                if not manifest.get("graph_hash"):
                    problems.append(f"{where}: manifest has no network fingerprint")
                if manifest.get("model") != cell["model"] or (
                    manifest.get("knowledge") != cell["knowledge"]
                ):
                    problems.append(f"{where}: manifest model/knowledge mismatch")

    cells = doc["table1"] + doc["table2"]
    summary = doc["summary"]
    recount = {
        "cells": len(cells),
        "consistent": sum(c["consistent"] for c in cells),
        "open_cells_demonstrated": sum(
            1 for c in cells if c["open_question"] and c["measured_class"]
        ),
        "verdict": "PASS" if all(c["consistent"] for c in cells) else "FAIL",
    }
    for key, value in recount.items():
        if summary.get(key) != value:
            problems.append(f"summary.{key} = {summary.get(key)!r}, recount says {value!r}")
    # Certificates written by earlier versions may record "parallel".
    top = doc.get("manifest") or {}
    if top.get("kind") != "certificate":
        problems.append("document manifest missing or not kind='certificate'")
    elif top.get("backend") not in ("sequential", "parallel"):
        problems.append("document manifest does not record its backend")
    return problems
