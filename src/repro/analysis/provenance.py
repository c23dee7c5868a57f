"""Provenance manifests: what produced this number, exactly?

Every regenerated artifact — a Table 1/2 cell, a reproduction
certificate, a rate-sweep check, an impossibility counterexample, a
JSONL trace — carries a :class:`Manifest` recording the seed, the
network's content fingerprint, the communication model and help level,
the engine generation, and (for whole documents) the backend that drove
it.  A result without its manifest is an assertion; a result with one is
auditable: rerun the manifest's parameters and you must land on the same
bits.

Cell- and sweep-level manifests deliberately contain **only
deterministic fields** (no backend, no wall-clock).  The backend is
recorded once, on the enclosing document's manifest; every document
written today records ``"sequential"``.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional

from repro.core.engine import ENGINE_VERSION

# The fingerprint algorithm now lives in the memo layer (which caches it
# on the graph and keys its content-addressed caches with it); manifests
# and memo entries are keyed by the same bits.  Re-exported here so every
# historical importer keeps working.
from repro.core.memo import graph_fingerprint  # noqa: F401  (re-export)
from repro.graphs.digraph import DiGraph


def network_fingerprint(network: Any, rounds: int = 6) -> str:
    """A content hash for a static or dynamic network.

    A :class:`DiGraph` hashes directly; a dynamic graph hashes the
    fingerprints of its first ``rounds`` round graphs (deterministic
    generators make this a faithful identity for seeded networks).
    """
    if isinstance(network, DiGraph):
        return graph_fingerprint(network)
    parts = [type(network).__name__, str(network.n)]
    for t in range(1, rounds + 1):
        parts.append(graph_fingerprint(network.graph_at(t)))
    return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Manifest:
    """The provenance record attached to a regenerated artifact.

    ``kind`` names the artifact (``table1-cell``, ``table2-cell``,
    ``certificate``, ``rate-sweep``, ``impossibility``, ``trace``);
    ``graph_hash`` is a :func:`graph_fingerprint`/:func:`network_fingerprint`;
    ``backend`` is only set on document-level manifests (see the module
    docstring); anything artifact-specific rides in ``extra``.
    """

    kind: str
    engine_version: str = ENGINE_VERSION
    seed: Optional[int] = None
    n: Optional[int] = None
    rounds: Optional[int] = None
    graph_hash: Optional[str] = None
    model: Optional[str] = None
    knowledge: Optional[str] = None
    backend: Optional[str] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Manifest":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416 - py39-safe
        kwargs = {k: v for k, v in d.items() if k in known}
        unknown = {k: v for k, v in d.items() if k not in known}
        if unknown:
            extra = dict(kwargs.get("extra") or {})
            extra.update(unknown)
            kwargs["extra"] = extra
        return cls(**kwargs)
