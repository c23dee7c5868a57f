"""Content-addressed memoization for the paper tables.

The tables rebuild the same probe graphs cell after cell, and refute the
sum with the same §4.1 ring collapse for every cell of a model.  Both
results are pure functions of their inputs, so this module keeps them in
two process-local LRU caches:

* ``minimum_base``   — graph fingerprint → :class:`MinimumBase`
  (:func:`memoized_minimum_base`)
* ``sum_refutation`` — ``(model, rounds)`` → the verdict of the tables'
  §4.1 ring-collapse refutation of the sum (:func:`memoized`)

The key of a graph is its **fingerprint** — 16 hex chars of SHA-256 over
the vertex count, the sorted edge multiset, and the canonicalized values
(the *same* algorithm, bit for bit, as the provenance manifests of
:mod:`repro.analysis.provenance`, which delegates here).  Fingerprints
are computed lazily and cached on the graph (``DiGraph._fingerprint``),
so a graph nobody memoizes or manifests never pays for hashing.  The
(vertex count, sorted edges) prefix is hashed once per *edge structure*:
graphs built by :meth:`~repro.graphs.digraph.DiGraph.with_values` /
``without_values`` share their source's edge arrays and its
:class:`~repro.graphs.digraph.EdgeCache`, and each valuation hashes only
its values into a copy of the digest kept there.  The bytes hashed,
hence every fingerprint, are the same as hashing the whole payload at
once.

:func:`memoized_minimum_base` hashes every graph it is given (the table
harness relies on that to share bases across cells), and provenance
manifests hash the networks they record.  The engine hashes nothing: its
:class:`~repro.core.engine.plan.PlanCache` keys plans by graph identity,
and quotient activation refines the graph it runs on.

Invariants:

* **Bit-identity.**  A memo hit returns a value computed by the exact
  code a miss would run, on a content-equal graph; results are
  bit-identical with the memo layer on or off (the hypothesis suite in
  ``tests/property/test_partition_refinement.py`` pins this for whole
  table documents).  :func:`memo_disabled` is that reference path: inside
  it every call computes.
* **Per-process caches.**  Nothing here crosses process boundaries: each
  orchestrator pool child grows its own caches (fork may duplicate warm
  parent caches — that is a harmless head start, not a channel).
  Hit/miss *counters* are therefore per-process too.
* **Observable.**  :func:`memo_stats` snapshots every cache's counters;
  :func:`publish_memo_metrics` folds them into a ``MetricsRegistry``
  (counters ``memo_<cache>_hits`` / ``_misses``), which is how
  ``python -m repro trace`` surfaces them.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Hashable, Optional, TYPE_CHECKING

from repro.core.metrics import canonical_repr
from repro.graphs.digraph import DiGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.fibrations.minimum_base import MinimumBase


# ---------------------------------------------------------------------- #
# fingerprints
# ---------------------------------------------------------------------- #

def graph_fingerprint(graph: DiGraph) -> str:
    """A content hash of a :class:`DiGraph` — stable across processes.

    Hashes the vertex count, the sorted edge multiset (source, target,
    color) and the canonicalized vertex values; 16 hex chars of SHA-256.
    Isomorphic-but-relabelled graphs hash differently on purpose: the
    provenance manifests pin the *exact* network an experiment ran on,
    and they use this very function
    (:func:`repro.analysis.provenance.graph_fingerprint` delegates here).

    The (vertex count, sorted edges) prefix is hashed once per edge
    structure and kept in the graph's shared
    :class:`~repro.graphs.digraph.EdgeCache`; each
    valuation hashes only its values, into a copy of that digest.  The
    result is cached on the graph (graphs are immutable), so repeated
    fingerprinting is one attribute read.
    """
    fp = graph._fingerprint
    if fp is None:
        cache = graph.edge_cache
        if cache.digest is None:
            cache.digest = _hash_edges(graph)
        digest = cache.digest.copy()
        digest.update(canonical_repr(graph.values).encode("utf-8"))
        fp = digest.hexdigest()[:16]
        graph._fingerprint = fp
    return fp


def _hash_edges(graph: DiGraph):
    """SHA-256 over the payload prefix every valuation of ``graph``'s edge
    structure shares: the vertex count, then each sorted edge, each part
    ``\x1f``-terminated.  Each distinct color object is canonicalized
    once (most graphs carry one color, or one per port)."""
    reprs: Dict[int, str] = {}
    keyed = []
    for s, t, color in graph.edge_specs():
        r = reprs.get(id(color))
        if r is None:
            r = reprs[id(color)] = canonical_repr(color)
        keyed.append((s, t, r))
    keyed.sort()
    prefix = f"{graph.n}\x1f" + "".join(f"{s}>{t}#{c}\x1f" for s, t, c in keyed)
    return hashlib.sha256(prefix.encode("utf-8"))


# ---------------------------------------------------------------------- #
# the cache primitive
# ---------------------------------------------------------------------- #

class MemoCache:
    """A named, bounded, LRU mapping with hit/miss counters."""

    __slots__ = ("name", "maxsize", "hits", "misses", "_data")

    def __init__(self, name: str, maxsize: int = 512):
        if maxsize < 1:
            raise ValueError("a memo cache needs room for at least one entry")
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable) -> Optional[Any]:
        value = self._data.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        self._data.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry *and* reset the counters."""
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "size": len(self._data)}

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __repr__(self) -> str:
        return (
            f"MemoCache({self.name!r}, {len(self._data)}/{self.maxsize} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )


#: The process-local caches, in publication order.
_CACHES: Dict[str, MemoCache] = {
    "minimum_base": MemoCache("minimum_base"),
    "sum_refutation": MemoCache("sum_refutation", maxsize=64),
}

_disabled_depth = 0


def memo_enabled() -> bool:
    """Whether the memo layer is live (:func:`memo_disabled` switches it
    off)."""
    return _disabled_depth == 0


@contextmanager
def memo_disabled():
    """Run a block with every memo cache bypassed (reentrant)."""
    global _disabled_depth
    _disabled_depth += 1
    try:
        yield
    finally:
        _disabled_depth -= 1


def clear_memos() -> None:
    """Empty every cache and zero the counters (tests and benchmarks)."""
    for cache in _CACHES.values():
        cache.clear()


def memo_stats() -> Dict[str, Dict[str, int]]:
    """Per-cache ``{"hits", "misses", "size"}`` snapshot, by cache name."""
    return {name: cache.stats() for name, cache in sorted(_CACHES.items())}


def publish_memo_metrics(registry, baseline: Optional[Dict[str, Dict[str, int]]] = None) -> None:
    """Fold memo counters into a ``MetricsRegistry`` as counters
    ``memo_<cache>_hits`` / ``memo_<cache>_misses``.

    ``baseline`` — a prior :func:`memo_stats` snapshot — scopes the
    numbers to one run: only the delta since the snapshot is published.
    """
    base = baseline or {}
    for name, stats in memo_stats().items():
        prior = base.get(name, {})
        registry.counter(f"memo_{name}_hits").inc(stats["hits"] - prior.get("hits", 0))
        registry.counter(f"memo_{name}_misses").inc(stats["misses"] - prior.get("misses", 0))


def memoized(cache: str, key: Hashable, compute: Callable[[], Any]) -> Any:
    """``compute()``, kept in the named cache under ``key`` — for pure
    functions keyed by their (hashable) arguments.  ``compute`` must not
    return ``None`` (a miss reads as ``None``).  With the memo layer off
    every call computes."""
    if not memo_enabled():
        return compute()
    memo = _CACHES[cache]
    value = memo.get(key)
    if value is None:
        value = compute()
        memo.put(key, value)
    return value


# ---------------------------------------------------------------------- #
# fibration memoization
# ---------------------------------------------------------------------- #

def memoized_minimum_base(graph: DiGraph) -> "MinimumBase":
    """:func:`repro.fibrations.minimum_base.minimum_base`, memoized by
    content fingerprint.

    The cached :class:`MinimumBase` references the first graph of its
    content class that missed (its ``fibration.source_graph`` may be a
    content-equal twin of the argument); everything else — base graph,
    classes, fibre sizes — is a pure function of content.
    """
    from repro.fibrations.minimum_base import minimum_base

    return memoized("minimum_base", graph_fingerprint(graph), lambda: minimum_base(graph))
