"""Content-addressed memoization for the fibration and plan layers.

The fibration machinery (minimum bases, equitable partitions) and the
engine's compiled :class:`~repro.core.engine.plan.DeliveryPlan`\\ s are
pure functions of a graph's *content* — vertex count, edge multiset,
colors, values.  Yet the rest of the system keys them by object
*identity*: every Table-1/2 cell recomputes the minimum base of the same
probe graph, and a dynamic adversary that cycles through a small pool of
graphs recompiles a plan per round because every round materializes a
fresh ``DiGraph``.

This module closes that gap with one keying mechanism, the
**graph fingerprint** — 16 hex chars of SHA-256 over the vertex count,
the sorted edge multiset, and the canonicalized values (the *same*
algorithm, bit for bit, as the provenance manifests of
:mod:`repro.analysis.provenance`, which delegates here).  Fingerprints
are computed lazily and cached on the graph (``DiGraph._fingerprint``),
so a graph nobody memoizes never pays for hashing.  The (vertex count,
sorted edges) prefix is hashed once per *edge structure*: graphs built by
:meth:`~repro.graphs.digraph.DiGraph.with_values` /
``without_values`` share their source's edge arrays and its
:class:`~repro.graphs.digraph.EdgeCache`, and each valuation hashes only
its values into a copy of the digest kept there.
The bytes hashed, hence every fingerprint, are the same as hashing the
whole payload at once.

Which graphs get hashed: :func:`memoized_minimum_base`,
:func:`memoized_equitable_partition` and :func:`intern_graph` hash every
graph they are given (the table harness relies on that to share bases
across cells).  The plan cache looks a graph up only when it already
carries a fingerprint (:func:`cached_plan`), and quotient activation
does not consult the memo at all, so neither hashes an anonymous graph.

On top of it sit four process-local LRU caches:

* ``minimum_base``       — fingerprint → :class:`MinimumBase`, built by
  quotienting the memoized partition (no second refinement)
* ``equitable_partition`` — fingerprint → class list (copied out)
* ``delivery_plan``      — fingerprint → compiled ``DeliveryPlan``
* ``interned_graph``     — fingerprint → first-seen ``DiGraph`` instance

and one keyed by arguments rather than by a graph:

* ``sum_refutation``     — ``(model, rounds)`` → the verdict of the
  tables' §4.1 ring-collapse refutation of the sum (:func:`memoized`)

Graph *interning* (:func:`intern_graph`) maps every content-equal graph
to one representative instance, which makes the engine's identity-keyed
:class:`~repro.core.engine.plan.PlanCache` hit on revisited topologies;
the dynamic-graph layer calls it from
:meth:`~repro.dynamics.dynamic_graph.DynamicGraph.enable_interning`.

Invariants:

* **Bit-identity.**  A memo hit returns a value computed by the exact
  code a miss would run, on a content-equal graph; results are
  bit-identical with the memo layer on or off (the hypothesis suite in
  ``tests/property/test_partition_refinement.py`` pins this for whole
  table documents).
* **Per-process caches.**  Nothing here crosses process boundaries: each
  orchestrator pool child grows its own caches (fork may duplicate warm
  parent caches — that is a harmless head start, not a channel).
  Hit/miss *counters* are therefore per-process too.
* **Observable.**  :func:`memo_stats` snapshots every cache's counters;
  :func:`publish_memo_metrics` folds them into a PR-3
  ``MetricsRegistry`` (counters ``memo_<cache>_hits`` / ``_misses``),
  which is how ``python -m repro trace`` surfaces them.

Set ``REPRO_MEMO=0`` to disable every cache (lookups miss, stores are
skipped); :func:`memo_disabled` does the same for a ``with`` block.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Hashable, List, Optional, TYPE_CHECKING

from repro.envflags import env_flag

from repro.core.metrics import canonical_repr
from repro.graphs.digraph import DiGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.engine.plan import DeliveryPlan
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
    "equitable_partition": MemoCache("equitable_partition"),
    "delivery_plan": MemoCache("delivery_plan", maxsize=256),
    "interned_graph": MemoCache("interned_graph"),
    "sum_refutation": MemoCache("sum_refutation", maxsize=64),
}

_MINIMUM_BASES = _CACHES["minimum_base"]
_PARTITIONS = _CACHES["equitable_partition"]
_PLANS = _CACHES["delivery_plan"]
_INTERNED = _CACHES["interned_graph"]

_disabled_depth = 0


def memo_enabled() -> bool:
    """Whether the memo layer is live (``REPRO_MEMO=0`` — or any falsy
    spelling, see :mod:`repro.envflags` — and :func:`memo_disabled` both
    switch it off)."""
    return _disabled_depth == 0 and env_flag("REPRO_MEMO", default=True)


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
# graph interning
# ---------------------------------------------------------------------- #

def intern_graph(graph: DiGraph) -> DiGraph:
    """The canonical representative of ``graph``'s content class.

    The first graph seen with a given fingerprint becomes the
    representative; every later content-equal graph maps to it.  Because
    the engine's :class:`~repro.core.engine.plan.PlanCache` keys plans by
    object identity, interning the round graphs of a recurring schedule
    turns one plan compile per *round* into one per *distinct topology*.

    With the memo layer disabled this is the identity function.
    """
    if not memo_enabled():
        return graph
    key = graph_fingerprint(graph)
    rep = _INTERNED.get(key)
    if rep is None:
        _INTERNED.put(key, graph)
        return graph
    return rep


# ---------------------------------------------------------------------- #
# fibration memoization
# ---------------------------------------------------------------------- #

def memoized_minimum_base(graph: DiGraph) -> "MinimumBase":
    """:func:`repro.fibrations.minimum_base.minimum_base`, memoized by
    content fingerprint.

    A miss quotients the memoized partition
    (:func:`memoized_equitable_partition`) instead of refining again, so
    a caller that already decided on the class list pays only for the
    quotient.  The cached :class:`MinimumBase` references the *interned*
    representative of the content class (its ``fibration.source_graph``
    may be a content-equal twin of the argument); everything else —
    base graph, classes, fibre sizes — is a pure function of content.
    """
    from repro.fibrations.minimum_base import minimum_base, quotient_by_partition

    if not memo_enabled():
        return minimum_base(graph)
    graph = intern_graph(graph)
    key = graph_fingerprint(graph)
    mb = _MINIMUM_BASES.get(key)
    if mb is None:
        # The class list is the refiner's own output, so the quotient
        # skips the valuation check exactly as minimum_base does; it still
        # checks the fibration it builds.
        mb = quotient_by_partition(graph, memoized_equitable_partition(graph), verify=False)
        _MINIMUM_BASES.put(key, mb)
    return mb


def memoized_equitable_partition(graph: DiGraph) -> List[int]:
    """:func:`repro.fibrations.minimum_base.equitable_partition`, memoized
    by content fingerprint.  Returns a fresh list each call (the canonical
    labeling is content-determined, so hits and misses agree exactly)."""
    from repro.fibrations.minimum_base import equitable_partition

    if not memo_enabled():
        return equitable_partition(graph)
    key = graph_fingerprint(graph)
    classes = _PARTITIONS.get(key)
    if classes is None:
        classes = equitable_partition(graph)
        _PARTITIONS.put(key, classes)
    return list(classes)


# ---------------------------------------------------------------------- #
# plan memoization (consulted by PlanCache on identity misses)
# ---------------------------------------------------------------------- #

def cached_plan(graph: DiGraph) -> Optional["DeliveryPlan"]:
    """The memoized compiled plan for ``graph``'s content, if any.

    Only *already fingerprinted* graphs are looked up (the caller checks
    ``graph._fingerprint is not None`` first): a graph nobody interned or
    manifested is anonymous, and hashing it on the plan hot path would
    cost more than the compile it saves.
    """
    if not memo_enabled():
        return None
    fp = graph._fingerprint
    if fp is None:
        return None
    return _PLANS.get(fp)


def store_plan(graph: DiGraph, plan: "DeliveryPlan") -> None:
    """Record a freshly compiled plan under the graph's fingerprint —
    a no-op for anonymous (never-fingerprinted) graphs."""
    if not memo_enabled():
        return
    fp = graph._fingerprint
    if fp is not None:
        _PLANS.put(fp, plan)
