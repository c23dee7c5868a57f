"""The content-addressed result store: compute once, serve from disk.

Every expensive artifact this repository regenerates — a Table 1/2 cell,
a proof-invariant sweep check, a whole certificate document — is a pure
function of its parameters and the engine generation.  The
:class:`ResultStore` persists those results on disk keyed by
:func:`result_key`, a SHA-256 over the canonical JSON of ``(kind,
params, ENGINE_VERSION)`` — the same deterministic-identity discipline
as the PR-3/PR-4 provenance fingerprints and memo caches, extended
across process lifetimes.  A warm store turns ``reproduce_table1`` into
16 file reads (``benchmarks/bench_store.py`` holds the ≥5× bar).

Durability discipline:

* **Atomic writes.**  Entries are staged with
  :func:`~repro.store.atomic.atomic_write_text`; a ``kill -9`` leaves
  either the old entry or the new one, never a torn file.
* **Corruption heals, never crashes.**  Every entry embeds a SHA-256 of
  its payload.  On read, undecodable JSON, a key mismatch, or a digest
  mismatch quarantines the entry (it is deleted and counted in
  ``stats()['healed']``) and reports a miss — the caller recomputes and
  re-persists.  A flipped bit costs one recomputation, not an exception.
* **Deterministic bytes.**  Entries carry no timestamps and serialize
  with sorted keys, so two runs that compute the same result write the
  same bytes — which is what makes the kill/resume scenario's
  byte-identity assertion possible.

Keys version with the engine: a new ``ENGINE_VERSION`` changes every
key, so stale generations are never served (``gc(prune_versions=True)``
reclaims their files).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.core.engine import ENGINE_VERSION
from repro.envflags import env_path
from repro.store.atomic import atomic_write_text, sweep_temp_files

#: Environment variable naming a store root that every harness entry
#: point (tables, sweeps, certificates, the CLI) consults by default.
STORE_ENV = "REPRO_STORE"

#: The store-format stamp every entry carries as ``"snapshot_codec"``.
#: The field is named after a codec that no longer exists; name and value
#: stay so existing entries (and the served bytes of each) stay valid,
#: and :meth:`ResultStore.gc` prunes entries with any other stamp or none.
SNAPSHOT_CODEC_VERSION = "2"


def canonical_params(params: Dict[str, Any]) -> str:
    """Canonical JSON for a parameter dict (sorted keys, no whitespace)."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"), default=str)


def result_key(kind: str, params: Dict[str, Any], engine_version: str = ENGINE_VERSION) -> str:
    """The content address of one result: 32 hex chars of SHA-256 over
    the canonical ``(kind, params, engine_version)`` triple."""
    payload = "\x1f".join([kind, engine_version, canonical_params(params)])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


class ResultStore:
    """An on-disk map from :func:`result_key` to a JSON payload.

    ``root`` is created on first use.  Entries live two directory levels
    deep (``results/<key[:2]>/<key>.json``) so large stores don't stack
    thousands of files in one directory; a newline-delimited journal
    (``journal.jsonl``, append-only, line-atomic) records every put for
    post-mortem inspection.
    """

    def __init__(self, root: Union[str, os.PathLike]):
        self.root = os.fspath(root)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.healed = 0

    # -- layout --------------------------------------------------------- #

    @property
    def results_dir(self) -> str:
        return os.path.join(self.root, "results")

    @property
    def journal_path(self) -> str:
        return os.path.join(self.root, "journal.jsonl")

    def entry_path(self, key: str) -> str:
        return os.path.join(self.results_dir, key[:2], f"{key}.json")

    def _ensure_dir(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)

    # -- the map -------------------------------------------------------- #

    def _read_entry(self, key: str) -> Optional[Tuple[bytes, Dict[str, Any]]]:
        """The shared read path of :meth:`get` and :meth:`get_bytes`:
        raw entry bytes plus the digest-verified payload, or ``None``.

        A corrupt entry — unreadable, undecodable, mis-keyed, or failing
        its digest — is quarantined (deleted) and reported as a miss, so
        callers always recompute their way back to a healthy store.
        """
        path = self.entry_path(key)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            self._quarantine(path)
            self.misses += 1
            return None
        try:
            entry = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            self._quarantine(path)
            self.misses += 1
            return None
        payload = self._validate(entry, key)
        if payload is None:
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return raw, payload

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The payload stored under ``key``, or ``None`` (corrupt entries
        quarantine and read as misses — see :meth:`_read_entry`)."""
        entry = self._read_entry(key)
        return None if entry is None else entry[1]

    def get_bytes(self, key: str) -> Optional[bytes]:
        """The *raw entry bytes* stored under ``key``, or ``None``.

        The zero-re-encode read path: the bytes returned are exactly the
        deterministic file contents :meth:`put` wrote (envelope included),
        digest-verified on the way out — what the experiment service
        serves for ``GET /v1/results/{key}`` so warm traffic never pays a
        JSON round-trip.  Corruption quarantines and reads as a miss,
        exactly like :meth:`get` (the two share :meth:`_read_entry`).
        """
        entry = self._read_entry(key)
        return None if entry is None else entry[0]

    def put(self, key: str, payload: Dict[str, Any], kind: str = "",
            params: Optional[Dict[str, Any]] = None) -> None:
        """Persist ``payload`` under ``key`` (atomic, deterministic bytes)."""
        entry = {
            "key": key,
            "kind": kind,
            "params": params or {},
            "engine_version": ENGINE_VERSION,
            "snapshot_codec": SNAPSHOT_CODEC_VERSION,
            "payload": payload,
            "payload_sha256": self._digest(payload),
        }
        path = self.entry_path(key)
        self._ensure_dir(path)
        atomic_write_text(path, json.dumps(entry, sort_keys=True, indent=1))
        self._journal({"op": "put", "key": key, "kind": kind})
        self.puts += 1

    def invalidate(self, key: str) -> bool:
        """Drop one entry (e.g. its payload failed to decode downstream)."""
        try:
            os.unlink(self.entry_path(key))
            self._journal({"op": "invalidate", "key": key})
            return True
        except OSError:
            return False

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self.entry_path(key))

    # -- integrity ------------------------------------------------------ #

    @staticmethod
    def _digest(payload: Any) -> str:
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
        ).hexdigest()

    def _validate(self, entry: Any, key: str) -> Optional[Dict[str, Any]]:
        if not isinstance(entry, dict) or "payload" not in entry:
            return None
        if entry.get("key") != key:
            return None
        if entry.get("payload_sha256") != self._digest(entry["payload"]):
            return None
        return entry["payload"]

    def _quarantine(self, path: str) -> None:
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - raced or unwritable
            pass
        self.healed += 1
        self._journal({"op": "heal", "path": os.path.basename(path)})

    def _journal(self, record: Dict[str, Any]) -> None:
        from repro.store.atomic import append_line

        try:
            os.makedirs(self.root, exist_ok=True)
            append_line(self.journal_path, json.dumps(record, sort_keys=True))
        except OSError:  # pragma: no cover - journal is best-effort
            pass

    # -- maintenance ---------------------------------------------------- #

    def entries(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Yield ``(key, entry)`` for every readable entry file."""
        results = self.results_dir
        if not os.path.isdir(results):
            return
        for shard in sorted(os.listdir(results)):
            shard_dir = os.path.join(results, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if not name.endswith(".json"):
                    continue
                key = name[: -len(".json")]
                try:
                    with open(os.path.join(shard_dir, name), "r", encoding="utf-8") as fh:
                        yield key, json.load(fh)
                except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                    continue

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "healed": self.healed,
            "entries": len(self),
        }

    def gc(self, prune_versions: bool = True) -> Dict[str, int]:
        """Reclaim junk: orphaned temp files, corrupt entries, and (by
        default) entries written by other engine generations or with a
        store-format stamp other than :data:`SNAPSHOT_CODEC_VERSION`
        (pre-quotient entries lack the stamp entirely and are pruned
        too).  Returns counts of what was removed."""
        removed_tmp = len(sweep_temp_files(self.root)) if os.path.isdir(self.root) else 0
        removed_corrupt = 0
        removed_stale = 0
        removed_codec = 0
        results = self.results_dir
        if os.path.isdir(results):
            for shard in sorted(os.listdir(results)):
                shard_dir = os.path.join(results, shard)
                if not os.path.isdir(shard_dir):
                    continue
                for name in sorted(os.listdir(shard_dir)):
                    if not name.endswith(".json"):
                        continue
                    path = os.path.join(shard_dir, name)
                    key = name[: -len(".json")]
                    try:
                        with open(path, "r", encoding="utf-8") as fh:
                            entry = json.load(fh)
                    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                        self._quarantine(path)
                        removed_corrupt += 1
                        continue
                    if self._validate(entry, key) is None:
                        self._quarantine(path)
                        removed_corrupt += 1
                    elif prune_versions and entry.get("engine_version") != ENGINE_VERSION:
                        try:
                            os.unlink(path)
                            removed_stale += 1
                        except OSError:  # pragma: no cover
                            pass
                    elif (
                        prune_versions
                        and entry.get("snapshot_codec") != SNAPSHOT_CODEC_VERSION
                    ):
                        try:
                            os.unlink(path)
                            removed_codec += 1
                        except OSError:  # pragma: no cover
                            pass
        return {
            "temp_files": removed_tmp,
            "corrupt_entries": removed_corrupt,
            "stale_versions": removed_stale,
            "stale_codecs": removed_codec,
        }

    def __repr__(self) -> str:
        return f"ResultStore({self.root!r}, {self.hits} hits, {self.misses} misses)"


# ---------------------------------------------------------------------- #
# resolution and the fetch-or-compute idiom
# ---------------------------------------------------------------------- #

def default_store() -> Optional[ResultStore]:
    """The store named by ``REPRO_STORE`` in the environment, or ``None``.

    This is what every harness entry point falls back to when no explicit
    ``store=`` argument is given, so exporting ``REPRO_STORE=/path`` makes
    tables, sweeps, and certificates durable without code changes.
    Empty or whitespace-only values mean "no store", via the shared
    :func:`repro.envflags.env_path` reading.
    """
    root = env_path(STORE_ENV)
    return ResultStore(root) if root else None


def resolve_store(store: Union[None, str, os.PathLike, ResultStore]) -> Optional[ResultStore]:
    """Normalize a ``store=`` argument: ``None`` defers to the
    environment, a path opens a store there, a store passes through."""
    if store is None:
        return default_store()
    if isinstance(store, ResultStore):
        return store
    return ResultStore(store)


def fetch_or_compute(
    store: Optional[ResultStore],
    kind: str,
    params: Dict[str, Any],
    compute: Callable[[], Any],
    encode: Callable[[Any], Dict[str, Any]],
    decode: Callable[[Dict[str, Any]], Any],
) -> Any:
    """The store's one consumption pattern: serve the cached result for
    ``(kind, params)`` if present and decodable, else compute, persist,
    and return.  With ``store=None`` this is just ``compute()``."""
    if store is None:
        return compute()
    key = result_key(kind, params)
    payload = store.get(key)
    if payload is not None:
        try:
            return decode(payload)
        except Exception:
            # A payload the current decoder rejects is as good as corrupt.
            store.invalidate(key)
            store.healed += 1
    value = compute()
    store.put(key, encode(value), kind=kind, params=params)
    return value


def fetch_or_compute_bytes(
    store: ResultStore,
    kind: str,
    params: Dict[str, Any],
    compute: Callable[[], Any],
    encode: Callable[[Any], Dict[str, Any]],
) -> bytes:
    """:func:`fetch_or_compute` for callers that only need *bytes*.

    A warm hit is one digest-checked file read (:meth:`ResultStore.get_bytes`)
    — no JSON decode of the payload, no re-encode.  A miss computes,
    persists, and returns the exact bytes now on disk, so the caller's
    view is always byte-identical to what every later hit will serve.
    Unlike :func:`fetch_or_compute` this requires a store: entry bytes
    only exist on disk.
    """
    key = result_key(kind, params)
    raw = store.get_bytes(key)
    if raw is not None:
        return raw
    store.put(key, encode(compute()), kind=kind, params=params)
    raw = store.get_bytes(key)
    if raw is None:  # pragma: no cover - put/read race with a deleter
        raise RuntimeError(f"store entry {key} vanished immediately after put")
    return raw
