"""The snapshot codec: checkpoint and resume live executions.

A running :class:`~repro.core.execution.Execution` is four pieces of
state: the round number, the per-agent local states, the position of the
per-execution scramble RNG stream, and (when tracers are attached) their
metric counters.  A :class:`Snapshot` captures all four in a versioned,
JSON-enveloped record such that *resuming is invisible*: running to round
``T`` in one process is bit-identical — states, outputs, scramble
schedule, trace digests — to running to round ``k``, snapshotting,
restoring (even in another process), and running on to ``T``.  The
property suite in ``tests/store/test_snapshot_properties.py`` pins this
across all four communication models and static and dynamic networks.

Layout of the envelope (JSON-safe, deterministically serialized by
:meth:`Snapshot.to_bytes` with sorted keys):

* identity — ``codec_version``, ``engine_version``, ``algorithm``, ``n``;
* position — ``round_number``, ``rng_state`` (the full Mersenne-Twister
  state of the scramble stream, or ``None`` when scrambling is off);
* state — ``states_blob`` (base64 pickle of the local-state vector; the
  one audited deep-serialization path, :func:`encode_states` /
  :func:`decode_states`),
  ``blob_sha256`` (integrity of the bytes), ``states_digest`` (the
  canonical :func:`~repro.core.engine.instrumentation.state_digest`,
  integrity of the *meaning* — two processes with different hash seeds
  pickle a set differently but digest it identically);
* observation — ``tracers``: the attached tracers' metric registries, in
  attach order.

**Version guard.**  :meth:`Snapshot.from_dict` and every restore path
reject a snapshot whose ``codec_version`` or ``engine_version`` differs
from the running code with :class:`SnapshotVersionError` — silently
stepping a snapshot across an engine generation would produce divergent
trajectories that *look* resumed.  Corrupted payloads raise
:class:`SnapshotIntegrityError` on decode, never garbage states.
"""

from __future__ import annotations

import base64
import hashlib
import json
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.core.engine import ENGINE_VERSION
from repro.core.engine.instrumentation import state_digest
from repro.graphs.views import ViewBuilder
from repro.store.atomic import atomic_write_bytes

#: Generation of the snapshot envelope itself.  Bump on any change to the
#: fields or their encoding; restore refuses mismatches loudly.
#: "1" was the original envelope; "2" added the ``quotient`` field
#: (snapshots of quotient-accelerated runs carry *base* states plus the
#: fibration classes — see :mod:`repro.core.engine.quotient`).
SNAPSHOT_CODEC_VERSION = "2"


class SnapshotError(ValueError):
    """Base class for snapshot encode/decode failures."""


class SnapshotVersionError(SnapshotError):
    """The snapshot was written by a different codec or engine generation."""


class SnapshotIntegrityError(SnapshotError):
    """The snapshot's payload does not match its recorded digests."""


# ---------------------------------------------------------------------- #
# the audited state-vector serialization path
# ---------------------------------------------------------------------- #

def encode_states(states: List[Any]) -> bytes:
    """Serialize a local-state vector — the single audited deep-copy /
    cross-process path for agent states (every checkpoint goes through
    here)."""
    return pickle.dumps(list(states), protocol=pickle.HIGHEST_PROTOCOL)


def decode_states(blob: bytes) -> List[Any]:
    """Inverse of :func:`encode_states`."""
    states = pickle.loads(blob)
    if not isinstance(states, list):
        raise SnapshotIntegrityError(
            f"decoded state vector is a {type(states).__name__}, not a list"
        )
    return states


# ---------------------------------------------------------------------- #
# the snapshot record
# ---------------------------------------------------------------------- #

@dataclass
class Snapshot:
    """One checkpoint of a live execution (see the module docstring)."""

    algorithm: str
    n: int
    round_number: int
    states_blob: bytes
    states_digest: int
    rng_state: Optional[List[Any]]
    tracers: List[Dict[str, Any]] = field(default_factory=list)
    codec_version: str = SNAPSHOT_CODEC_VERSION
    engine_version: str = ENGINE_VERSION
    #: ``None`` for direct runs.  For quotient-accelerated runs
    #: (:class:`~repro.core.engine.quotient.QuotientExecution`) this is
    #: ``{"base_n": ..., "classes": [...]}`` — ``states_blob`` then holds
    #: the *base* state vector (length ``base_n``) and ``classes`` maps
    #: each of the ``n`` full-graph vertices to its base vertex, which is
    #: all a restore needs to lift.  ``n`` stays the full network size.
    quotient: Optional[Dict[str, Any]] = None

    def states(self) -> List[Any]:
        """Decode the state vector, verifying both integrity digests."""
        states = decode_states(self.states_blob)
        digest = state_digest(states)
        if digest != self.states_digest:
            raise SnapshotIntegrityError(
                f"state digest mismatch: snapshot says {self.states_digest}, "
                f"decoded states digest to {digest}"
            )
        return states

    # -- envelope ------------------------------------------------------- #

    def to_dict(self) -> Dict[str, Any]:
        return {
            "codec_version": self.codec_version,
            "engine_version": self.engine_version,
            "algorithm": self.algorithm,
            "n": self.n,
            "round_number": self.round_number,
            "rng_state": self.rng_state,
            "states_b64": base64.b64encode(self.states_blob).decode("ascii"),
            "blob_sha256": hashlib.sha256(self.states_blob).hexdigest(),
            "states_digest": self.states_digest,
            "tracers": self.tracers,
            "quotient": self.quotient,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Snapshot":
        check_versions(d.get("codec_version"), d.get("engine_version"))
        try:
            blob = base64.b64decode(d["states_b64"].encode("ascii"))
        except (KeyError, AttributeError, ValueError) as exc:
            raise SnapshotIntegrityError(f"snapshot has no decodable state blob: {exc}")
        recorded = d.get("blob_sha256")
        if recorded != hashlib.sha256(blob).hexdigest():
            raise SnapshotIntegrityError(
                "state blob does not match its recorded sha256 — the snapshot "
                "file is corrupt"
            )
        return cls(
            algorithm=d["algorithm"],
            n=d["n"],
            round_number=d["round_number"],
            states_blob=blob,
            states_digest=d["states_digest"],
            rng_state=d.get("rng_state"),
            tracers=list(d.get("tracers") or []),
            quotient=d.get("quotient"),
        )

    def to_bytes(self) -> bytes:
        """Deterministic serialization of the envelope (sorted keys)."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Snapshot":
        try:
            d = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SnapshotIntegrityError(f"snapshot bytes are not a JSON envelope: {exc}")
        if not isinstance(d, dict):
            raise SnapshotIntegrityError("snapshot envelope must be a JSON object")
        return cls.from_dict(d)

    def __repr__(self) -> str:
        return (
            f"Snapshot({self.algorithm}, n={self.n}, round={self.round_number}, "
            f"codec=v{self.codec_version}/engine=v{self.engine_version})"
        )


def check_versions(codec_version: Any, engine_version: Any) -> None:
    """The restore guard: refuse snapshots from a different codec or
    engine generation (silently stepping one would produce trajectories
    that *look* resumed but diverge from the original run)."""
    if codec_version != SNAPSHOT_CODEC_VERSION:
        raise SnapshotVersionError(
            f"snapshot codec version {codec_version!r} != running codec "
            f"{SNAPSHOT_CODEC_VERSION!r}; re-run the original computation "
            "instead of restoring across codec generations"
        )
    if engine_version != ENGINE_VERSION:
        raise SnapshotVersionError(
            f"snapshot engine version {engine_version!r} != running engine "
            f"{ENGINE_VERSION!r}; trajectories are only comparable within one "
            "engine generation — recompute instead of resuming"
        )


# ---------------------------------------------------------------------- #
# capture / restore
# ---------------------------------------------------------------------- #

def _rng_state_to_json(state: Any) -> List[Any]:
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def _rng_state_from_json(payload: List[Any]) -> Any:
    version, internal, gauss_next = payload
    return (version, tuple(internal), gauss_next)


def snapshot_execution(execution) -> Snapshot:
    """Capture a :class:`Snapshot` of a live execution.

    Reads only — the execution continues unperturbed.  Attached
    :class:`~repro.core.engine.trace.Tracer` observers contribute their
    metric registries (in attach order) so a restored run's counters
    continue from the checkpoint instead of restarting at zero.

    A quotient-active :class:`~repro.core.engine.quotient.QuotientExecution`
    snapshots its *base* run: base states, base scramble stream, plus the
    fibration classes in the ``quotient`` field — exponentially smaller
    than the lifted vector, and exactly what a resume needs to continue
    bit-identically on the base.
    """
    from repro.core.engine.trace import Tracer  # engine sits below the store

    quotient = None
    if getattr(execution, "quotient_active", False):
        mb = execution.minimum_base
        quotient = {"base_n": mb.base.n, "classes": list(mb.classes)}
        stepper = execution.base_execution._stepper
    else:
        if getattr(execution, "vector_active", False):
            # Vector runs snapshot their object-level states; the packed
            # arrays are a pure function of them and rebuild on restore.
            execution._materialize()
        stepper = execution._stepper
    rng = stepper._rng
    blob = encode_states(stepper.states)
    tracers = [
        observer.registry.as_dict()
        for observer in stepper.observers
        if isinstance(observer, Tracer)
    ]
    return Snapshot(
        algorithm=execution.algorithm.name(),
        n=execution.n,
        round_number=stepper.round_number,
        states_blob=blob,
        states_digest=state_digest(stepper.states),
        rng_state=None if rng is None else _rng_state_to_json(rng.getstate()),
        tracers=tracers,
        quotient=quotient,
    )


def restore_execution(execution, snapshot: Snapshot) -> Any:
    """Restore ``snapshot`` into an existing execution, in place.

    The execution must have been constructed for the *same computation*:
    same algorithm (by name), same network size, and a scramble stream
    if and only if the snapshot recorded one.  A quotient snapshot (one
    carrying a ``quotient`` field) restores only into a quotient-active
    execution over the *same* fibration classes — and vice versa, a plain
    snapshot refuses a quotient-active execution: the scramble streams of
    base and full runs are different streams, so crossing modes would
    silently desynchronize the resumed trajectory.  Views in the decoded
    states are re-interned in the algorithm's view builder, if it has
    one (:meth:`~repro.graphs.views.ViewBuilder.adopt`).  Returns the
    execution.
    """
    from repro.core.engine.trace import MetricsRegistry, Tracer

    check_versions(snapshot.codec_version, snapshot.engine_version)
    if execution.algorithm.name() != snapshot.algorithm:
        raise SnapshotError(
            f"snapshot was taken of {snapshot.algorithm!r}, cannot restore "
            f"into an execution of {execution.algorithm.name()!r}"
        )
    if execution.n != snapshot.n:
        raise SnapshotError(
            f"snapshot has {snapshot.n} agents, execution has {execution.n}"
        )
    quotient_active = getattr(execution, "quotient_active", False)
    if snapshot.quotient is not None:
        if not quotient_active:
            raise SnapshotError(
                "snapshot was taken of a quotient-accelerated run; restore "
                "it into an Execution(..., quotient=True) whose activation "
                "succeeded (resume_execution arranges this automatically)"
            )
        if list(execution.minimum_base.classes) != list(snapshot.quotient["classes"]):
            raise SnapshotError(
                "fibration mismatch: the snapshot's quotient classes differ "
                "from this execution's — same graph, same initial "
                "configuration required"
            )
        stepper = execution.base_execution._stepper
        execution._lifted_round = -1  # invalidate the cached lifted vector
    elif quotient_active:
        raise SnapshotError(
            "snapshot was taken of a direct run; a quotient-active "
            "execution cannot continue its scramble stream — restore into "
            "a plain Execution instead"
        )
    else:
        stepper = execution._stepper
    if (stepper._rng is None) != (snapshot.rng_state is None):
        raise SnapshotError(
            "scramble mismatch: snapshot and execution disagree on whether "
            "delivery scrambling is active"
        )
    states = snapshot.states()
    builder = getattr(execution.algorithm, "builder", None)
    if isinstance(builder, ViewBuilder):
        # Decoded views are copies whose uids name views of the
        # snapshotting builder; this builder's memo would read them as
        # its own.  Re-interned, the run continues in one uid namespace.
        states = builder.adopt(states)
    stepper.states = states
    stepper.round_number = snapshot.round_number
    if getattr(execution, "vector_active", False):
        execution._repack()
    if snapshot.rng_state is not None:
        stepper._rng.setstate(_rng_state_from_json(snapshot.rng_state))
    restorable = [o for o in stepper.observers if isinstance(o, Tracer)]
    for tracer, registry_dict in zip(restorable, snapshot.tracers):
        tracer.registry = MetricsRegistry.from_dict(registry_dict)
    return execution


def resume_execution(
    snapshot: Snapshot,
    algorithm,
    network,
    check_model: bool = True,
) -> Any:
    """Build a fresh :class:`~repro.core.execution.Execution` positioned
    exactly at ``snapshot``.

    The algorithm and network are *not* serialized into snapshots (they
    are code and configuration, reconstructed from the job spec or the
    call site); this convenience wires them back together.  Scrambling is
    re-enabled iff the snapshot carries an RNG state (the seed value is
    irrelevant — the restored stream position overwrites it).

    A quotient snapshot resumes as a quotient-accelerated execution on
    ``network``: the base states are lifted along the recorded classes to
    rebuild the full configuration, and the execution is pinned to the
    recorded fibration (via
    :meth:`~repro.core.engine.quotient.QuotientExecution.adopt_partition`
    when re-activation lands on a different — e.g. coarser, if the states
    have gained symmetry since round 0 — partition), so the base scramble
    stream continues bit-identically.
    """
    from repro.core.execution import Execution

    check_versions(snapshot.codec_version, snapshot.engine_version)
    scramble_seed = None if snapshot.rng_state is None else 0
    if snapshot.quotient is not None:
        classes = list(snapshot.quotient["classes"])
        base_states = snapshot.states()
        lifted = [base_states[c] for c in classes]
        execution = Execution(
            algorithm,
            network,
            initial_states=lifted,
            scramble_seed=scramble_seed,
            check_model=check_model,
            quotient=True,
            quotient_ratio=1.0,
        )
        if (
            not execution.quotient_active
            or list(execution.minimum_base.classes) != classes
        ):
            try:
                execution.adopt_partition(classes)
            except ValueError as exc:
                raise SnapshotError(
                    f"snapshot's quotient classes are not an equitable "
                    f"partition of this network: {exc}"
                )
        return restore_execution(execution, snapshot)
    execution = Execution(
        algorithm,
        network,
        initial_states=snapshot.states(),
        scramble_seed=scramble_seed,
        check_model=check_model,
    )
    return restore_execution(execution, snapshot)


# ---------------------------------------------------------------------- #
# snapshot files and the periodic checkpoint hook
# ---------------------------------------------------------------------- #

def write_snapshot(path: Union[str, "os.PathLike"], snapshot: Snapshot) -> None:  # noqa: F821
    """Write a snapshot file atomically (a kill mid-write leaves the
    previous checkpoint intact, never a torn one)."""
    atomic_write_bytes(path, snapshot.to_bytes())


def read_snapshot(path: Union[str, "os.PathLike"]) -> Snapshot:  # noqa: F821
    """Read a snapshot file (raising :class:`SnapshotIntegrityError` /
    :class:`SnapshotVersionError` on corrupt or cross-generation files)."""
    with open(path, "rb") as fh:
        return Snapshot.from_bytes(fh.read())


class Checkpointer:
    """A round observer that persists a snapshot every ``every`` rounds.

    Attach with :meth:`Execution.checkpoint_to` (or manually via
    ``execution.attach``); each write goes through :func:`write_snapshot`,
    so the file on disk is always a complete, restorable checkpoint —
    the newest one that finished writing.  ``save()`` forces an
    off-schedule checkpoint (the batch runners call it after the final
    round so a completed run's checkpoint is never stale).
    """

    def __init__(self, execution, path, every: int = 10):
        if every < 1:
            raise ValueError("checkpoint interval must be >= 1 round")
        self.execution = execution
        self.path = path
        self.every = every
        self.saved_rounds: List[int] = []

    def on_round(self, record) -> None:
        if record.round_number % self.every == 0:
            self.save()

    def save(self) -> Snapshot:
        snapshot = snapshot_execution(self.execution)
        write_snapshot(self.path, snapshot)
        self.saved_rounds.append(snapshot.round_number)
        return snapshot
