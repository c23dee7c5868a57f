"""Atomic filesystem writes: a killed process never leaves a torn file.

Every durable artifact in this repository — cached results, job
records, traces, certificates — goes through :func:`atomic_write_bytes`
or :func:`atomic_write_text`.  The recipe is the standard POSIX one:
write the full payload to a ``tempfile`` in the *destination directory*
(same filesystem, so the final step cannot degrade to a copy), flush,
``fsync``, then ``os.replace`` onto the target name.  Readers see either
the old bytes or the new bytes, never a prefix; a ``kill -9`` between any
two instructions leaves at worst an orphaned ``.tmp-*`` file, which
:func:`sweep_temp_files` (and ``python -m repro store gc``) reclaims.

This module deliberately imports nothing from the rest of the package:
the engine's trace exporter and the certificate writer route through it,
and they sit *below* the store in the import graph.
"""

from __future__ import annotations

import os
import tempfile
from typing import List, Union

#: Prefix of the temporary files the writers stage payloads in; the gc
#: sweeper only ever touches names carrying it.
TMP_PREFIX = ".tmp-"


def atomic_write_bytes(path: Union[str, os.PathLike], data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (all-or-nothing)."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(prefix=TMP_PREFIX, dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def atomic_write_text(
    path: Union[str, os.PathLike], text: str, encoding: str = "utf-8"
) -> None:
    """Write ``text`` to ``path`` atomically (all-or-nothing)."""
    atomic_write_bytes(path, text.encode(encoding))


def append_line(path: Union[str, os.PathLike], line: str) -> None:
    """Append one newline-terminated line with a single ``O_APPEND`` write.

    POSIX guarantees small ``O_APPEND`` writes land contiguously, so a
    journal appended this way is torn at worst at a line boundary —
    readers skip a trailing partial line, never mid-record garbage.
    """
    if not line.endswith("\n"):
        line += "\n"
    fd = os.open(os.fspath(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line.encode("utf-8"))
    finally:
        os.close(fd)


def sweep_temp_files(directory: Union[str, os.PathLike]) -> List[str]:
    """Delete orphaned ``.tmp-*`` staging files under ``directory``
    (recursively); returns the paths removed.  Safe to run while writers
    are live only if none is mid-write in that tree — the store's gc runs
    it on roots it owns."""
    removed: List[str] = []
    for dirpath, _dirnames, filenames in os.walk(os.fspath(directory)):
        for name in filenames:
            if name.startswith(TMP_PREFIX):
                victim = os.path.join(dirpath, name)
                try:
                    os.unlink(victim)
                    removed.append(victim)
                except OSError:
                    pass
    return removed
