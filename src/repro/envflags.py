"""One parser for every ``REPRO_*`` boolean environment switch.

The engine grew its feature flags one at a time — ``REPRO_MEMO``,
``REPRO_QUOTIENT``, ``REPRO_VECTOR`` — and each site initially parsed
the variable by hand, which is how ``REPRO_MEMO=0`` *disabled*
something while ``REPRO_QUOTIENT=false`` silently meant "off" only
because it wasn't the literal ``"1"``.  :func:`env_flag` is the single
shared reading:

* the **falsy spellings** ``0``, ``false``, ``no``, ``off`` and the empty
  string always disable, whatever the flag's default;
* the **truthy spellings** ``1``, ``true``, ``yes``, ``on`` always enable;
* an unset variable — or an unrecognized value — yields ``default``, so
  a typo can never silently flip a flag away from its documented default.

Spellings are case-insensitive and surrounding whitespace is ignored.
This module imports nothing from the package (it is a leaf, usable from
``core.memo`` and ``store.cache`` alike without cycles).
"""

from __future__ import annotations

import math
import os
from typing import FrozenSet, Optional

#: Spellings that always disable a flag (case-insensitive, stripped).
FALSY: FrozenSet[str] = frozenset({"", "0", "false", "no", "off"})
#: Spellings that always enable a flag.
TRUTHY: FrozenSet[str] = frozenset({"1", "true", "yes", "on"})


def parse_flag(raw: "str | None", default: bool = False) -> bool:
    """Interpret one raw string (``None`` = unset) under the shared
    truthy/falsy table."""
    if raw is None:
        return default
    value = raw.strip().lower()
    if value in FALSY:
        return False
    if value in TRUTHY:
        return True
    return default


def env_flag(name: str, default: bool = False) -> bool:
    """The boolean value of environment variable ``name``.

    ``default`` is returned when the variable is unset or holds an
    unrecognized spelling; the canonical falsy/truthy spellings win over
    the default in both directions.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    return parse_flag(raw, default=default)


def env_float(
    name: str, default: float, minimum: Optional[float] = None
) -> float:
    """A float-valued environment variable with validation.

    The scheduler's timing knobs (``REPRO_HEARTBEAT_SECONDS=...``,
    ``REPRO_LEASE_STALE_SECONDS=...``) route through here.  Unset, empty,
    unparsable, non-finite, and below-``minimum`` values all yield
    ``default`` — a typo'd interval can never make every lease look
    permanently stale (or permanently fresh).
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    raw = raw.strip()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        return default
    if not math.isfinite(value):
        return default
    if minimum is not None and value < minimum:
        return default
    return value


def env_int(
    name: str,
    default: int,
    minimum: Optional[int] = None,
    maximum: Optional[int] = None,
) -> int:
    """An integer-valued environment variable with validation.

    The service's listener knobs (``REPRO_SERVICE_PORT=...``,
    ``REPRO_SERVICE_BACKLOG=...``) route through here — same contract as
    :func:`env_float`: unset, empty, unparsable, and out-of-range values
    all yield ``default``, so a typo'd port can never make the listener
    bind somewhere surprising.  Note the range is inclusive on both ends
    and ``minimum`` may legitimately be ``0`` (port 0 = bind ephemerally).
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    raw = raw.strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    if minimum is not None and value < minimum:
        return default
    if maximum is not None and value > maximum:
        return default
    return value


def env_path(name: str) -> "str | None":
    """A path-valued environment variable, or ``None``.

    Unset, empty, and whitespace-only all mean "not configured" — the
    same reading everywhere (``REPRO_STORE`` uses this), so exporting
    ``REPRO_STORE=""`` disables the store instead of opening one rooted
    at the empty path.
    """
    raw = os.environ.get(name, "").strip()
    return raw or None
