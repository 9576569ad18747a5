"""The determinism contract's shared vocabulary.

Every parity guarantee in this repository — engine v1/v2 payload parity,
byte-identical shuffle ledgers at any worker count, stable
``deterministic_sha256`` digests — rests on one split: a *deterministic
section* (a pure function of the workload cell) versus a *timing/variant
section* (whatever legitimately depends on the machine, the scheduler or
the execution layout).  This module is the single definition of which
field names belong to the timing side, so the three independent
enforcement points stay in agreement:

* :mod:`repro.analysis` — the static analyzer's SCOPE rules flag these
  names flowing into a deterministic payload builder;
* :func:`repro.metrics.collector.validate_metrics` — rejects them inside
  an emitted document's deterministic section (``timing-scope``
  constraint);
* :func:`repro.trace.validate.validate_trace` — rejects them as counter
  arguments, where only deterministic per-round series belong
  (``counter-integer-series`` constraint).

Growing the list is an API decision, not a local edit: adding a name here
makes the analyzer police it everywhere and both validators reject it
from deterministic data.

The module also holds :func:`derive_seed`, the one seed derivation that
sweep cells, MPC partitions and fault plans share.  It lives in this
leaf module so the solver path never imports the sweep package.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any

#: Field names that are *timing-scoped*: machine-, scheduler- or
#: execution-layout-dependent values that must never enter a
#: deterministic section, digest or parity-compared ledger.  The core
#: seven are the documented contract (see ``DESIGN.md``); the rest are
#: this codebase's aliases for them (``seconds``/``elapsed_s``,
#: ``warning``/``warnings``, ``jobs``/``workers``).
TIMING_SCOPED_FIELDS: tuple[str, ...] = (
    "attempts",
    "available_cpus",
    "elapsed_s",
    "faults",
    "max_rss_kb",
    "warnings",
    "workers",
    # aliases used by the sweep runner and benchmarks
    "jobs",
    "seconds",
    "wall_seconds",
    "warning",
)

#: Frozen-set view for membership tests on hot validation paths.
TIMING_SCOPED_FIELD_SET: frozenset[str] = frozenset(TIMING_SCOPED_FIELDS)


def is_deterministic_int(value: Any) -> bool:
    """Whether ``value`` is a genuine integer (bools and floats rejected).

    Deterministic series are integer-valued by construction (message,
    word and round counts; set sizes).  A float sneaking in is a
    determinism hazard — float formatting and NaN compare-unequal
    semantics break canonical-JSON digests — so validators reject
    non-integers outright instead of coercing.
    """
    return isinstance(value, int) and not isinstance(value, bool)


def reject_non_integer_series(
    name: str, values: Any, constraint: str
) -> None:
    """Raise ``ValueError`` unless ``values`` is a list of genuine ints.

    The error message leads with ``constraint`` (a stable, documented
    constraint name such as ``integer-series``) so callers and CI logs
    can grep for which contract clause failed.  NaN can only arrive as a
    float and is therefore rejected by the integer check, but it is
    called out explicitly in the message when present.
    """
    if not isinstance(values, list):
        raise ValueError(
            f"{constraint}: series {name!r} must be a list, "
            f"got {type(values).__name__}"
        )
    for index, value in enumerate(values):
        if not is_deterministic_int(value):
            detail = (
                "NaN"
                if isinstance(value, float) and math.isnan(value)
                else repr(value)
            )
            raise ValueError(
                f"{constraint}: series {name!r}[{index}] must be an "
                f"integer, got {detail} ({type(value).__name__})"
            )


def find_timing_scoped_keys(payload: Any, path: str = "") -> list[str]:
    """JSON-paths of timing-scoped keys anywhere inside ``payload``.

    Walks dicts and lists recursively; returns dotted paths (e.g.
    ``phases[2].elapsed_s``) for every key in
    :data:`TIMING_SCOPED_FIELDS`.  Used by the validators' ``timing-scope``
    constraint to refuse deterministic sections contaminated with
    machine-dependent fields — the exact leak class the sweep runner's
    ``include_timing`` split exists to prevent.
    """
    found: list[str] = []
    if isinstance(payload, dict):
        for key, value in payload.items():
            where = f"{path}.{key}" if path else str(key)
            if isinstance(key, str) and key in TIMING_SCOPED_FIELD_SET:
                found.append(where)
            found.extend(find_timing_scoped_keys(value, where))
    elif isinstance(payload, list):
        for index, value in enumerate(payload):
            found.extend(
                find_timing_scoped_keys(value, f"{path}[{index}]")
            )
    return found


def derive_seed(base: int, *components: Any) -> int:
    """Deterministic per-cell seed from a base seed and cell coordinates.

    Uses SHA-256 over a canonical string, so the derivation is stable across
    processes and Python invocations (unlike builtin ``hash``, which is
    salted by ``PYTHONHASHSEED``).  Collisions between distinct cells of one
    grid are astronomically unlikely; equal coordinates always map to the
    same seed, which is what makes serial and parallel evaluation of the
    same grid byte-identical.
    """
    text = "/".join(repr(c) for c in (base, *components))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % (2**31 - 1)
