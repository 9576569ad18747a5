"""Seeded, reproducible fault plans.

A :class:`FaultPlan` is a frozen schedule of :class:`FaultEvent`s parsed
from a compact spec string (the CLI's ``--faults`` value, also usable as
a sweep-cell param).  Every source of randomness in a plan — which shard
a targetless crash kills, which machine a targetless memory fault blames
— is derived through :func:`repro.sweep.spec.derive_seed`, so the same
spec + seed yields the same faults in every job, process pool worker and
restart.  That determinism is what lets fault reports live inside sweep
payloads without breaking the merged-results digest.

Spec grammar (comma-separated tokens)::

    crash@B         kill a seeded-chosen forked worker before barrier B
    crash@B:T       kill forked worker T (mod their count) before barrier B
    straggle@B:D    sleep D seconds before barrier B (straggler delay)
    straggle@B      same with the default 0.01 s delay
    mem@B           raise MemoryBudgetExceeded at shuffle B, seeded machine
    mem@B:M         same, blaming machine M
    max_recoveries=N  recovery budget before degrading to serial (default 2)

Barrier/shuffle indices are 0-based: ``crash@0`` fires before the pool's
first barrier (the ``start`` broadcast), ``mem@K`` fires when the
runtime is about to execute its ``K``-th metered shuffle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sweep.spec import derive_seed

#: Default number of respawn-and-replay recoveries before a pool gives up
#: and degrades to in-process serial execution.
DEFAULT_MAX_RECOVERIES = 2

#: Default straggler delay in seconds when a ``straggle@B`` token omits one.
DEFAULT_STRAGGLE_DELAY = 0.01

_KINDS = ("crash", "straggle", "mem")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``at`` is a 0-based barrier index (``crash``/``straggle``: pool step
    index; ``mem``: metered shuffle index).  ``target`` is a forked-worker
    index (``crash``) or machine id (``mem``); ``None`` means "choose one with
    the plan's seed at fire time".  ``delay`` is seconds, ``straggle``
    only.
    """

    kind: str
    at: int
    target: int | None = None
    delay: float = 0.0

    def to_token(self) -> str:
        if self.kind == "straggle":
            return f"straggle@{self.at}:{self.delay:g}"
        if self.target is None:
            return f"{self.kind}@{self.at}"
        return f"{self.kind}@{self.at}:{self.target}"


@dataclass(frozen=True)
class FaultPlan:
    """A frozen, seeded schedule of faults plus the recovery budget."""

    events: tuple[FaultEvent, ...] = ()
    seed: int = 0
    max_recoveries: int = DEFAULT_MAX_RECOVERIES
    spec: str = field(default="", compare=False)

    def __bool__(self) -> bool:
        return bool(self.events)

    def choose(self, purpose: str, at: int, modulus: int) -> int:
        """Seeded choice in ``range(modulus)``, stable across processes."""
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        return derive_seed(self.seed, "faults", purpose, at) % modulus

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse a comma-separated spec string (see module docstring)."""
        events: list[FaultEvent] = []
        max_recoveries = DEFAULT_MAX_RECOVERIES
        for raw in spec.split(","):
            token = raw.strip()
            if not token:
                continue
            if token.startswith("max_recoveries="):
                value = token.partition("=")[2]
                try:
                    max_recoveries = int(value)
                except ValueError:
                    raise ValueError(
                        f"bad max_recoveries value {value!r} in fault spec"
                    ) from None
                if max_recoveries < 0:
                    raise ValueError("max_recoveries must be >= 0")
                continue
            kind, sep, rest = token.partition("@")
            if not sep or kind not in _KINDS:
                raise ValueError(
                    f"bad fault token {token!r}: expected "
                    f"crash@B[:T], straggle@B[:D], mem@B[:M] or "
                    f"max_recoveries=N"
                )
            at_text, _, extra = rest.partition(":")
            try:
                at = int(at_text)
            except ValueError:
                raise ValueError(
                    f"bad barrier index in fault token {token!r}"
                ) from None
            if at < 0:
                raise ValueError(f"barrier index must be >= 0 in {token!r}")
            target: int | None = None
            delay = 0.0
            if kind == "straggle":
                try:
                    delay = float(extra) if extra else DEFAULT_STRAGGLE_DELAY
                except ValueError:
                    raise ValueError(
                        f"bad straggle delay in fault token {token!r}"
                    ) from None
                if delay < 0:
                    raise ValueError(f"straggle delay must be >= 0 in {token!r}")
            elif extra:
                try:
                    target = int(extra)
                except ValueError:
                    raise ValueError(
                        f"bad fault target in fault token {token!r}"
                    ) from None
                if target < 0:
                    raise ValueError(f"fault target must be >= 0 in {token!r}")
            events.append(FaultEvent(kind, at, target, delay))
        events.sort(key=lambda e: (e.at, e.kind, -1 if e.target is None else e.target))
        return cls(
            events=tuple(events),
            seed=seed,
            max_recoveries=max_recoveries,
            spec=spec,
        )

    @classmethod
    def random_crashes(
        cls, count: int, horizon: int, seed: int = 0
    ) -> "FaultPlan":
        """``count`` seeded crashes at derived barriers within ``horizon``."""
        if count < 0:
            raise ValueError("count must be >= 0")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        barriers = sorted(
            derive_seed(seed, "faults", "crash-at", i) % horizon
            for i in range(count)
        )
        events = tuple(FaultEvent("crash", at) for at in barriers)
        spec = ",".join(e.to_token() for e in events)
        return cls(events=events, seed=seed, spec=spec)
