"""Seeded, reproducible fault plans.

A :class:`FaultPlan` is a frozen schedule of :class:`FaultEvent`s parsed
from a compact spec string (the CLI's ``--faults`` value, also usable as
a sweep-cell param).  The one source of randomness in a plan — which
machine a targetless memory fault blames — is derived through
:func:`repro.contract.derive_seed`, so the same spec + seed yields the
same faults in every job, process pool worker and restart.

Spec grammar (comma-separated tokens)::

    mem@B           raise MemoryBudgetExceeded at shuffle B, seeded machine
    mem@B:M         same, blaming machine M

Shuffle indices are 0-based: ``mem@K`` fires when the runtime is about
to execute its ``K``-th metered shuffle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.contract import derive_seed


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled ``mem@`` fault.

    ``at`` is a 0-based metered shuffle index and ``target`` a machine
    id; ``None`` means "choose one with the plan's seed at fire time".
    """

    at: int
    target: int | None = None


@dataclass(frozen=True)
class FaultPlan:
    """A frozen, seeded schedule of faults."""

    events: tuple[FaultEvent, ...] = ()
    seed: int = 0
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
        for raw in spec.split(","):
            token = raw.strip()
            if not token:
                continue
            kind, sep, rest = token.partition("@")
            if not sep or kind != "mem":
                raise ValueError(
                    f"bad fault token {token!r}: expected mem@B[:M]"
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
            if extra:
                try:
                    target = int(extra)
                except ValueError:
                    raise ValueError(
                        f"bad fault target in fault token {token!r}"
                    ) from None
                if target < 0:
                    raise ValueError(f"fault target must be >= 0 in {token!r}")
            events.append(FaultEvent(at, target))
        events.sort(key=lambda e: (e.at, -1 if e.target is None else e.target))
        return cls(events=tuple(events), seed=seed, spec=spec)
