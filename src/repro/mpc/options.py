"""The run settings of one MPC execution, validated in one place.

A compiled MPC run has three settings besides its workload: the
round-compression window, the shard-worker count and the fault plan.
:class:`RunOptions` holds them, and its constructor is the only place
they are checked.  The Python entry points, the CLI flags and the sweep
cells all build one, so every entry point rejects the same bad value
with the same ``ValueError``.  The native matching runs serially and
uses it for its fault plan only.
"""

from __future__ import annotations

import os
from dataclasses import InitVar, dataclass
from typing import Any

from repro.contract import is_deterministic_int
from repro.mpc.parallel import WORKERS_ENV_VAR, fork_available


def _is_count(value: Any) -> bool:
    return is_deterministic_int(value) and value >= 1


def parse_scalar(text: str) -> int | float | str:
    """A command-line value as the scalar it spells: int, float or text.

    The CLI flags and sweep axes convert with this and leave validation
    to :class:`RunOptions`, so ``--compress 2.5`` reaches the constructor
    as the float it is and fails with the Python API's message.
    """
    text = text.strip()
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    return text


@dataclass(frozen=True)
class RunOptions:
    """The validated run settings of one MPC execution.

    * ``compress`` — the round-compression window: an integer >= 1, or
      ``"auto"`` to let a peak-hold estimator pick each window.
    * ``workers`` — shards for the machines' local computation, the
      caller plus ``workers - 1`` forked workers: an integer >= 1.  ``None`` resolves the
      ``REPRO_MPC_WORKERS`` environment variable, then 1.
    * ``faults`` — a ``mem@B[:M]`` fault spec string, parsed here once
      with ``seed`` (the run seed), or a
      :class:`~repro.faults.plan.FaultPlan`, which keeps its own seed.  A
      plan without events is stored as ``None``, the fault-free default.

    Outputs, ``RunStats`` and the MPC ledger are identical at every
    worker count, and an injected fault raises the same error at any
    worker count; ``compress`` changes only how many shuffles carry the
    rounds.
    """

    compress: int | str = 1
    workers: int | None = None
    faults: Any = None
    seed: InitVar[int] = 0

    def __post_init__(self, seed: int) -> None:
        if self.compress != "auto" and not _is_count(self.compress):
            raise ValueError(
                f"compress must be an integer >= 1 or 'auto', "
                f"got {self.compress!r}"
            )
        workers = self.workers
        if workers is None:
            raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
            workers = parse_scalar(raw) if raw else 1
            if not _is_count(workers):
                raise ValueError(
                    f"{WORKERS_ENV_VAR} must be an integer >= 1, got {raw!r}"
                )
            object.__setattr__(self, "workers", workers)
        elif not _is_count(workers):
            raise ValueError(
                f"workers must be an integer >= 1, got {workers!r}"
            )
        if self.faults is not None:
            # Imported lazily: the fault-free path never loads the plane.
            from repro.faults.plan import FaultPlan

            plan = self.faults
            if isinstance(plan, str):
                plan = FaultPlan.from_spec(plan, seed=seed)
            elif not isinstance(plan, FaultPlan):
                raise ValueError(
                    f"faults must be a fault spec string or a FaultPlan, "
                    f"got {plan!r}"
                )
            object.__setattr__(self, "faults", plan or None)

    def shard_workers(self, machines: int) -> int:
        """Shard workers a run on ``machines`` machines actually uses.

        ``min(workers, machines)``, or 1 where the ``fork`` start method
        is unavailable and every run takes the serial path.
        """
        if not fork_available():  # pragma: no cover - platform-specific
            return 1
        return min(self.workers, machines)

    def fault_injector(self) -> Any:
        """A fresh single-use injector for the plan, or ``None``."""
        if self.faults is None:
            return None
        from repro.faults.inject import FaultInjector

        return FaultInjector(self.faults)
