"""The fault injector: fires a plan's events from the shuffle hook.

:meth:`FaultInjector.before_shuffle` runs at the top of
:meth:`repro.mpc.runtime.MPCRuntime.shuffle` — it raises scheduled
:class:`~repro.mpc.machine.MemoryBudgetExceeded` pressure exactly where a
real over-budget shuffle would, in serial and parallel runs alike
(shuffles are always parent-side).  Without an injector the hook is
never called, so the fault-free hot path is untouched.
"""

from __future__ import annotations

from typing import Any

from repro.faults.plan import FaultPlan
from repro.mpc.machine import MemoryBudgetExceeded


class FaultInjector:
    """Fires one :class:`~repro.faults.plan.FaultPlan` against one run.

    An injector is single-use: it tracks which events already fired, so
    attach a fresh one per run (built by
    :meth:`~repro.mpc.options.RunOptions.fault_injector`).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._pending = list(plan.events)

    def before_shuffle(self, runtime: Any) -> None:
        """Runtime hook: memory-pressure events scheduled for this shuffle."""
        at = runtime.stats.rounds
        hits = [event for event in self._pending if event.at == at]
        if not hits:
            return
        # Every event of this shuffle is spent by the one error it raises.
        for event in hits:
            self._pending.remove(event)
        machine = hits[0].target
        if machine is None:
            machine = self.plan.choose("mem-machine", at, runtime.num_machines)
        else:
            machine %= runtime.num_machines
        if runtime.tracer is not None:
            runtime.tracer.instant(
                "fault.mem", cat="fault", at=at, target=machine
            )
        raise MemoryBudgetExceeded(
            f"machine {machine} exceeded its I/O budget at shuffle {at} "
            f"(injected by fault plan)"
        )
