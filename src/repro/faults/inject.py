"""The fault injector: fires a plan's events from the runtime hooks.

Two hook points, both no-ops when no injector is attached so the
fault-free hot path is untouched:

- :meth:`FaultInjector.before_step` runs at the top of
  :meth:`repro.mpc.parallel.ForkShardPool.step`, before the barrier's
  tasks go out or its window step runs — it sleeps scheduled straggler
  delays and SIGKILLs scheduled crash victims (always forked workers: the
  caller's shard 0 cannot crash), exercising the pool's checkpointed
  respawn-and-replay recovery.
- :meth:`FaultInjector.before_shuffle` runs at the top of
  :meth:`repro.mpc.runtime.MPCRuntime.shuffle` — it raises scheduled
  :class:`~repro.mpc.machine.MemoryBudgetExceeded` pressure exactly
  where a real over-budget shuffle would, in serial and parallel runs
  alike (shuffles are always parent-side).

Events are one-shot: each is popped from the pending set when it fires,
so a recovery replay of the same barrier does not re-trigger the crash
that caused it.  Everything the injector records — fired events, seeded
victim choices, recovery counts — is deterministic given (plan, seed),
which is what makes :meth:`report` safe to embed in sweep payloads.
"""

from __future__ import annotations

import time
from typing import Any

from repro.faults.plan import FaultPlan
from repro.mpc.machine import MemoryBudgetExceeded


class FaultInjector:
    """Fires one :class:`~repro.faults.plan.FaultPlan` against one run.

    An injector is single-use: it tracks which events already fired, so
    attach a fresh one per run (built by
    :meth:`~repro.mpc.options.RunOptions.fault_injector`).  A pool with an
    injector also recovers from worker crashes, within the plan's
    ``max_recoveries``.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._pending = list(plan.events)
        self.injected = {"crash": 0, "straggle": 0, "mem": 0}
        self.fired: list[tuple[str, int, int | None]] = []
        self.skipped = 0
        self.recoveries = 0
        self.degraded = False

    @staticmethod
    def _mark(tracer: Any, kind: str, at: int, target: int | None) -> None:
        """Drop a fired event into the hooking pool's or runtime's trace."""
        if tracer is not None:
            tracer.instant(f"fault.{kind}", cat="fault", at=at, target=target)

    def _pop(self, kind: str, at: int) -> list[Any]:
        hits = [e for e in self._pending if e.kind == kind and e.at == at]
        for event in hits:
            self._pending.remove(event)
        return hits

    def before_step(self, pool: Any, step_index: int) -> None:
        """Pool hook: straggle then crash events scheduled for this barrier."""
        for event in self._pop("straggle", step_index):
            if event.delay > 0:
                time.sleep(event.delay)  # repro: allow[DET002] straggler injection is timing-plane behavior by design
            self.injected["straggle"] += 1
            self.fired.append(("straggle", step_index, None))
            self._mark(pool.tracer, "straggle", step_index, None)
        # The caller runs shard 0 in-process; victims are forked shards.
        forked = max(pool.shards - 1, 1)
        for event in self._pop("crash", step_index):
            if event.target is None:
                victim = 1 + self.plan.choose("crash-victim", event.at, forked)
            else:
                victim = 1 + event.target % forked
            if pool.kill_worker(victim):
                self.injected["crash"] += 1
                self.fired.append(("crash", step_index, victim))
                self._mark(pool.tracer, "crash", step_index, victim)
            else:
                self.skipped += 1

    def before_shuffle(self, runtime: Any) -> None:
        """Runtime hook: memory-pressure events scheduled for this shuffle."""
        at = runtime.stats.rounds
        for event in self._pop("mem", at):
            machine = event.target
            if machine is None:
                machine = self.plan.choose("mem-machine", at, runtime.num_machines)
            else:
                machine %= runtime.num_machines
            self.injected["mem"] += 1
            self.fired.append(("mem", at, machine))
            self._mark(runtime.tracer, "mem", at, machine)
            raise MemoryBudgetExceeded(
                f"machine {machine} exceeded its I/O budget at shuffle {at} "
                f"(injected by fault plan)"
            )

    def note_recovery(self) -> None:
        self.recoveries += 1

    def note_degraded(self) -> None:
        self.degraded = True

    def report(self) -> dict[str, Any]:
        """JSON-stable summary; deterministic given (plan, seed)."""
        return {
            "spec": self.plan.spec,
            "seed": self.plan.seed,
            "max_recoveries": self.plan.max_recoveries,
            "injected": dict(self.injected),
            "fired": [list(entry) for entry in self.fired],
            "pending": len(self._pending),
            "skipped": self.skipped,
            "recoveries": self.recoveries,
            "degraded": self.degraded,
        }
