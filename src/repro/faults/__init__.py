"""Deterministic memory-pressure faults for the MPC backend.

The low-space MPC model assumes machines that never fail, so the one
fault this package injects is one the model does have: a machine whose
shuffle I/O exceeds its budget.

- :mod:`repro.faults.plan` — seeded, reproducible :class:`FaultPlan`s of
  ``mem@B[:M]`` events parsed from compact ``--faults`` spec strings.
- :mod:`repro.faults.inject` — the :class:`FaultInjector` that raises a
  plan's :class:`~repro.mpc.machine.MemoryBudgetExceeded` from the
  ``MPCRuntime.shuffle`` hook.

An injected fault raises the same typed error at the same shuffle at any
worker count, exactly like a real budget violation (see
``tests/test_mpc_faults.py``).
"""

from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
]
