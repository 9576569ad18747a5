"""Deterministic fault injection and crash recovery for the MPC backend.

The low-space MPC model assumes machines that never fail; a production
simulation service cannot.  This package supplies the three pieces the
runtime needs to survive real-world faults without ever changing what
the ledger records:

- :mod:`repro.faults.plan` — seeded, reproducible :class:`FaultPlan`s
  (worker crashes at chosen shuffle barriers, straggler delays, injected
  memory pressure) parsed from compact ``--faults`` spec strings.
- :mod:`repro.faults.inject` — the :class:`FaultInjector` that fires a
  plan's events from the two hook points (`ForkShardPool.step` and
  `MPCRuntime.shuffle`) behind a no-op-when-absent interface.
- :mod:`repro.faults.recovery` — the :class:`DegradedExecutionWarning`
  surfaced when a pool exhausts the plan's recovery budget and falls
  back to the verbatim serial path.

The recovery oracle is the byte-identical shuffle ledger: a
crash-recovered run must produce the same ShuffleRecord stream,
``MPCRunStats``, RoundEvents and metrics deterministic section as a
fault-free run (see ``tests/test_mpc_faults.py``).
"""

from repro.faults.inject import FaultInjector
from repro.faults.plan import DEFAULT_MAX_RECOVERIES, FaultEvent, FaultPlan
from repro.faults.recovery import DegradedExecutionWarning

__all__ = [
    "DEFAULT_MAX_RECOVERIES",
    "DegradedExecutionWarning",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
]
