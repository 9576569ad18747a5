"""Low-space MPC simulation backend.

A second execution model next to CONGEST / CONGESTED CLIQUE: machines
with ``S = ceil(n^alpha)`` words of metered memory
(:mod:`repro.mpc.machine`), deterministic seeded input partitioning
(:mod:`repro.mpc.partition`), synchronous metered shuffle rounds
(:mod:`repro.mpc.runtime`), a round-compiler executing any existing
``NodeAlgorithm`` one CONGEST round per shuffle with word-for-word parity
against engine v2 (:mod:`repro.mpc.compile_congest`), a native
matching workload run serially by :meth:`MPCRuntime.run`
(:mod:`repro.mpc.matching`), and process-parallel shard execution of a
compiled instance's machines between shuffle barriers
(:mod:`repro.mpc.parallel`) — ledger-identical at any worker count.
The compiled entry points validate their run settings (compression
window, shard workers, fault plan) as one
:class:`~repro.mpc.options.RunOptions`; the native matching takes a
fault plan only.
"""

from repro.mpc.compile_congest import (
    MPCCongestNetwork,
    ParityError,
    run_stage_parity,
    solve_mds_mpc,
    solve_mvc_mpc,
    solve_with_parity,
)
from repro.mpc.machine import (
    Machine,
    MachineProgram,
    MemoryBudgetExceeded,
    memory_budget,
)
from repro.mpc.options import RunOptions
from repro.mpc.parallel import (
    WORKERS_ENV_VAR,
    ForkShardPool,
    WorkerCrashError,
    plan_shards,
)
from repro.mpc.matching import (
    MatchingResult,
    assert_maximal_matching,
    mpc_maximal_matching,
)
from repro.mpc.partition import (
    Assignment,
    balanced_assignment,
    partition_edges,
    partition_vertices,
)
from repro.mpc.runtime import (
    ENVELOPE_WORDS,
    MPCRunResult,
    MPCRunStats,
    MPCRuntime,
    ShuffleRecord,
)

__all__ = [
    "Assignment",
    "ENVELOPE_WORDS",
    "ForkShardPool",
    "MPCCongestNetwork",
    "MPCRunResult",
    "MPCRunStats",
    "MPCRuntime",
    "Machine",
    "MachineProgram",
    "MatchingResult",
    "MemoryBudgetExceeded",
    "ParityError",
    "RunOptions",
    "ShuffleRecord",
    "WORKERS_ENV_VAR",
    "WorkerCrashError",
    "assert_maximal_matching",
    "balanced_assignment",
    "memory_budget",
    "mpc_maximal_matching",
    "partition_edges",
    "partition_vertices",
    "plan_shards",
    "run_stage_parity",
    "solve_mds_mpc",
    "solve_mvc_mpc",
    "solve_with_parity",
]
