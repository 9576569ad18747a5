"""Memory-pressure faults and worker deaths on the MPC backend.

The contract under test (:mod:`repro.faults` + :mod:`repro.mpc.parallel`):
an injected ``mem@`` fault raises the same typed
:class:`~repro.mpc.machine.MemoryBudgetExceeded` at the same shuffle as a
real over-budget shuffle, at any worker count.  The model's machines never
fail, so there is no crash recovery: the removed crash/straggle tokens are
rejected, and a shard worker that dies surfaces as
:class:`~repro.mpc.parallel.WorkerCrashError` with no child process left.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.faults import FaultEvent, FaultPlan
from repro.graphs.generators import gnp_graph
from repro.mpc import (
    ForkShardPool,
    MemoryBudgetExceeded,
    WorkerCrashError,
    solve_mvc_mpc,
)
from repro.mpc.parallel import fork_available

needs_fork = pytest.mark.skipif(
    not fork_available(),
    reason="shard workers require the fork start method",
)


# -- fault plans: parsing and determinism -----------------------------------


class TestFaultPlan:
    def test_parse_full_grammar(self):
        plan = FaultPlan.from_spec("mem@3, mem@2:4, mem@0:1")
        assert plan.events == (
            FaultEvent(0, 1),
            FaultEvent(2, 4),
            FaultEvent(3, None),
        )
        assert bool(plan)

    def test_empty_spec_is_falsy(self):
        assert not FaultPlan.from_spec("")
        assert not FaultPlan()

    @pytest.mark.parametrize("spec", [
        "bogus@1", "crash", "crash@x", "crash@-1", "crash@1:x",
        "crash@1:-2", "straggle@1:x", "straggle@1:-0.5",
        "max_recoveries=x", "max_recoveries=-1",
        "mem", "mem@x", "mem@-1", "mem@1:x", "mem@1:-2",
    ])
    def test_bad_specs_raise_value_error(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.from_spec(spec)

    def test_choose_is_deterministic_across_plans(self):
        a = FaultPlan.from_spec("mem@1", seed=7)
        b = FaultPlan.from_spec("mem@1", seed=7)
        assert a.choose("mem-machine", 1, 4) == b.choose("mem-machine", 1, 4)
        assert 0 <= a.choose("mem-machine", 1, 4) < 4

    def test_choose_varies_with_seed(self):
        picks = {
            FaultPlan(seed=s).choose("mem-machine", 0, 1000)
            for s in range(20)
        }
        assert len(picks) > 1

    def test_events_sorted_by_barrier(self):
        plan = FaultPlan.from_spec("mem@5,mem@1,mem@3")
        assert [e.at for e in plan.events] == [1, 3, 5]


@needs_fork
class TestMemFault:
    def test_mem_fault_raises_identically_serial_and_parallel(self):
        # Injected memory pressure fires parent-side in the shuffle
        # plane, so it is *not* recoverable — by design it must surface
        # as the same typed error at the same shuffle at any worker
        # count (the parity contract for real budget violations).
        graph = gnp_graph(14, 0.3, seed=2)
        errors = {}
        for workers in (1, 2):
            with pytest.raises(MemoryBudgetExceeded) as excinfo:
                solve_mvc_mpc(
                    graph, 0.5, alpha=0.9, seed=2, workers=workers,
                    faults="mem@3",
                )
            errors[workers] = str(excinfo.value)
        assert errors[2] == errors[1]
        assert "injected by fault plan" in errors[1]

    def test_targeted_mem_fault_blames_named_machine(self):
        graph = gnp_graph(14, 0.3, seed=2)
        with pytest.raises(MemoryBudgetExceeded, match="machine 2"):
            solve_mvc_mpc(
                graph, 0.5, alpha=0.9, seed=2, workers=1, faults="mem@1:2"
            )

    def test_fault_free_payload_has_no_faults_key(self):
        graph = gnp_graph(12, 0.3, seed=1)
        _result, payload = solve_mvc_mpc(
            graph, 0.5, alpha=0.9, seed=1, workers=2
        )
        assert "faults" not in payload


# -- a dead worker is a typed error, with no zombies -------------------------


@needs_fork
class TestPoolCleanup:
    def test_crash_without_recovery_leaves_no_zombies(self):
        pool = ForkShardPool(
            [lambda t: t, lambda t: t * 2, lambda t: t * 3]
        )
        procs = list(pool._procs)
        assert len(procs) == 2 and all(p.is_alive() for p in procs)
        assert pool.step([1, 1, 1]) == [1, 2, 3]
        os.kill(pool._procs[0].pid, signal.SIGKILL)
        procs[0].join(timeout=5)
        with pytest.raises(WorkerCrashError):
            pool.step([1, 1, 1])
        # Every child — including the survivor — is terminated and
        # joined; nothing is left for active_children() to reap.
        assert pool._procs == [] and pool._conns == []
        assert all(not p.is_alive() for p in procs)
        alive = {p.pid for p in multiprocessing.active_children()}
        assert not ({p.pid for p in procs} & alive)
        pool.close()  # idempotent after the implicit teardown
        # A torn-down pool never answers for its lost shards.
        with pytest.raises(RuntimeError, match="closed"):
            pool.step([1, 1, 1])

    def test_worker_killed_mid_round_raises_typed_error(self):
        # The worker dies inside its round while the caller runs the
        # overlap step: the barrier's receive half sees the broken pipe.
        pool = ForkShardPool([lambda t: t, _never_returns])
        procs = list(pool._procs)

        def kill_worker() -> None:
            os.kill(procs[0].pid, signal.SIGKILL)
            procs[0].join(timeout=5)

        with pytest.raises(WorkerCrashError):
            pool.step([1, 1], overlap=kill_worker)
        assert pool._procs == [] and pool._conns == []
        alive = {p.pid for p in multiprocessing.active_children()}
        assert procs[0].pid not in alive
        pool.close()

    def test_injector_parameter_is_rejected(self):
        with pytest.raises(TypeError):
            ForkShardPool([lambda t: t], injector=object())


def _never_returns(_task):
    time.sleep(60)
