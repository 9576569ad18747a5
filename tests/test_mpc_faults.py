"""Fault-injection plane and crash-recovering MPC execution.

The contract under test (:mod:`repro.faults` + the recovery layer in
:mod:`repro.mpc.parallel`): injected worker crashes, stragglers and
memory pressure change *whether the run had to recover*, never *what it
computed*.  The solution, ``MPCRunStats``, the ShuffleRecord stream,
sweep payloads (minus the separate ``faults`` report) and the metrics
deterministic digest must be byte-identical between a fault-free serial
run, a fault-free parallel run and a crash-recovered parallel run — and
once the recovery budget is spent, the pool must degrade to in-process
serial execution with a surfaced warning and, still, identical outputs.
"""

from __future__ import annotations

import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    DEFAULT_MAX_RECOVERIES,
    DegradedExecutionWarning,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)
from repro.graphs.generators import build_graph, gnp_graph
from repro.metrics import MetricsCollector
from repro.mpc import (
    ForkShardPool,
    MemoryBudgetExceeded,
    RunOptions,
    WorkerCrashError,
    mpc_maximal_matching,
    solve_mvc_mpc,
)
from repro.mpc.parallel import CHECKPOINT_INTERVAL, fork_available
from repro.sweep.grids import mpc_chaos_grid
from repro.sweep.runner import run_sweep
from repro.sweep.tasks import get_task

needs_fork = pytest.mark.skipif(
    not fork_available(),
    reason="crash recovery requires the fork start method",
)


# -- fault plans: parsing and determinism -----------------------------------


class TestFaultPlan:
    def test_parse_full_grammar(self):
        plan = FaultPlan.from_spec(
            "crash@3, straggle@1:0.25, mem@2:4, crash@0:1, max_recoveries=5"
        )
        assert plan.events == (
            FaultEvent("crash", 0, 1),
            FaultEvent("straggle", 1, None, 0.25),
            FaultEvent("mem", 2, 4),
            FaultEvent("crash", 3, None),
        )
        assert plan.max_recoveries == 5
        assert bool(plan)

    def test_default_straggle_delay(self):
        plan = FaultPlan.from_spec("straggle@2")
        assert plan.events[0].delay == pytest.approx(0.01)

    def test_empty_spec_is_falsy(self):
        assert not FaultPlan.from_spec("")
        assert not FaultPlan()

    @pytest.mark.parametrize("spec", [
        "bogus@1", "crash", "crash@x", "crash@-1", "crash@1:x",
        "crash@1:-2", "straggle@1:x", "straggle@1:-0.5",
        "max_recoveries=x", "max_recoveries=-1",
    ])
    def test_bad_specs_raise_value_error(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.from_spec(spec)

    def test_choose_is_deterministic_across_plans(self):
        a = FaultPlan.from_spec("crash@1", seed=7)
        b = FaultPlan.from_spec("crash@1", seed=7)
        assert a.choose("crash-victim", 1, 4) == b.choose("crash-victim", 1, 4)
        assert 0 <= a.choose("crash-victim", 1, 4) < 4

    def test_choose_varies_with_seed(self):
        picks = {
            FaultPlan(seed=s).choose("crash-victim", 0, 1000)
            for s in range(20)
        }
        assert len(picks) > 1

    def test_random_crashes_reproducible(self):
        a = FaultPlan.random_crashes(3, horizon=10, seed=4)
        b = FaultPlan.random_crashes(3, horizon=10, seed=4)
        assert a.events == b.events
        assert all(e.kind == "crash" and 0 <= e.at < 10 for e in a.events)
        # The spec string round-trips through the parser.
        assert FaultPlan.from_spec(a.spec).events == a.events

    def test_events_sorted_by_barrier(self):
        plan = FaultPlan.from_spec("crash@5,crash@1,straggle@3")
        assert [e.at for e in plan.events] == [1, 3, 5]

    def test_report_shape(self):
        injector = FaultInjector(FaultPlan.from_spec("crash@2,mem@9"))
        report = injector.report()
        assert report["injected"] == {"crash": 0, "straggle": 0, "mem": 0}
        assert report["pending"] == 2
        assert report["recoveries"] == 0
        assert report["degraded"] is False
        assert report["max_recoveries"] == DEFAULT_MAX_RECOVERIES


# -- crash recovery: differential parity ------------------------------------


def _outcome(graph, alpha, seed, compress, workers, faults=None):
    """Totalized run summary, identical iff two executions agree.

    The ``faults`` report is the one payload key allowed to differ (it
    records what was survived); everything else — solution, RunStats,
    ledger payload, metrics deterministic digest — must match.
    """
    collector = MetricsCollector(label="faults-diff")
    try:
        result, payload = solve_mvc_mpc(
            graph, 0.5, alpha=alpha, seed=seed, compress=compress,
            collector=collector, workers=workers, faults=faults,
        )
    except Exception as exc:
        return ("err", type(exc).__name__, str(exc))
    payload = dict(payload)
    payload.pop("faults", None)
    return (
        "ok",
        sorted(map(repr, result.cover)),
        repr(result.stats),
        payload,
        collector.deterministic_sha256(),
    )


@needs_fork
class TestCrashRecoveryParity:
    @settings(max_examples=8, deadline=None)
    @given(
        kind=st.sampled_from(["gnp", "tree", "cycle"]),
        n=st.integers(8, 13),
        seed=st.integers(0, 12),
        alpha=st.sampled_from([0.85, 0.9, 1.0]),
        compress=st.sampled_from([1, 4, "auto"]),
        crashes=st.lists(st.integers(0, 6), min_size=1, max_size=2),
    )
    def test_differential_fault_free_vs_crash_recovered(
        self, kind, n, seed, alpha, compress, crashes
    ):
        graph = build_graph(kind, n, seed=seed)
        spec = ",".join(f"crash@{b}" for b in sorted(crashes))
        serial = _outcome(graph, alpha, seed, compress, workers=1)
        parallel = _outcome(graph, alpha, seed, compress, workers=2)
        recovered = _outcome(
            graph, alpha, seed, compress, workers=2, faults=spec
        )
        assert parallel == serial
        assert recovered == serial

    def test_straggle_and_crash_mix(self):
        graph = gnp_graph(14, 0.3, seed=2)
        clean = _outcome(graph, 0.9, 2, 1, workers=2)
        faulted = _outcome(
            graph, 0.9, 2, 1, workers=2,
            faults="straggle@1:0.01,crash@2,straggle@4:0.01",
        )
        assert faulted == clean

    def test_crash_inside_a_compressed_window(self):
        """A worker dies between two replayed rounds of one window, after a
        checkpoint also taken mid-window: the respawned shard must get its
        kernel wake set back from the checkpoint, or the self-woken nodes
        of the replayed rounds would never run again."""
        from repro.core.mvc_congest import PhaseOneAlgorithm
        from repro.mpc.compile_congest import MPCCongestNetwork

        graph = gnp_graph(16, 0.25, seed=3)

        def stage(view):
            return PhaseOneAlgorithm(view, threshold=2, iterations=6)

        def run(workers, faults=None):
            events = []
            net = MPCCongestNetwork(
                graph, alpha=1.0, seed=3, on_round=events.append,
                options=RunOptions(4, workers, faults, seed=3),
            )
            result = net.run(stage, trace=True)
            outcome = (
                result.by_id, result.stats, result.trace, events,
                list(net.runtime.trace), net.runtime.stats,
            )
            return outcome, net

        clean, clean_net = run(workers=1)
        # Barrier b of the stage's pool executes CONGEST round b (barrier
        # 0 is on_start).  A round is replayed inside a window when it is
        # not the first round its prefetch shuffle carried.
        in_window = set()
        first = 1
        for record in clean_net.runtime.trace:
            in_window.update(range(first + 1, first + record.congest_rounds))
            first += record.congest_rounds
        # Checkpoints follow every CHECKPOINT_INTERVAL-th barrier:
        # barrier 6j is round 6j - 1.
        interval = CHECKPOINT_INTERVAL
        crash_at = next(
            b for b in sorted(in_window)
            if b > interval
            and (b // interval) * interval - 1 in in_window
            and (b // interval) * interval - 1 < b
        )
        recovered, net = run(workers=2, faults=f"crash@{crash_at}")
        assert recovered == clean
        report = net.fault_report()
        assert report["injected"]["crash"] == 1
        assert report["recoveries"] == 1
        assert report["degraded"] is False

    def test_report_records_the_recovery(self):
        graph = gnp_graph(14, 0.3, seed=2)
        _result, payload = solve_mvc_mpc(
            graph, 0.5, alpha=0.9, seed=2, workers=2, faults="crash@2"
        )
        report = payload["faults"]
        assert report["injected"]["crash"] == 1
        assert report["recoveries"] == 1
        assert report["degraded"] is False
        assert report["pending"] == 0
        (fired,) = report["fired"]
        assert fired[0] == "crash" and fired[1] == 2

    def test_crash_aimed_at_shard_zero_hits_the_forked_worker(self):
        # At two workers the caller runs shard 0 and one forked worker
        # runs shard 1; every crash, targeted or not, lands on the latter.
        graph = gnp_graph(14, 0.3, seed=2)
        clean = _outcome(graph, 0.9, 2, 1, workers=2)
        for spec in ("crash@0:0", "crash@2:0", "crash@2"):
            _result, payload = solve_mvc_mpc(
                graph, 0.5, alpha=0.9, seed=2, workers=2, faults=spec
            )
            report = payload["faults"]
            assert report["injected"]["crash"] == 1
            assert report["skipped"] == 0
            assert report["recoveries"] == 1
            (fired,) = report["fired"]
            assert fired[0] == "crash" and fired[2] == 1
            assert _outcome(graph, 0.9, 2, 1, workers=2, faults=spec) == clean

    def test_fault_free_payload_has_no_faults_key(self):
        graph = gnp_graph(12, 0.3, seed=1)
        _result, payload = solve_mvc_mpc(
            graph, 0.5, alpha=0.9, seed=1, workers=2
        )
        assert "faults" not in payload

    def test_crash_on_serial_run_stays_pending(self):
        # With one worker there is no shard pool, so the pool hooks
        # never fire: the crash stays pending, and the run is clean.
        graph = gnp_graph(12, 0.3, seed=1)
        _result, payload = solve_mvc_mpc(
            graph, 0.5, alpha=0.9, seed=1, workers=1, faults="crash@1"
        )
        report = payload["faults"]
        assert report["injected"]["crash"] == 0
        assert report["pending"] == 1
        assert report["recoveries"] == 0

    def test_targeted_crash_hits_named_shard(self):
        graph = gnp_graph(14, 0.3, seed=2)
        clean = _outcome(graph, 0.9, 2, 1, workers=3)
        for shard in (0, 1, 2):
            faulted = _outcome(
                graph, 0.9, 2, 1, workers=3, faults=f"crash@2:{shard}"
            )
            assert faulted == clean

    def test_metrics_variant_carries_fault_report(self):
        graph = gnp_graph(12, 0.3, seed=1)
        collector = MetricsCollector(label="chaos")
        solve_mvc_mpc(
            graph, 0.5, alpha=0.9, seed=1, workers=2, faults="crash@1",
            collector=collector,
        )
        document = collector.to_json()
        assert document["variant"]["faults"]["recoveries"] == 1
        clean = MetricsCollector(label="chaos")
        solve_mvc_mpc(graph, 0.5, alpha=0.9, seed=1, workers=2,
                      collector=clean)
        assert "faults" not in clean.to_json()["variant"]
        assert (
            document["deterministic_sha256"]
            == clean.to_json()["deterministic_sha256"]
        )

    def test_matching_identical_under_crashes(self):
        graph = gnp_graph(22, 0.2, seed=5)
        clean = mpc_maximal_matching(graph, alpha=0.8, seed=0, workers=2)
        faulted = mpc_maximal_matching(
            graph, alpha=0.8, seed=0, workers=2, faults="crash@1,crash@3"
        )
        assert faulted.matching == clean.matching
        assert faulted.stats == clean.stats
        assert faulted.phases == clean.phases
        assert clean.faults is None
        assert faulted.faults["injected"]["crash"] == 2
        assert faulted.summary() == clean.summary()


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


@needs_fork
class TestDegradation:
    def test_exhausted_budget_degrades_with_identical_outputs(self):
        graph = gnp_graph(14, 0.3, seed=2)
        clean = _outcome(graph, 0.9, 2, 1, workers=2)
        with pytest.warns(DegradedExecutionWarning):
            degraded = _outcome(
                graph, 0.9, 2, 1, workers=2,
                faults="crash@1,crash@2,max_recoveries=0",
            )
        assert degraded == clean

    def test_degraded_flag_in_report(self):
        graph = gnp_graph(14, 0.3, seed=2)
        with pytest.warns(DegradedExecutionWarning):
            _result, payload = solve_mvc_mpc(
                graph, 0.5, alpha=0.9, seed=2, workers=2,
                faults="crash@1,crash@2,max_recoveries=0",
            )
        report = payload["faults"]
        assert report["degraded"] is True
        assert report["max_recoveries"] == 0
        # Degradation is per stage pool: each solver stage builds a
        # fresh pool, so both crashes can fire (in different stages)
        # and each one degrades its own pool.
        assert report["recoveries"] >= 1
        assert report["injected"]["crash"] >= 1


# -- satellite: no zombie workers on error paths -----------------------------


@needs_fork
class TestPoolCleanup:
    def test_crash_without_recovery_leaves_no_zombies(self):
        pool = ForkShardPool(
            [lambda t: t, lambda t: t * 2, lambda t: t * 3]
        )
        procs = list(pool._procs)
        assert len(procs) == 2 and all(p.is_alive() for p in procs)
        # Shard 0 runs in the caller's process: there is nothing to kill.
        assert not pool.kill_worker(0)
        assert pool.kill_worker(1)
        with pytest.raises(WorkerCrashError):
            pool.step([1, 1, 1])
        # Every child — including the survivor — is terminated and
        # joined; nothing is left for active_children() to reap.
        assert pool._procs == [] and pool._conns == []
        assert all(not p.is_alive() for p in procs)
        alive = {p.pid for p in multiprocessing.active_children()}
        assert not ({p.pid for p in procs} & alive)
        pool.close()  # idempotent after the implicit teardown

    def test_injector_crash_recovers_at_pool_level(self):
        injector = FaultInjector(
            FaultPlan.from_spec("crash@1,max_recoveries=2")
        )
        with ForkShardPool(
            [_ProtocolHandler(10), _ProtocolHandler(20)], injector=injector
        ) as pool:
            assert pool.step_all(("add", 1)) == [11, 21]
            # The injected crash fires here; the barrier replays from
            # the checkpoint taken after the first step.
            assert pool.step_all(("add", 2)) == [13, 23]
            assert pool.step_all(("add", 3)) == [16, 26]
            assert pool.recoveries == 1
            assert not pool.degraded
        assert injector.injected["crash"] == 1

    def test_kill_worker_out_of_range_is_false(self):
        with ForkShardPool([lambda t: t]) as pool:
            assert not pool.kill_worker(5)
            assert not pool.kill_worker(-1)


class _ProtocolHandler:
    """Minimal checkpoint/restore-aware shard handler for pool tests."""

    def __init__(self, value: int) -> None:
        self.value = value

    def __call__(self, task):
        kind, arg = task
        if kind == "checkpoint":
            return self.value
        if kind == "restore":
            self.value = arg
            return {"restored": 1, "error": None}
        self.value += arg
        return self.value


# -- the chaos grid ----------------------------------------------------------


@needs_fork
class TestChaosGrid:
    def test_all_cells_recover_with_parity(self):
        grid = mpc_chaos_grid()
        assert len(grid) == 4
        sweep = run_sweep(grid, jobs=1)
        assert not sweep.failures
        crashes = 0
        for result in sweep:
            assert result.ok, result.error
            report = (result.payload or {}).get("faults")
            assert report is not None
            crashes += report["injected"]["crash"]
        assert crashes >= 4

    def test_cells_with_parity_param_check_live(self):
        params = {
            name for cell in mpc_chaos_grid().cells
            for name, _ in cell.params
        }
        assert "faults" in params and "parity" in params

    def test_payload_matches_fault_free_evaluation(self):
        import dataclasses

        cell = mpc_chaos_grid().cells[0]
        task = get_task(cell.task)
        faulted = dict(task(cell))
        clean_cell = dataclasses.replace(
            cell,
            params=tuple(p for p in cell.params if p[0] != "faults"),
        )
        clean = dict(task(clean_cell))
        faulted.pop("faults")
        assert faulted == clean
