"""Process-parallel compiled MPC execution: the serial/parallel parity.

The contract under test (:mod:`repro.mpc.parallel`): shard workers change
*where* a compiled instance's per-machine local computation runs, never
*what* the ledger records.  Native MPC programs run serially and are
covered by ``tests/test_mpc_runtime.py``.  The ShuffleRecord stream,
``MPCRunStats``, RoundEvents and the metrics deterministic section must
be byte-identical at any worker count, and an exception raised inside a worker must surface in
the parent as the same typed exception with the same message (never a
pickling or worker-crash error), after the same shuffle prefix.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest.primitives import BfsTreeAlgorithm
from repro.graphs.generators import build_graph, gnp_graph, path_graph
from repro.metrics import MetricsCollector
from repro.mpc import (
    ForkShardPool,
    MemoryBudgetExceeded,
    MPCCongestNetwork,
    RunOptions,
    plan_shards,
    solve_mvc_mpc,
)
from repro.mpc.parallel import (
    describe_error,
    fork_available,
    raise_shard_error,
    rebuild_exception,
)

pytestmark = pytest.mark.skipif(
    not fork_available(),
    reason="process-parallel MPC execution requires the fork start method",
)


# -- shard planning and worker resolution ----------------------------------


class TestPlanShards:
    def test_round_robin_partition(self):
        shards = plan_shards(7, 3)
        assert shards == [(0, 3, 6), (1, 4), (2, 5)]
        flat = sorted(mid for shard in shards for mid in shard)
        assert flat == list(range(7))

    def test_ascending_within_shard(self):
        for shard in plan_shards(20, 6):
            assert list(shard) == sorted(shard)

    def test_clamps_workers_to_units(self):
        shards = plan_shards(2, 8)
        assert shards == [(0,), (1,)]

    def test_single_worker_single_shard(self):
        assert plan_shards(5, 1) == [(0, 1, 2, 3, 4)]

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            plan_shards(0, 2)
        with pytest.raises(ValueError):
            plan_shards(4, 0)


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_MPC_WORKERS", "7")
        assert RunOptions(workers=3).workers == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RunOptions(workers=0)


# -- typed error transport -------------------------------------------------


class _TwoArgError(Exception):
    """An exception whose constructor does not take a single message."""

    def __init__(self, code: int, detail: str) -> None:
        super().__init__(code, detail)
        self.code = code
        self.detail = detail


class _UnprintableError(Exception):
    """An exception whose ``__str__`` itself raises."""

    def __str__(self) -> str:
        raise RuntimeError("no string form")


class TestErrorTransport:
    def test_multi_arg_ctor_degrades_to_runtime_error(self):
        # Satellite: a worker-side exception type that cannot be rebuilt
        # with a single message must fall back to RuntimeError carrying
        # the type name and message — never a TypeError from the ctor.
        original = _TwoArgError(42, "shard exploded")
        _unit, module, qualname, message = describe_error(0, original)
        rebuilt = rebuild_exception(module, qualname, message)
        assert type(rebuilt) is RuntimeError
        assert "_TwoArgError" in str(rebuilt)
        assert "shard exploded" in str(rebuilt)

    def test_unprintable_exception_still_describable(self):
        unit, _module, qualname, message = describe_error(
            3, _UnprintableError()
        )
        assert unit == 3
        assert qualname.endswith("_UnprintableError")
        assert "unprintable" in message

    def test_safe_message_never_raises(self):
        from repro.mpc.parallel import safe_message

        assert safe_message(ValueError("plain")) == "plain"
        assert "_UnprintableError" in safe_message(_UnprintableError())
    def test_budget_error_round_trips(self):
        original = MemoryBudgetExceeded("machine 2 needs 9 words")
        unit, module, qualname, message = describe_error(2, original)
        assert unit == 2
        rebuilt = rebuild_exception(module, qualname, message)
        assert type(rebuilt) is MemoryBudgetExceeded
        assert str(rebuilt) == str(original)

    def test_unimportable_degrades_to_runtime_error(self):
        rebuilt = rebuild_exception("no.such.module", "GhostError", "boom")
        assert type(rebuilt) is RuntimeError
        assert "GhostError" in str(rebuilt)
        assert "boom" in str(rebuilt)

    def test_raise_shard_error_picks_smallest_unit(self):
        frags = [
            {"error": describe_error(5, ValueError("late"))},
            {"error": None},
            {"error": describe_error(1, MemoryBudgetExceeded("first"))},
        ]
        with pytest.raises(MemoryBudgetExceeded, match="first"):
            raise_shard_error(frags)

    def test_no_error_is_a_no_op(self):
        raise_shard_error([{"error": None}, {"error": None}])


class TestForkShardPool:
    def test_barrier_step_returns_in_shard_order(self):
        with ForkShardPool([lambda t, i=i: (i, t * 2) for i in range(3)]) as p:
            assert p.step([1, 2, 3]) == [(0, 2), (1, 4), (2, 6)]
            assert p.step_all(5) == [(0, 10), (1, 10), (2, 10)]

    def test_handler_exception_reraised_typed(self):
        def boom(_task):
            raise MemoryBudgetExceeded("worker-side overflow")

        with ForkShardPool([boom, lambda t: t]) as pool:
            with pytest.raises(MemoryBudgetExceeded, match="overflow"):
                pool.step_all(None)

    def test_close_is_idempotent(self):
        pool = ForkShardPool([lambda t: t])
        pool.close()
        pool.close()
        assert len(pool) == 0


# -- compiled CONGEST execution: differential parity ------------------------


def _compiled_outcome(graph, alpha, seed, compress, workers):
    """Totalized run summary: identical iff the two executions agree.

    Captures the solution, RunStats, the MPC ledger payload and the
    metrics deterministic digest — or the raised error's type and
    message, making the comparison total over budget-exceeded inputs.
    """
    collector = MetricsCollector(label="diff")
    try:
        result, payload = solve_mvc_mpc(
            graph, 0.5, alpha=alpha, seed=seed, compress=compress,
            collector=collector, workers=workers,
        )
    except Exception as exc:
        return ("err", type(exc).__name__, str(exc))
    return (
        "ok",
        sorted(map(repr, result.cover)),
        repr(result.stats),
        payload,
        collector.deterministic_sha256(),
    )


class TestCompiledParity:
    @settings(max_examples=10, deadline=None)
    @given(
        kind=st.sampled_from(["gnp", "tree", "cycle"]),
        n=st.integers(8, 14),
        seed=st.integers(0, 20),
        alpha=st.sampled_from([0.8, 0.9, 1.0]),
        compress=st.sampled_from([1, 4, "auto"]),
    )
    def test_differential_serial_vs_parallel(
        self, kind, n, seed, alpha, compress
    ):
        graph = build_graph(kind, n, seed=seed)
        serial = _compiled_outcome(graph, alpha, seed, compress, workers=1)
        parallel = _compiled_outcome(graph, alpha, seed, compress, workers=3)
        assert parallel == serial

    @pytest.mark.parametrize("compress", [1, 4, "auto"])
    def test_ledger_and_metrics_identical(self, compress):
        graph = gnp_graph(18, 0.25, seed=5)
        payloads = {}
        metrics = {}
        for workers in (1, 2):
            collector = MetricsCollector(label="grid")
            _result, payload = solve_mvc_mpc(
                graph, 0.5, alpha=0.9, seed=0, compress=compress,
                collector=collector, workers=workers,
            )
            payloads[workers] = payload
            metrics[workers] = collector.to_json()
        assert payloads[2] == payloads[1]
        assert (
            metrics[2]["deterministic_sha256"]
            == metrics[1]["deterministic_sha256"]
        )
        # The variant section differs in exactly one field: the recorded
        # worker count (execution provenance, like awake/timing).
        assert metrics[1]["variant"]["mpc"]["workers"] == 1
        assert metrics[2]["variant"]["mpc"]["workers"] == 2
        for key in (1, 2):
            metrics[key]["variant"]["mpc"].pop("workers")
        assert metrics[2]["variant"] == metrics[1]["variant"]

    def test_compressed_early_finish_absorbed_identically(self):
        """absorb_early_finish under the parallel executor: a BFS on a
        short path terminates mid-window, and the given-back CONGEST
        rounds leave the trace identical to serial."""
        graph = path_graph(7)
        traces = {}
        for workers in (1, 2):
            net = MPCCongestNetwork(
                graph, alpha=0.9, seed=5, options=RunOptions(6, workers)
            )
            result = net.run(lambda v: BfsTreeAlgorithm(v, v.n - 1))
            traces[workers] = (
                list(net.runtime.trace),
                net.runtime.stats,
                result.stats,
                result.by_id,
            )
        assert traces[2] == traces[1]
        trace, stats, congest_stats, _ = traces[2]
        assert any(r.congest_rounds > 1 for r in trace)
        # The prefetch shuffles charge only the rounds actually replayed.
        assert sum(r.congest_rounds for r in trace) == stats.congest_rounds
        assert stats.congest_rounds == congest_stats.rounds

    def test_construction_failure_is_worker_independent(self):
        graph = gnp_graph(14, 0.5, seed=2)
        errors = {}
        for workers in (1, 3):
            with pytest.raises(MemoryBudgetExceeded) as excinfo:
                solve_mvc_mpc(graph, 0.5, alpha=0.3, seed=0, workers=workers)
            errors[workers] = str(excinfo.value)
        assert errors[3] == errors[1]


# -- window planner frontier-load cache -------------------------------------


class TestPlannerStateLoadCache:
    def test_state_radii_built_bounded_by_window_cap(self):
        graph = gnp_graph(18, 0.2, seed=5)
        net = MPCCongestNetwork(
            graph, alpha=0.9, seed=5, options=RunOptions(compress=4)
        )
        net.run(lambda v: BfsTreeAlgorithm(v, v.n - 1))
        planned = net.planner_stats["windows_planned"]
        built = net.planner_stats["state_radii_built"]
        assert planned >= 2
        # Static per-radius loads are built once each: at most cap-1
        # radii (1..k-1) no matter how many windows were planned.
        assert built <= 3
        # A second run on the same network plans fresh windows but
        # reuses every cached radius.
        net.run(lambda v: BfsTreeAlgorithm(v, 0))
        assert net.planner_stats["windows_planned"] > planned
        assert net.planner_stats["state_radii_built"] == built

    def test_cache_does_not_change_the_ledger(self):
        graph = gnp_graph(16, 0.25, seed=7)
        net = MPCCongestNetwork(
            graph, alpha=0.9, seed=7, options=RunOptions(compress=4)
        )
        first = net.run(lambda v: BfsTreeAlgorithm(v, v.n - 1))
        shuffles_first = net.runtime.stats.rounds
        second = net.run(lambda v: BfsTreeAlgorithm(v, v.n - 1))
        assert second.stats == first.stats
        # Identical stage, identical window plan: same shuffle count.
        assert net.runtime.stats.rounds == 2 * shuffles_first
