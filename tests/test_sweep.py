"""Tests for the parallel sweep runner (`repro.sweep`).

The load-bearing property is the determinism contract: the same grid must
merge to byte-identical deterministic results whether it runs serially
in-process or over a ``multiprocessing`` pool, on any worker count.
Everything else — failure capture, timeouts, stats aggregation — must
degrade per cell, never abort a sweep.
"""

from __future__ import annotations

import json

import pytest

from repro.congest.network import RunStats
from repro.sweep import (
    Cell,
    GridSpec,
    derive_seed,
    evaluate_cell,
    expand_grid,
    named_grid,
    run_sweep,
)
from repro.sweep.grids import NAMED_GRIDS
from repro.sweep.tasks import get_task, task_names


class TestSpec:
    def test_derive_seed_is_stable(self):
        # Fixed expectations pin cross-process / cross-run stability; a
        # change here silently reshuffles every derived grid.
        assert derive_seed(0, "a") == derive_seed(0, "a")
        assert derive_seed(0, "a") != derive_seed(1, "a")
        assert derive_seed(0, "a") != derive_seed(0, "b")
        assert 0 <= derive_seed(7, "mvc", "gnp", 24, 0.5, 0) < 2**31 - 1

    def test_derive_seed_is_the_contract_function(self):
        # The sweep package re-exports the leaf-module function, so a
        # cell seed and a partition seed come from one derivation.
        import repro.contract

        assert derive_seed is repro.contract.derive_seed

    def test_cell_params_sorted_and_scalar(self):
        cell = Cell(task="t", params=(("z", 1), ("a", 2)))
        assert cell.params == (("a", 2), ("z", 1))
        assert cell.param("a") == 2
        assert cell.param("missing", 9) == 9
        with pytest.raises(TypeError):
            Cell(task="t", params=(("bad", [1, 2]),))

    def test_grid_renumbers_indices(self):
        grid = GridSpec(
            "g", (Cell(task="selftest-ok", n=1), Cell(task="selftest-ok", n=2))
        )
        assert [c.index for c in grid.cells] == [0, 1]

    def test_expand_grid_product_and_seeding(self):
        grid = expand_grid(
            "g",
            task="selftest-ok",
            graphs=("gnp", "tree"),
            ns=(8, 12),
            replicates=2,
        )
        assert len(grid) == 8
        seeds = [c.seed for c in grid.cells]
        assert len(set(seeds)) == len(seeds)
        again = expand_grid(
            "g",
            task="selftest-ok",
            graphs=("gnp", "tree"),
            ns=(8, 12),
            replicates=2,
        )
        assert grid == again

    def test_cell_key_is_readable(self):
        cell = Cell(
            task="mvc-congest", graph="gnp", n=24, seed=3, eps=0.5,
            engine="v2", params=(("exact", True),),
        )
        assert cell.key == "mvc-congest/gnp/n=24/seed=3/eps=0.5/engine=v2/exact=True"


class TestEvaluateCell:
    def test_ok_payload(self):
        result = evaluate_cell(Cell(task="selftest-ok", n=5, seed=7))
        assert result.ok
        assert result.payload == {"n": 5, "seed": 7, "signature": "ok-5"}

    def test_failure_captured_with_traceback(self):
        result = evaluate_cell(Cell(task="selftest-fail", n=3))
        assert result.status == "error"
        assert not result.ok
        assert "selftest-fail cell n=3" in result.error
        assert "RuntimeError" in result.error

    def test_timeout_captured(self):
        result = evaluate_cell(
            Cell(task="selftest-sleep", params=(("sleep", 5.0),)),
            timeout=0.2,
        )
        assert result.status == "timeout"
        assert "0.2" in result.error

    def test_unknown_task_is_an_error_result(self):
        result = evaluate_cell(Cell(task="no-such-task"))
        assert result.status == "error"
        assert "no-such-task" in result.error

    @pytest.mark.parametrize("timeout", [0, -1.0])
    def test_nonpositive_timeout_rejected(self, timeout):
        with pytest.raises(ValueError, match="timeout must be > 0 seconds"):
            evaluate_cell(Cell(task="selftest-ok"), timeout=timeout)

    @pytest.mark.parametrize(
        "cell, status",
        [
            (Cell(task="selftest-ok", n=1), "ok"),
            (Cell(task="selftest-fail", n=1), "error"),
            (Cell(task="selftest-sleep", params=(("sleep", 5.0),)), "timeout"),
        ],
    )
    def test_alarm_disarmed_and_handler_restored(self, cell, status):
        import signal

        before = signal.getsignal(signal.SIGALRM)
        result = evaluate_cell(cell, timeout=0.2)
        assert result.status == status
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) == before


class TestUnarmableTimeout:
    """A timeout that cannot be armed is a ``ValueError``, never a cell
    that runs without its budget."""

    GRID = GridSpec(
        "two", (Cell(task="selftest-ok", n=1), Cell(task="selftest-ok", n=2))
    )

    @staticmethod
    def _in_thread(call):
        import threading

        box: list = []

        def worker():
            try:
                box.append(call())
            except Exception as exc:
                box.append(exc)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        (outcome,) = box
        return outcome

    def test_serial_sweep_off_main_thread_runs_no_task(self, monkeypatch):
        from repro.sweep import runner as runner_module

        looked_up: list = []
        real_get_task = runner_module.get_task

        def spy(name):
            looked_up.append(name)
            return real_get_task(name)

        monkeypatch.setattr(runner_module, "get_task", spy)
        outcome = self._in_thread(
            lambda: run_sweep(self.GRID, jobs=1, timeout=30.0)
        )
        assert isinstance(outcome, ValueError)
        assert str(outcome) == (
            "timeout 30s cannot be enforced: SIGALRM only fires on the "
            "main thread"
        )
        assert looked_up == []

    def test_evaluate_cell_off_main_thread_raises(self):
        outcome = self._in_thread(
            lambda: evaluate_cell(Cell(task="selftest-ok"), timeout=30.0)
        )
        assert isinstance(outcome, ValueError)
        assert str(outcome) == (
            "timeout 30s cannot be enforced: SIGALRM only fires on the "
            "main thread"
        )

    def test_pool_sweep_off_main_thread_keeps_its_budget(self):
        # Pool workers evaluate on their own main thread, so the alarm
        # arms there even when the caller is a thread.
        grid = GridSpec(
            "slow",
            (
                Cell(task="selftest-ok", n=1),
                Cell(task="selftest-sleep", params=(("sleep", 5.0),)),
            ),
        )
        outcome = self._in_thread(
            lambda: run_sweep(grid, jobs=2, timeout=0.2)
        )
        assert [r.status for r in outcome] == ["ok", "timeout"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_missing_sigalrm_raises(self, monkeypatch, jobs):
        import signal as signal_module

        monkeypatch.delattr(signal_module, "SIGALRM")
        with pytest.raises(ValueError, match="SIGALRM is unavailable"):
            run_sweep(self.GRID, jobs=jobs, timeout=30.0)
        # Without a timeout nothing needs the alarm.
        assert evaluate_cell(Cell(task="selftest-ok", n=5)).ok

    def test_retries_keyword_is_gone(self):
        with pytest.raises(TypeError):
            run_sweep(self.GRID, retries=1)

    def test_retry_backoff_keyword_is_gone(self):
        with pytest.raises(TypeError):
            run_sweep(self.GRID, retry_backoff=0.1)

    def test_retry_entry_points_are_gone(self):
        with pytest.raises(ImportError):
            from repro.sweep.runner import evaluate_cell_with_retry  # noqa: F401
        assert "selftest-flaky" not in task_names()
        result = evaluate_cell(Cell(task="selftest-flaky"))
        assert result.status == "error"
        assert "selftest-flaky" in result.error

    def test_results_carry_no_attempts_or_warnings(self):
        grid = GridSpec(
            "mixed",
            (
                Cell(task="selftest-ok", n=1),
                Cell(task="selftest-fail", n=2),
                Cell(task="selftest-sleep", params=(("sleep", 5.0),)),
            ),
        )
        sweep = run_sweep(grid, jobs=1, timeout=0.2)
        assert [r.status for r in sweep] == ["ok", "error", "timeout"]
        for include_timing in (True, False):
            data = sweep.to_json(include_timing=include_timing)
            assert "warnings" not in data
            for row in data["results"]:
                assert "attempts" not in row
                assert "warning" not in row
        for result in sweep:
            assert not hasattr(result, "attempts")
            assert not hasattr(result, "warning")
        assert not any(
            "warn!" in str(field) for row in sweep.table_rows() for field in row
        )


class TestDeterminism:
    """Same grid + same seeds => identical merged table, serial or pooled."""

    def test_serial_vs_parallel_byte_identical(self):
        serial = run_sweep(named_grid("smoke"), jobs=1)
        pooled = run_sweep(named_grid("smoke"), jobs=2)
        assert all(r.ok for r in serial)
        assert serial.deterministic_json() == pooled.deterministic_json()

    def test_repeated_serial_runs_identical(self):
        a = run_sweep(named_grid("smoke"), jobs=1)
        b = run_sweep(named_grid("smoke"), jobs=1)
        assert a.deterministic_json() == b.deterministic_json()

    def test_results_ordered_by_grid_index(self):
        pooled = run_sweep(named_grid("smoke"), jobs=2)
        assert [r.cell.index for r in pooled] == list(range(len(pooled)))

    def test_deterministic_json_excludes_timing(self):
        sweep = run_sweep(named_grid("smoke"), jobs=1)
        data = json.loads(sweep.deterministic_json())
        assert "wall_seconds" not in data
        assert "jobs" not in data
        assert all("seconds" not in r for r in data["results"])

    def test_fault_report_is_timing_scoped(self):
        # A timing-scoped key in a task payload (here the contract's
        # "faults") stays out of the deterministic digest like seconds.
        from repro.sweep.runner import CellResult

        result = CellResult(
            cell=Cell(task="selftest-ok", n=5),
            status="ok",
            payload={"answer": 42, "faults": {"recoveries": 1}},
        )
        timed = result.to_json(include_timing=True)
        assert timed["payload"]["faults"] == {"recoveries": 1}
        deterministic = result.to_json(include_timing=False)
        assert "faults" not in deterministic["payload"]
        assert deterministic["payload"]["answer"] == 42


class TestFailureIsolation:
    GRID = GridSpec(
        "mixed",
        (
            Cell(task="selftest-ok", n=1),
            Cell(task="selftest-fail", n=2),
            Cell(task="selftest-ok", n=3),
        ),
    )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_bad_cell_does_not_abort_the_sweep(self, jobs):
        sweep = run_sweep(self.GRID, jobs=jobs)
        assert [r.status for r in sweep] == ["ok", "error", "ok"]
        assert len(sweep.failures) == 1
        assert "RuntimeError" in sweep.failures[0].error

    def test_ok_payloads_raises_on_failure(self):
        sweep = run_sweep(self.GRID, jobs=1)
        with pytest.raises(RuntimeError, match="selftest-fail"):
            sweep.ok_payloads()

    def test_dead_worker_recorded_not_hung(self):
        """A SIGKILLed worker (OOM analogue) degrades to per-cell errors."""
        grid = GridSpec(
            "kill",
            (
                Cell(task="selftest-ok", n=1),
                Cell(task="selftest-kill", n=2),
            ),
        )
        sweep = run_sweep(grid, jobs=2)
        statuses = {r.cell.task: r.status for r in sweep}
        assert statuses["selftest-kill"] == "error"
        kill_result = next(
            r for r in sweep if r.cell.task == "selftest-kill"
        )
        assert "worker failed:" in kill_result.error
        # The healthy cell may also be lost if it shared the broken pool
        # epoch, but it must be *recorded*, never hung.
        assert statuses["selftest-ok"] in ("ok", "error")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_timeout_in_pool_worker(self, jobs):
        grid = GridSpec(
            "slow",
            (
                Cell(task="selftest-ok", n=1),
                Cell(task="selftest-sleep", params=(("sleep", 5.0),)),
            ),
        )
        sweep = run_sweep(grid, jobs=jobs, timeout=0.2)
        assert [r.status for r in sweep] == ["ok", "timeout"]


class TestAggregation:
    def test_stats_summed_per_word_size(self):
        sweep = run_sweep(named_grid("smoke"), jobs=1)
        buckets = sweep.aggregate_stats()
        # smoke mixes n=40 path (6-bit words), n=30 star (5-bit) and small
        # graphs (4-bit); __add__ may only combine within a bucket.
        assert len(buckets) >= 2
        for bits, stats in buckets.items():
            assert isinstance(stats, RunStats)
            assert stats.word_bits == bits
            assert stats.total_bits == stats.total_words * bits
        by_hand: dict[int, RunStats] = {}
        for result in sweep:
            stats = result.stats()
            if stats is None:
                continue
            if stats.word_bits in by_hand:
                by_hand[stats.word_bits] = by_hand[stats.word_bits] + stats
            else:
                by_hand[stats.word_bits] = stats
        assert buckets == by_hand

    def test_table_rows_cover_every_cell(self):
        sweep = run_sweep(named_grid("smoke"), jobs=1)
        rows = sweep.table_rows()
        assert len(rows) == len(sweep)
        assert all(row[1] == "ok" for row in rows)


class TestNamedGrids:
    def test_every_named_grid_builds_known_tasks(self):
        known = set(task_names())
        for name in NAMED_GRIDS:
            grid = named_grid(name)
            assert len(grid) > 0
            for cell in grid.cells:
                assert cell.task in known
                get_task(cell.task)

    def test_parallel_bench_grid_meets_acceptance_size(self):
        grid = named_grid("parallel-bench")
        assert len(grid) >= 24
        engines = {c.engine for c in grid.cells}
        assert engines == {"v1", "v2"}

    def test_unknown_grid_name(self):
        with pytest.raises(KeyError, match="unknown grid"):
            named_grid("nope")

    def test_solver_engines_grid_shape(self):
        grid = named_grid("solver-engines")
        engines = {c.engine for c in grid.cells}
        assert engines == {"v1", "v2"}
        assert {c.task for c in grid.cells} == {"mvc-congest", "mds-congest"}
        # The acceptance criterion needs an E01 and an E12 timing point at
        # n >= 200 for every engine.
        for task in ("mvc-congest", "mds-congest"):
            big = [c for c in grid.cells if c.task == task and c.n >= 200]
            assert {c.engine for c in big} == {"v1", "v2"}


class TestCellGraphs:
    """Each cell builds its own graph from its own coordinates."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unbuildable_graph_is_a_cell_error(self, jobs):
        grid = GridSpec(
            "graphs",
            (
                Cell(task="mvc-congest", graph="nope", n=8, seed=0, eps=0.5),
                Cell(task="mvc-congest", graph="gnp", n=8, seed=0, eps=0.5),
            ),
        )
        sweep = run_sweep(grid, jobs=jobs)
        assert [r.status for r in sweep] == ["error", "ok"]
        assert "unknown graph kind 'nope'" in sweep.failures[0].error

    def test_solver_axes_see_the_same_graph(self):
        v1 = Cell(task="mvc-congest", n=14, seed=5, eps=0.5, engine="v1")
        v2 = Cell(task="mvc-congest", n=14, seed=5, eps=0.5, engine="v2")
        assert evaluate_cell(v1).payload == evaluate_cell(v2).payload

    def test_graph_seed_param_overrides_the_cell_seed(self):
        from repro.sweep.tasks import _cell_graph

        def edges(seed, **params):
            cell = Cell(
                task="mvc-congest", n=20, seed=seed,
                params=tuple(params.items()),
            )
            return sorted(_cell_graph(cell).edges())

        assert edges(1, graph_seed=7) == edges(2, graph_seed=7)
        assert edges(1) != edges(2)


class TestMemoryMetering:
    def test_max_rss_recorded_and_timing_scoped(self):
        result = evaluate_cell(self._ok_cell())
        assert result.max_rss_kb is None or result.max_rss_kb > 0
        timed = result.to_json(include_timing=True)
        assert "max_rss_kb" in timed
        deterministic = result.to_json(include_timing=False)
        assert "max_rss_kb" not in deterministic
        assert "seconds" not in deterministic

    def test_sweep_json_carries_rss_only_with_timing(self):
        sweep = run_sweep(GridSpec("one", (self._ok_cell(),)), jobs=1)
        with_timing = sweep.to_json(include_timing=True)
        assert "max_rss_kb" in with_timing["results"][0]
        assert "max_rss_kb" not in json.loads(sweep.deterministic_json())[
            "results"
        ][0]

    @staticmethod
    def _ok_cell():
        return Cell(task="selftest-ok", n=3, seed=0)
