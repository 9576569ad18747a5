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
        assert result.warning is None

    def test_unknown_task_is_an_error_result(self):
        result = evaluate_cell(Cell(task="no-such-task"))
        assert result.status == "error"
        assert "no-such-task" in result.error

    def test_timeout_off_main_thread_falls_back_with_warning(self):
        # SIGALRM never fires off the main thread; the cell must still
        # run (un-budgeted) and the degradation must be recorded, not
        # silent.
        import threading

        box: list = []

        def worker():
            box.append(
                evaluate_cell(
                    Cell(task="selftest-ok", n=5, seed=7), timeout=30.0
                )
            )

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        (result,) = box
        assert result.ok
        assert result.payload == {"n": 5, "seed": 7, "signature": "ok-5"}
        assert "not enforced" in result.warning
        assert "main thread" in result.warning

    def test_timeout_without_sigalrm_falls_back_with_warning(
        self, monkeypatch
    ):
        # Platforms without SIGALRM (Windows) must degrade the same way
        # instead of raising on the missing symbol.
        import signal as signal_module

        monkeypatch.delattr(signal_module, "SIGALRM")
        result = evaluate_cell(
            Cell(task="selftest-ok", n=5, seed=7), timeout=30.0
        )
        assert result.ok
        assert "SIGALRM" in result.warning
        assert "un-budgeted" in result.warning

    def test_warning_is_timing_scoped_in_json(self):
        # The warning is platform-dependent, like seconds/max_rss_kb, so
        # it must stay out of the deterministic parity surface.
        result = evaluate_cell(Cell(task="selftest-ok", n=5, seed=7))
        assert "warning" in result.to_json(include_timing=True)
        assert "warning" not in result.to_json(include_timing=False)
        assert result.warning is None


class TestWarningSurfacing:
    """Regression: a degraded cell must be visible in the merged outputs,
    not only on the individual CellResult."""

    def _sweep(self, warning=None):
        from repro.sweep.runner import SweepResult

        results = [
            evaluate_cell(Cell(task="selftest-ok", n=5, seed=7)),
            evaluate_cell(Cell(task="selftest-ok", n=6, seed=8)),
        ]
        results[1].warning = warning
        return SweepResult(
            grid=GridSpec("g", tuple(r.cell for r in results)),
            results=results,
            jobs=1,
            wall_seconds=0.0,
        )

    def test_table_rows_carry_a_marker(self):
        sweep = self._sweep(warning="timeout 5s not enforced")
        details = [row[-1] for row in sweep.table_rows()]
        assert not details[0].startswith("warn!")
        assert details[1].startswith("warn! ")
        # The signature detail survives behind the marker.
        assert "ok-6" in details[1]

    def test_to_json_counts_warnings_under_timing(self):
        sweep = self._sweep(warning="degraded")
        assert sweep.to_json(include_timing=True)["warnings"] == 1
        assert "warnings" not in sweep.to_json(include_timing=False)

    def test_clean_sweep_counts_zero(self):
        sweep = self._sweep(warning=None)
        assert sweep.to_json(include_timing=True)["warnings"] == 0
        assert all(
            not str(row[-1]).startswith("warn!")
            for row in sweep.table_rows()
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
        assert "worker failed" in kill_result.error
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


class TestRetry:
    """Bounded per-cell retry with deterministic backoff (transients only)."""

    @staticmethod
    def _flaky_cell(tmp_path, n=5):
        return Cell(
            task="selftest-flaky", n=n, seed=1,
            params=(("marker", str(tmp_path / f"flaky-{n}.marker")),),
        )

    def test_transient_failure_retried_to_ok(self, tmp_path):
        from repro.sweep.runner import evaluate_cell_with_retry

        result = evaluate_cell_with_retry(self._flaky_cell(tmp_path), retries=1)
        assert result.ok
        assert result.attempts == 2
        assert result.payload["signature"] == "flaky-5"

    def test_without_retries_the_transient_is_an_error(self, tmp_path):
        from repro.sweep.runner import evaluate_cell_with_retry

        result = evaluate_cell_with_retry(self._flaky_cell(tmp_path), retries=0)
        assert result.status == "error"
        assert "WorkerCrashError" in result.error
        assert result.attempts == 1

    def test_persistent_failure_exhausts_the_budget(self):
        from repro.sweep.runner import evaluate_cell_with_retry

        result = evaluate_cell_with_retry(
            Cell(task="selftest-fail", n=3), retries=3, backoff=0.0
        )
        # Non-transient failures (a typed model error) never retry.
        assert result.status == "error"
        assert result.attempts == 1

    def test_timeout_is_transient(self):
        from repro.sweep.runner import evaluate_cell_with_retry

        result = evaluate_cell_with_retry(
            Cell(task="selftest-sleep", params=(("sleep", 5.0),)),
            timeout=0.2, retries=1, backoff=0.0,
        )
        assert result.status == "timeout"
        assert result.attempts == 2

    def test_attempts_are_timing_scoped(self, tmp_path):
        from repro.sweep.runner import evaluate_cell_with_retry

        result = evaluate_cell_with_retry(self._flaky_cell(tmp_path), retries=1)
        assert result.to_json(include_timing=True)["attempts"] == 2
        assert "attempts" not in result.to_json(include_timing=False)

    def test_serial_sweep_retries_flaky_cells(self, tmp_path):
        grid = GridSpec("flaky", (self._flaky_cell(tmp_path),))
        sweep = run_sweep(grid, jobs=1, retries=1)
        assert not sweep.failures
        (result,) = list(sweep)
        assert result.attempts == 2

    def test_retry_does_not_change_the_deterministic_digest(self, tmp_path):
        cell = Cell(task="selftest-ok", n=5, seed=7)
        clean = run_sweep(GridSpec("g", (cell,)), jobs=1)
        flaky = run_sweep(
            GridSpec("g", (self._flaky_cell(tmp_path, n=5),)), jobs=1,
            retries=1,
        )
        # Different tasks, so compare the shape of the contract instead:
        # attempts live only under timing in both documents.
        for sweep in (clean, flaky):
            deterministic = json.loads(sweep.deterministic_json())
            assert "attempts" not in deterministic["results"][0]

    def test_fault_report_is_timing_scoped(self):
        # A timing-scoped key in a task payload (here the contract's
        # "faults") stays out of the deterministic digest like attempts
        # and warnings.
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

    def test_pool_killed_worker_retried_in_fresh_worker(self, tmp_path):
        marker = tmp_path / "kill.marker"
        grid = GridSpec(
            "kill",
            (
                Cell(task="selftest-ok", n=1),
                Cell(
                    task="selftest-kill", n=2,
                    params=(("marker", str(marker)),),
                ),
            ),
        )
        sweep = run_sweep(grid, jobs=2, retries=1, retry_backoff=0.0)
        statuses = {r.cell.task: r.status for r in sweep}
        assert statuses["selftest-kill"] == "ok"
        kill_result = next(
            r for r in sweep if r.cell.task == "selftest-kill"
        )
        assert kill_result.attempts == 2
        assert kill_result.payload["signature"] == "kill-recovered-2"

    def test_pool_killed_worker_without_retries_stays_error(self):
        # Two cells so the pool path runs (single-cell grids evaluate
        # serially, where selftest-kill would take down the caller).
        grid = GridSpec(
            "kill",
            (Cell(task="selftest-ok", n=1), Cell(task="selftest-kill", n=2)),
        )
        sweep = run_sweep(grid, jobs=2, retries=0)
        result = next(r for r in sweep if r.cell.task == "selftest-kill")
        assert result.status == "error"
        assert "worker failed:" in result.error
        assert result.attempts == 1


class TestTimeoutDegradationDirect:
    """Satellite: `_can_arm_alarm() is False` must degrade, not crash."""

    def test_unarmable_alarm_surfaces_warning_and_runs(self, monkeypatch):
        from repro.sweep import runner as runner_module

        monkeypatch.setattr(runner_module, "_can_arm_alarm", lambda: False)
        result = evaluate_cell(
            Cell(task="selftest-ok", n=5, seed=7), timeout=30.0
        )
        assert result.ok
        assert result.payload == {"n": 5, "seed": 7, "signature": "ok-5"}
        assert result.warning is not None
        assert "un-budgeted" in result.warning

    def test_no_timeout_no_warning(self, monkeypatch):
        from repro.sweep import runner as runner_module

        monkeypatch.setattr(runner_module, "_can_arm_alarm", lambda: False)
        result = evaluate_cell(Cell(task="selftest-ok", n=5, seed=7))
        assert result.ok
        assert result.warning is None
