"""Tests for the one solve path: ``repro.solve``'s rules, run and callers."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.cli import main
from repro.graphs.generators import build_graph
from repro.mpc.options import RunOptions
from repro.mpc.parallel import WORKERS_ENV_VAR
from repro.solve import MODELS, OBSERVED_MODELS, check, solve
from repro.sweep import Cell, named_grid
from repro.sweep.grids import NAMED_GRIDS
from repro.sweep.tasks import (
    METRICS_TASKS,
    SOLVER_TASKS,
    cell_settings,
    get_task,
)


@pytest.fixture(autouse=True)
def _no_worker_override(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)


def _message(call) -> str:
    with pytest.raises(ValueError) as excinfo:
        call()
    return str(excinfo.value)


class TestCheck:
    @pytest.mark.parametrize(
        "problem, model",
        [(p, m) for p, models in sorted(MODELS.items()) for m in models],
    )
    def test_defaults_pass_every_model(self, problem, model):
        options = check(problem, model)
        assert (options is None) == (model != "mpc")

    def test_mpc_returns_validated_options(self):
        options = check("mds", "mpc", compress="auto", workers=2,
                        faults="mem@3")
        assert options.compress == "auto"
        assert options.workers == 2
        assert options.faults is not None

    @pytest.mark.parametrize(
        "problem, model", [("mvc", "cube"), ("mds", "clique-det"),
                           ("mwvc", "congest")],
    )
    def test_unknown_pair_rejected(self, problem, model):
        assert "no model" in _message(lambda: check(problem, model))

    @pytest.mark.parametrize("model", MODELS["mds"])
    def test_eps_is_mvc_only(self, model):
        message = _message(lambda: check("mds", model, eps=0.5))
        assert message == (
            "epsilon is MVC's approximation parameter; mds takes none"
        )

    def test_eps_value_checked(self):
        assert _message(lambda: check("mvc", "congest", eps=0.0)) == (
            "epsilon must be positive"
        )

    @pytest.mark.parametrize("model", ["mpc", "centralized"])
    def test_engine_refused_off_simulators(self, model):
        assert "--engine" in _message(
            lambda: check("mvc", model, engine="v1")
        )

    @pytest.mark.parametrize("model", ["clique-det", "clique-rand",
                                       "centralized"])
    @pytest.mark.parametrize("observer", ["metrics", "tracer"])
    def test_observers_need_an_observed_model(self, model, observer):
        message = _message(lambda: check("mvc", model, **{observer: "x"}))
        assert "--model congest or --model mpc" in message

    @pytest.mark.parametrize(
        "setting, value, flag",
        [("alpha", 0.9, "--alpha"), ("compress", 2, "--compress"),
         ("workers", 2, "--mpc-workers"), ("faults", "mem@1", "--faults"),
         ("parity", True, "parity")],
    )
    @pytest.mark.parametrize("model", ["congest", "clique-det",
                                       "centralized"])
    def test_mpc_settings_need_mpc(self, setting, value, flag, model):
        message = _message(lambda: check("mvc", model, **{setting: value}))
        assert message.startswith(f"{flag} ")
        assert message.endswith("; it requires --model mpc")

    def test_mpc_values_checked_by_their_validators(self):
        assert _message(lambda: check("mvc", "mpc", alpha=3.0)) == (
            "alpha must be in (0, 2], got 3.0"
        )
        assert _message(lambda: check("mvc", "mpc", compress=0)) == (
            _message(lambda: RunOptions(0))
        )


class TestSolve:
    def test_payload_keys(self):
        graph = build_graph("gnp", 12, seed=5)
        payload = solve("mds", "congest", graph, seed=5, exact=True)
        assert list(payload) == [
            "cover_size", "phases", "max_degree", "stats", "signature",
            "opt", "ratio",
        ]
        assert payload["ratio"] == payload["cover_size"] / payload["opt"]

    def test_centralized_has_no_stats(self):
        payload = solve("mvc", "centralized", nx.path_graph(6))
        assert list(payload) == ["cover_size", "signature"]

    def test_check_runs_before_the_solve(self):
        # An empty graph would be an InputError; the rule comes first.
        with pytest.raises(ValueError, match="--alpha"):
            solve("mvc", "congest", nx.Graph(), alpha=0.9)

    def test_mpc_matches_congest(self):
        graph = build_graph("gnp", 12, seed=3)
        congest = solve("mvc", "congest", graph, seed=3)
        mpc = solve("mvc", "mpc", graph, seed=3, alpha=0.9, parity=True)
        assert mpc["signature"] == congest["signature"]
        assert mpc["stats"] == congest["stats"]
        assert mpc["mpc"]["alpha"] == 0.9


class TestSolverTasks:
    def test_metrics_tasks_follow_the_observed_models(self):
        assert METRICS_TASKS == {
            task for task, (_, model) in SOLVER_TASKS.items()
            if model in OBSERVED_MODELS
        } | {"mpc-matching"}

    def test_every_solver_task_is_registered(self):
        for task, (problem, model) in SOLVER_TASKS.items():
            assert model in MODELS[problem]
            assert get_task(task) is get_task("mvc-congest")

    @pytest.mark.parametrize("name", sorted(NAMED_GRIDS))
    def test_named_grid_cells_pass_check(self, name):
        cells = [
            cell for cell in named_grid(name).cells
            if cell.task in SOLVER_TASKS
        ]
        for cell in cells:
            check(*SOLVER_TASKS[cell.task], **cell_settings(cell))

    @pytest.mark.parametrize(
        "cell, argv",
        [
            (
                Cell(task="mpc-mvc", n=10, seed=1, engine="v1",
                     params=(("alpha", 0.9),)),
                ["mvc", "--model", "mpc", "--engine", "v1"],
            ),
            (
                Cell(task="mvc-congest", n=10, seed=1,
                     params=(("alpha", 0.9),)),
                ["mvc", "--alpha", "0.9"],
            ),
            (
                Cell(task="mvc-congest", n=10, seed=1,
                     params=(("compress", 4),)),
                ["mvc", "--compress", "4"],
            ),
            (
                Cell(task="mvc-congest", n=10, seed=1,
                     params=(("faults", "mem@1"),)),
                ["mvc", "--faults", "mem@1"],
            ),
            (
                Cell(task="mvc-clique-det", n=10, seed=1,
                     params=(("metrics", True),)),
                ["mvc", "--model", "clique-det", "--metrics", "unused.json"],
            ),
        ],
        ids=["mpc-engine", "congest-alpha", "congest-compress",
             "congest-faults", "clique-metrics"],
    )
    def test_cell_and_cli_share_the_message(self, cell, argv, capsys):
        message = _message(lambda: get_task(cell.task)(cell))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("task", ["mds-congest", "mpc-mds"])
    def test_eps_on_an_mds_cell_fails_through_check(self, task):
        cell = Cell(task=task, n=10, seed=1, eps=0.3)
        _, model = SOLVER_TASKS[task]
        assert _message(lambda: get_task(task)(cell)) == _message(
            lambda: check("mds", model, eps=0.3)
        )
