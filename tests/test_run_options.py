"""One validated ``RunOptions`` behind every MPC entry point.

The contract under test (:mod:`repro.mpc.options`): the compression
window, the shard-worker count and the fault plan are checked in one
constructor, so the network, the solver entry points, the stage-parity
harness, the native matching, a sweep cell and the CLI reject the same
invalid value with the same ``ValueError`` text — and record the same
effective shard-worker count.  The native matching runs serially: it has
no ``workers`` parameter, so passing one is a ``TypeError``.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core.mvc_congest import PhaseOneAlgorithm
from repro.faults import FaultPlan
from repro.graphs.generators import build_graph, gnp_graph
from repro.metrics import MetricsCollector
from repro.mpc import (
    WORKERS_ENV_VAR,
    Machine,
    MachineProgram,
    MPCCongestNetwork,
    MPCRuntime,
    RunOptions,
    mpc_maximal_matching,
    run_stage_parity,
    solve_mds_mpc,
    solve_mvc_mpc,
)
from repro.mpc.parallel import fork_available
from repro.sweep import Cell
from repro.sweep.tasks import get_task

_COMPRESS = "compress must be an integer >= 1 or 'auto', got {!r}"
_WORKERS = "workers must be an integer >= 1, got {!r}"
_FAULTS = "bad fault token {!r}: expected mem@B[:M]"

#: ``(option, value, expected ValueError text)`` per invalid input class.
INVALID = [
    ("compress", 0, _COMPRESS.format(0)),
    ("compress", 2.5, _COMPRESS.format(2.5)),
    ("compress", "4", _COMPRESS.format("4")),
    ("workers", 0, _WORKERS.format(0)),
    ("workers", 2.5, _WORKERS.format(2.5)),
    ("faults", "bogus@1", _FAULTS.format("bogus@1")),
    # The crash/straggle fault plane and its recovery budget are gone.
    ("faults", "crash@1", _FAULTS.format("crash@1")),
    ("faults", "straggle@1", _FAULTS.format("straggle@1")),
    ("faults", "max_recoveries=2", _FAULTS.format("max_recoveries=2")),
]

GRAPH = gnp_graph(10, 0.3, seed=1)


def _network(option, value):
    MPCCongestNetwork(
        GRAPH, alpha=0.9, seed=1, options=RunOptions(**{option: value})
    )


def _solve_mvc(option, value):
    solve_mvc_mpc(GRAPH, 0.5, alpha=0.9, seed=1, **{option: value})


def _solve_mds(option, value):
    solve_mds_mpc(GRAPH, alpha=0.9, seed=1, **{option: value})


def _matching(option, value):
    if option == "compress":
        pytest.skip("the native matching has no compression window")
    mpc_maximal_matching(GRAPH, alpha=0.9, seed=1, **{option: value})


def _stage_parity(option, value):
    run_stage_parity(
        GRAPH,
        [lambda view: PhaseOneAlgorithm(view, threshold=2, iterations=2)],
        alpha=0.9,
        seed=1,
        options=RunOptions(**{option: value}),
    )


_CELL_PARAMS = {"compress": "compress", "workers": "mpc_workers",
                "faults": "faults"}


def _sweep_cell(option, value):
    params = (("alpha", 0.9), (_CELL_PARAMS[option], value))
    cell = Cell(
        task="mpc-mvc", graph="gnp", n=10, seed=1,
        params=tuple(sorted(params)),
    )
    get_task("mpc-mvc")(cell)


ENTRY_POINTS = {
    "network": _network,
    "solve_mvc_mpc": _solve_mvc,
    "solve_mds_mpc": _solve_mds,
    "mpc_maximal_matching": _matching,
    "run_stage_parity": _stage_parity,
    "sweep-mpc-mvc": _sweep_cell,
}

_CLI_FLAGS = {"compress": "--compress", "workers": "--mpc-workers",
              "faults": "--faults"}


@pytest.fixture(autouse=True)
def _no_worker_override(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("option, value, message", INVALID)
def test_every_entry_point_raises_the_same_error(
    entry, option, value, message
):
    if (entry, option) == ("mpc_maximal_matching", "workers"):
        with pytest.raises(TypeError, match="workers"):
            ENTRY_POINTS[entry](option, value)
        return
    with pytest.raises(ValueError) as excinfo:
        ENTRY_POINTS[entry](option, value)
    assert str(excinfo.value) == message


class TestSerialMatching:
    """The native matching and its runtime take no shard-worker count."""

    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_workers_parameter_is_gone(self, workers):
        with pytest.raises(TypeError, match="workers"):
            mpc_maximal_matching(GRAPH, alpha=0.9, workers=workers)

    def test_runtime_run_takes_no_options(self):
        runtime = MPCRuntime([Machine(0, 8)], word_bits=4)
        with pytest.raises(TypeError, match="options"):
            runtime.run([MachineProgram(Machine(0, 8))], options=None)

    def test_matching_never_reads_the_worker_variable(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "not a count")
        with pytest.raises(ValueError, match=WORKERS_ENV_VAR):
            RunOptions()
        assert mpc_maximal_matching(GRAPH, alpha=0.9, seed=1).matching

    def test_matching_cell_refuses_a_worker_param(self):
        cell = Cell(
            task="mpc-matching", graph="gnp", n=10, seed=1,
            params=(("alpha", 0.9), ("mpc_workers", 2)),
        )
        with pytest.raises(ValueError, match="compiled MPC cells only"):
            get_task("mpc-matching")(cell)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_sweep_cli_refuses_workers_for_matching(self, capsys, workers):
        code = main(
            ["sweep", "--task", "mpc-matching", "--model", "mpc",
             "--ns", "10", "--mpc-workers", workers]
        )
        assert code == 2
        assert "compiled MPC cells only" in capsys.readouterr().err


@pytest.mark.parametrize("option, value, message", INVALID)
def test_cli_exits_2_with_the_same_message(capsys, option, value, message):
    if isinstance(value, str) and option != "faults":
        pytest.skip("the command line cannot spell a string-typed number")
    code = main(
        ["mvc", "--n", "10", "--model", "mpc", "--alpha", "0.9",
         _CLI_FLAGS[option], str(value)]
    )
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err


class TestRunOptions:
    def test_defaults(self):
        options = RunOptions()
        assert (options.compress, options.workers, options.faults) == (
            1, 1, None
        )

    def test_bad_env_override_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2.5")
        with pytest.raises(ValueError, match=WORKERS_ENV_VAR):
            RunOptions()

    def test_spec_is_parsed_with_the_run_seed(self):
        plan = RunOptions(faults="mem@1", seed=7).faults
        assert plan == FaultPlan.from_spec("mem@1", seed=7)

    def test_plan_keeps_its_own_seed(self):
        plan = FaultPlan.from_spec("mem@1", seed=3)
        assert RunOptions(faults=plan, seed=7).faults is plan

    def test_plan_without_events_is_fault_free(self):
        for faults in (" , ", FaultPlan(seed=3)):
            options = RunOptions(faults=faults)
            assert options.faults is None
            assert options.fault_injector() is None

    def test_rejects_other_fault_types(self):
        with pytest.raises(ValueError, match="FaultPlan"):
            RunOptions(faults=3)

    def test_shard_workers_capped_by_machines(self):
        expected = 3 if fork_available() else 1
        assert RunOptions(workers=16).shard_workers(3) == expected
        assert RunOptions(workers=1).shard_workers(3) == 1


@pytest.mark.skipif(not fork_available(), reason="shard workers need fork")
class TestRecordedWorkers:
    """The effective shard-worker count, recorded the same way everywhere."""

    def test_compiled_and_cli_agree(self, capsys):
        graph = build_graph("gnp", 16, seed=2)
        collector = MetricsCollector(label="workers")
        _result, payload = solve_mvc_mpc(
            graph, 0.5, alpha=0.9, seed=2, workers=16, collector=collector
        )
        machines = payload["machines"]
        assert 1 < machines < 16
        assert collector.to_json()["variant"]["mpc"]["workers"] == machines

        code = main(
            ["mvc", "--n", "16", "--graph", "gnp", "--model", "mpc",
             "--alpha", "0.9", "--seed", "2", "--mpc-workers", "16"]
        )
        assert code == 0
        assert f"workers={machines}" in capsys.readouterr().out
