"""Tests for the command-line interface."""

from __future__ import annotations

import json

import networkx as nx
import pytest

from repro import cli, lowerbounds
from repro.cli import build_parser, main
from repro.congest.network import CongestNetwork
from repro.core.mvc_congest import approx_mvc_square
from repro.graphs.generators import build_graph
from repro.lowerbounds import FAMILIES
from repro.lowerbounds.ckp17 import build_ckp17_mvc
from repro.mpc.compile_congest import solve_mvc_mpc
from repro.mpc.options import RunOptions
from repro.mpc.parallel import WORKERS_ENV_VAR
from repro.solve import check
from repro.sweep import Cell, GridSpec, run_sweep
from repro.sweep.runner import check_count
from repro.sweep.tasks import get_task


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["mvc"])
        assert args.n == 32
        assert args.model == "congest"

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mvc", "--model", "quantum"])


class TestMvcCommand:
    @pytest.mark.parametrize(
        "model", ["congest", "clique-det", "clique-rand", "centralized"]
    )
    def test_models_run(self, model, capsys):
        code = main(
            ["mvc", "--n", "14", "--model", model, "--exact", "--seed", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cover=" in out
        assert "ratio" in out

    @pytest.mark.parametrize("kind", ["gnp", "geometric", "tree", "grid"])
    def test_graph_kinds(self, kind, capsys):
        code = main(["mvc", "--n", "12", "--graph", kind])
        assert code == 0
        assert "cover=" in capsys.readouterr().out


def _library_message(call) -> str:
    with pytest.raises(ValueError) as excinfo:
        call()
    return str(excinfo.value)


def _usage_error(argv, capsys) -> str:
    """``main(argv)`` exits 2 printing only ``error: ...``; the message."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    return captured.err[len("error: "):]


class TestBadValues:
    """A bad value exits 2 with the message the Python entry point raises."""

    @pytest.mark.parametrize(
        "argv, library_call",
        [
            (["mvc", "--n", "0"], lambda: build_graph("gnp", 0)),
            (["mds", "--n", "0"], lambda: build_graph("gnp", 0)),
            (
                ["mvc", "--eps", "0"],
                lambda: approx_mvc_square(nx.path_graph(3), 0.0),
            ),
            (
                ["mvc", "--model", "mpc", "--alpha", "0"],
                lambda: solve_mvc_mpc(nx.path_graph(3), 0.5, alpha=0.0),
            ),
            (
                ["mvc", "--model", "mpc", "--alpha", "3"],
                lambda: solve_mvc_mpc(nx.path_graph(3), 0.5, alpha=3.0),
            ),
            (
                ["mvc", "--graph", "path", "--n", "0"],
                lambda: build_graph("path", 0),
            ),
            (
                ["verify", "--samples", "-2"],
                lambda: check_count("samples", -2, 1),
            ),
            (
                ["verify", "--samples", "0"],
                lambda: check_count("samples", 0, 1),
            ),
            (
                ["verify", "--model", "mpc", "--samples", "0"],
                lambda: check_count("samples", 0, 1),
            ),
            (
                ["verify", "--k", "3"],
                lambda: build_ckp17_mvc(frozenset(), frozenset(), 3),
            ),
            (
                ["verify", "--family", "bcd19", "--k", "3"],
                lambda: build_ckp17_mvc(frozenset(), frozenset(), 3),
            ),
            (
                ["gallery", "--k", "3"],
                lambda: build_ckp17_mvc(frozenset(), frozenset(), 3),
            ),
            (
                ["gallery", "--k", "-1"],
                lambda: build_ckp17_mvc(frozenset(), frozenset(), -1),
            ),
            (
                ["verify", "--jobs", "0"],
                lambda: run_sweep(GridSpec("empty"), jobs=0),
            ),
            (
                ["sweep", "--grid", "smoke", "--jobs", "0"],
                lambda: run_sweep(GridSpec("empty"), jobs=0),
            ),
            (
                ["sweep", "--grid", "smoke", "--repeats", "0"],
                lambda: run_sweep(GridSpec("empty"), repeats=0),
            ),
            (
                ["sweep", "--grid", "smoke", "--repeats", "-3"],
                lambda: run_sweep(GridSpec("empty"), repeats=-3),
            ),
            (
                ["sweep", "--grid", "smoke", "--timeout", "0"],
                lambda: run_sweep(GridSpec("empty"), timeout=0),
            ),
            (
                ["sweep", "--grid", "smoke", "--timeout", "-1"],
                lambda: run_sweep(GridSpec("empty"), timeout=-1.0),
            ),
            (
                ["sweep", "--task", "mvc-congest", "--ns", "10",
                 "--engines", "v9"],
                lambda: CongestNetwork(nx.path_graph(3), engine="v9"),
            ),
            (
                ["sweep", "--task", "mvc-congest", "--ns", "10",
                 "--graphs", "bogus"],
                lambda: build_graph("bogus", 10),
            ),
            (
                ["sweep", "--task", "mvc-congest", "--ns", "10",
                 "--epss", "0"],
                lambda: approx_mvc_square(nx.path_graph(3), 0.0),
            ),
            (
                ["sweep", "--task", "mvc-congest", "--ns", "0"],
                lambda: build_graph("gnp", 0),
            ),
            (
                ["sweep", "--task", "mvc-congest", "--ns", "10",
                 "--replicates", "0"],
                lambda: check_count("replicates", 0, 1),
            ),
            (
                ["sweep", "--task", "mpc-mvc", "--model", "mpc",
                 "--ns", "10", "--alphas", "0"],
                lambda: solve_mvc_mpc(nx.path_graph(3), 0.5, alpha=0.0),
            ),
            (
                ["sweep", "--task", "mpc-mvc", "--model", "mpc",
                 "--ns", "10", "--compress", "0"],
                lambda: RunOptions(0),
            ),
            (
                ["sweep", "--task", "mpc-mvc", "--model", "mpc",
                 "--ns", "10", "--mpc-workers", "0"],
                lambda: RunOptions(workers=0),
            ),
            (
                ["sweep", "--task", "mpc-mvc", "--model", "mpc",
                 "--ns", "10", "--faults", "bogus"],
                lambda: RunOptions(faults="bogus"),
            ),
            (
                ["verify", "--model", "mpc", "--alpha", "0"],
                lambda: solve_mvc_mpc(nx.path_graph(3), 0.5, alpha=0.0),
            ),
            (
                ["verify", "--model", "mpc", "--alpha", "3"],
                lambda: solve_mvc_mpc(nx.path_graph(3), 0.5, alpha=3.0),
            ),
            (
                ["verify", "--model", "mpc", "--n", "0"],
                lambda: build_graph("gnp", 0),
            ),
            (
                ["verify", "--model", "mpc", "--n", "-3"],
                lambda: build_graph("gnp", -3),
            ),
        ],
        ids=[
            "mvc-n0", "mds-n0", "eps0", "alpha0", "alpha3", "empty-path",
            "verify-samples-2", "verify-samples0", "verify-mpc-samples0",
            "verify-k3", "verify-bcd19-k3", "gallery-k3", "gallery-k-1",
            "verify-jobs0", "sweep-jobs0",
            "sweep-repeats0", "sweep-repeats-3", "sweep-timeout0",
            "sweep-timeout-1", "sweep-engine-v9", "sweep-graph-bogus",
            "sweep-eps0", "sweep-n0", "sweep-replicates0",
            "sweep-alphas0", "sweep-compress0", "sweep-mpc-workers0",
            "sweep-faults-bogus", "verify-mpc-alpha0", "verify-mpc-alpha3",
            "verify-mpc-n0", "verify-mpc-n-3",
        ],
    )
    def test_exits_2_with_library_message(self, argv, library_call, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {_library_message(library_call)}\n"
        assert captured.out == ""


class TestMpcBudgetErrors:
    """A ``MemoryBudgetExceeded`` is a failed run: ``error:``, exit 1."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["mvc", "--n", "40", "--model", "mpc", "--alpha", "0.3"],
                "vertex 32 needs 12 words",
            ),
            (
                ["mvc", "--n", "14", "--model", "mpc", "--alpha", "0.9",
                 "--faults", "mem@1"],
                "injected by fault plan",
            ),
        ],
        ids=["budget-too-small", "injected-mem-fault"],
    )
    def test_prints_error_without_traceback(self, argv, message, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert message in err
        assert "Traceback" not in err
        assert err.count("\n") == 1


class TestMdsCommand:
    def test_runs(self, capsys):
        code = main(["mds", "--n", "14", "--exact", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dominating set:" in out
        assert "phases=" in out


class TestGalleryCommand:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_families_build(self, family, capsys):
        code = main(["gallery", "--family", family, "--k", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cut=" in out
        assert "threshold=" in out

    @pytest.mark.parametrize("family", FAMILIES)
    def test_gallery_and_verify_build_the_same_member(
        self, family, monkeypatch, capsys
    ):
        built = []
        original = lowerbounds.build_family

        def recording(*args):
            built.append(original(*args))
            return built[-1]

        monkeypatch.setattr(cli, "build_family", recording)
        monkeypatch.setattr(lowerbounds, "build_family", recording)
        assert main(["gallery", "--family", family, "--k", "2",
                     "--seed", "5"]) == 0
        task = f"verify-{family}"
        get_task(task)(Cell(task=task, n=0, seed=5, params=(("k", 2),)))
        gallery, verify = built
        assert nx.utils.graphs_equal(gallery.graph, verify.graph)
        assert (gallery.threshold, gallery.extra) == (
            verify.threshold, verify.extra
        )

    def test_unknown_family_is_rejected(self):
        with pytest.raises(ValueError, match="unknown lower-bound family"):
            lowerbounds.build_family("ckp18", frozenset(), frozenset(), 2)


class TestVerifyCommand:
    def test_ckp17_verifies(self, capsys):
        code = main(["verify", "--family", "ckp17", "--k", "2",
                     "--samples", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "3/3 instances verified" in out

    def test_bcd19_verifies(self, capsys):
        code = main(["verify", "--family", "bcd19", "--k", "2",
                     "--samples", "3"])
        assert code == 0
        assert "3/3" in capsys.readouterr().out

    def test_gap_weighted_verifies(self, capsys):
        code = main(
            ["verify", "--family", "gap-weighted", "--samples", "2"]
        )
        assert code == 0
        assert "2/2" in capsys.readouterr().out

    def test_jobs_flag_gives_identical_output(self, capsys):
        """--jobs 1 and --jobs 2 print the same per-seed lines."""
        args = ["verify", "--family", "ckp17", "--k", "2", "--samples", "3"]
        assert main(args + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel
        assert "3/3 instances verified" in serial


class TestSweepCommand:
    def test_named_grid_runs(self, capsys):
        code = main(["sweep", "--grid", "smoke", "--jobs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "8 ok, 0 error, 0 timeout" in out
        assert "deterministic sha256:" in out

    def test_jobs_1_and_2_equivalent(self, capsys, tmp_path):
        """The acceptance property at test scale: identical merged JSON."""
        digests = {}
        for jobs in ("1", "2"):
            path = tmp_path / f"out{jobs}.json"
            code = main(
                ["sweep", "--grid", "smoke", "--jobs", jobs,
                 "--json", str(path), "--quiet"]
            )
            assert code == 0
            capsys.readouterr()
            data = json.loads(path.read_text())
            digests[jobs] = data["deterministic_sha256"]
            assert data["counts"] == {"ok": 8, "error": 0, "timeout": 0}
        assert digests["1"] == digests["2"]

    def test_adhoc_grid(self, capsys):
        code = main(
            ["sweep", "--task", "mvc-congest", "--graphs", "gnp,tree",
             "--ns", "10,12", "--epss", "0.5", "--jobs", "1"]
        )
        assert code == 0
        assert "4 ok" in capsys.readouterr().out

    def test_unarmable_timeout_is_a_usage_error(self, capsys, monkeypatch):
        import signal as signal_module

        monkeypatch.delattr(signal_module, "SIGALRM")
        message = _usage_error(
            ["sweep", "--task", "selftest-ok", "--ns", "8",
             "--timeout", "30"],
            capsys,
        )
        assert message.startswith("timeout 30s cannot be enforced")

    def test_failures_set_exit_code(self, capsys):
        code = main(
            ["sweep", "--task", "selftest-fail", "--ns", "8", "--quiet"]
        )
        assert code == 1
        assert "1 error" in capsys.readouterr().out

    def test_grid_and_task_are_exclusive(self, capsys):
        message = _usage_error(
            ["sweep", "--grid", "smoke", "--task", "mvc-congest"], capsys
        )
        assert "either --grid or --task" in message

    def test_requires_grid_or_task(self, capsys):
        assert "requires --grid NAME" in _usage_error(["sweep"], capsys)

    def test_empty_grid_rejected(self, capsys):
        message = _usage_error(
            ["sweep", "--task", "mvc-congest", "--ns", ""], capsys
        )
        assert "sweep grid is empty" in message

    @pytest.mark.parametrize(
        "flag, value", [("--ns", "abc"), ("--epss", "x")]
    )
    def test_unparsable_axis_value_rejected(self, flag, value, capsys):
        argv = ["sweep", "--task", "mvc-congest", "--ns", "10", flag, value]
        assert _usage_error(argv, capsys).startswith(f"{flag}: ")


class TestAlphasParsing:
    def test_duplicates_dropped_preserving_order(self):
        from repro.cli import _parse_alphas, _sweep_grid_from_args

        assert _parse_alphas("0.9,0.8,0.9,0.80") == (0.9, 0.8)
        # A duplicated alpha must not double-run any cell.
        args = build_parser().parse_args(
            ["sweep", "--task", "mpc-mvc", "--model", "mpc",
             "--alphas", "0.9,0.9,0.8", "--ns", "12"]
        )
        grid = _sweep_grid_from_args(args)
        keys = [cell.key for cell in grid.cells]
        assert len(keys) == len(set(keys)) == 2

    @staticmethod
    def _sweep_alphas(alphas):
        return ["sweep", "--task", "mpc-mvc", "--model", "mpc",
                "--alphas", alphas, "--ns", "10"]

    def test_nonpositive_alpha_rejected(self, capsys):
        for bad in ("0", "-0.5", "0.8,0", "3"):
            message = _usage_error(self._sweep_alphas(bad), capsys)
            assert message.startswith("alpha must be in (0, 2]")

    def test_non_numeric_alpha_rejected(self, capsys):
        message = _usage_error(self._sweep_alphas("0.8,abc"), capsys)
        assert "not a number" in message


class TestCompressFlag:
    def test_mvc_mpc_with_compression(self, capsys):
        code = main(
            ["mvc", "--n", "14", "--model", "mpc", "--alpha", "0.9",
             "-k", "4", "--seed", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "compression:" in out
        assert "-k 4" in out

    def test_compress_requires_mpc_model(self, capsys):
        code = main(["mvc", "--n", "12", "--compress", "2"])
        assert code == 2
        assert "--model mpc" in capsys.readouterr().err

    def test_compress_must_be_positive(self, capsys):
        code = main(
            ["mds", "--n", "12", "--model", "mpc", "--compress", "0"]
        )
        assert code == 2
        assert ">= 1" in capsys.readouterr().err

    def test_sweep_compress_axis_dedupes(self, capsys):
        from repro.cli import _parse_compress, _sweep_grid_from_args

        assert _parse_compress("4,2,4,1") == (4, 2, 1)
        message = _usage_error(
            ["sweep", "--task", "mpc-mvc", "--model", "mpc",
             "--compress", "2,0", "--ns", "12"],
            capsys,
        )
        assert ">= 1" in message
        args = build_parser().parse_args(
            ["sweep", "--task", "mpc-mvc", "--model", "mpc",
             "--alphas", "0.9", "--compress", "1,2,2", "--ns", "12"]
        )
        grid = _sweep_grid_from_args(args)
        assert len(grid.cells) == 2
        assert [cell.param("compress", 1) for cell in grid.cells] == [1, 2]

    def test_sweep_compress_requires_mpc_model(self, capsys):
        message = _usage_error(
            ["sweep", "--task", "mvc-congest", "--ns", "10",
             "--compress", "2"],
            capsys,
        )
        assert "--model mpc" in message

    def test_verify_mpc_with_compression(self, capsys):
        code = main(
            ["verify", "--model", "mpc", "--samples", "1", "--n", "12",
             "--compress", "2"]
        )
        assert code == 0
        assert "parity samples verified" in capsys.readouterr().out


class TestAutoCompressFlag:
    def test_auto_runs_and_prints_ledger(self, capsys):
        code = main(
            ["mvc", "--n", "14", "--model", "mpc", "--alpha", "0.9",
             "--compress", "auto", "--seed", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "-k auto" in out
        assert "auto[" in out
        assert "skips=" in out

    def test_auto_requires_mpc_model(self, capsys):
        code = main(["mvc", "--n", "12", "--compress", "auto"])
        assert code == 2
        assert "--model mpc" in capsys.readouterr().err

    def test_bad_compress_string_rejected(self, capsys):
        code = main(["mvc", "--model", "mpc", "--compress", "fast"])
        assert code == 2
        assert "got 'fast'" in capsys.readouterr().err

    def test_sweep_axis_accepts_auto(self):
        from repro.cli import _parse_compress

        assert _parse_compress("1,auto,2,auto") == (1, "auto", 2)


class TestMetricsFlag:
    def test_mvc_congest_writes_valid_document(self, capsys, tmp_path):
        from repro.metrics import validate_metrics

        path = tmp_path / "metrics.json"
        code = main(
            ["mvc", "--n", "14", "--seed", "2", "--metrics", str(path)]
        )
        assert code == 0
        assert "metrics: wrote" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        validate_metrics(doc)
        assert doc["label"] == "mvc/gnp/n=14/seed=2"

    def test_digest_is_model_independent(self, capsys, tmp_path):
        # The deterministic section must not move between the CONGEST
        # model and the MPC compilation (any k, auto included): same
        # workload, same label, same bytes.
        digests = set()
        for extra in (
            [],
            ["--model", "mpc", "--alpha", "0.9", "-k", "auto"],
        ):
            path = tmp_path / f"m{len(digests)}.json"
            code = main(
                ["mvc", "--n", "14", "--seed", "2", "--metrics", str(path)]
                + extra
            )
            assert code == 0
            capsys.readouterr()
            digests.add(json.loads(path.read_text())["deterministic_sha256"])
        assert len(digests) == 1

    def test_metrics_requires_instrumented_model(self, capsys):
        code = main(
            ["mvc", "--n", "12", "--model", "centralized",
             "--metrics", "/tmp/unused.json"]
        )
        assert code == 2
        assert "--model congest or --model mpc" in capsys.readouterr().err

    def test_sweep_metrics_requires_capable_task(self, capsys):
        message = _usage_error(
            ["sweep", "--task", "selftest-ok", "--ns", "8",
             "--metrics", "/tmp/unused.json"],
            capsys,
        )
        assert "metrics-capable" in message

    def test_sweep_metrics_writes_cell_documents(self, capsys, tmp_path):
        from repro.metrics import validate_metrics

        path = tmp_path / "sweep_metrics.json"
        code = main(
            ["sweep", "--task", "mvc-congest", "--ns", "10,12",
             "--epss", "0.5", "--jobs", "1", "--metrics", str(path),
             "--quiet"]
        )
        assert code == 0
        assert "metrics: wrote" in capsys.readouterr().out
        data = json.loads(path.read_text())
        assert data["schema"] == "repro.metrics.sweep/1"
        assert len(data["cells"]) == 2
        for doc in data["cells"].values():
            validate_metrics(doc)


class TestFaultsFlag:
    def test_mvc_faults_require_mpc_model(self, capsys):
        code = main(["mvc", "--n", "12", "--faults", "mem@1"])
        assert code == 2
        assert "--model mpc" in capsys.readouterr().err

    def test_mds_faults_require_mpc_model(self, capsys):
        code = main(["mds", "--n", "12", "--faults", "mem@1"])
        assert code == 2
        assert "--model mpc" in capsys.readouterr().err

    def test_bad_spec_rejected(self, capsys):
        code = main(
            ["mvc", "--n", "12", "--model", "mpc", "--faults", "bogus@1"]
        )
        assert code == 2
        assert "bad fault token" in capsys.readouterr().err

    def test_sweep_faults_require_mpc_model(self, capsys):
        message = _usage_error(
            ["sweep", "--task", "mvc-congest", "--ns", "10",
             "--faults", "mem@1", "--quiet"],
            capsys,
        )
        assert "--model mpc" in message

    def test_sweep_faults_rejected_for_named_grids(self, capsys):
        message = _usage_error(
            ["sweep", "--grid", "smoke", "--faults", "mem@1"], capsys
        )
        assert "ad-hoc" in message

    def test_sweep_bad_spec_rejected(self, capsys):
        message = _usage_error(
            ["sweep", "--task", "mpc-mvc", "--model", "mpc",
             "--ns", "10", "--faults", "nope@2", "--quiet"],
            capsys,
        )
        assert "bad fault token" in message

    def test_sweep_removed_fault_kind_rejected(self, capsys):
        message = _usage_error(
            ["sweep", "--task", "mpc-mvc", "--model", "mpc",
             "--ns", "10", "--faults", "crash@1"],
            capsys,
        )
        library = _library_message(lambda: RunOptions(faults="crash@1"))
        assert message == f"{library}\n"

    def test_sweep_faults_param_attached_to_every_cell(self):
        from repro.cli import _sweep_grid_from_args, build_parser

        args = build_parser().parse_args(
            ["sweep", "--task", "mpc-mvc", "--model", "mpc",
             "--ns", "10,12", "--faults", "mem@1"]
        )
        grid = _sweep_grid_from_args(args)
        assert len(grid.cells) == 2
        assert all(
            cell.param("faults") == "mem@1" for cell in grid.cells
        )


class TestRetriesFlag:
    def test_removed_flag_is_a_parse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--grid", "smoke", "--retries", "1"])
        assert excinfo.value.code == 2
        assert "--retries" in capsys.readouterr().err


class TestForeignFlags:
    """A flag of another model exits 2 instead of being ignored."""

    @pytest.mark.parametrize(
        "argv, library_call",
        [
            (
                ["mvc", "--alpha", "5"],
                lambda: check("mvc", "congest", alpha=5.0),
            ),
            (
                ["mvc", "--model", "clique-rand", "--alpha", "0.5"],
                lambda: check("mvc", "clique-rand", alpha=0.5),
            ),
            (
                ["mds", "--alpha", "0.9"],
                lambda: check("mds", "congest", alpha=0.9),
            ),
            (
                ["mvc", "--model", "mpc", "--engine", "v1"],
                lambda: check("mvc", "mpc", engine="v1"),
            ),
            (
                ["mvc", "--model", "centralized", "--engine", "v1"],
                lambda: check("mvc", "centralized", engine="v1"),
            ),
            (
                ["mvc", "--model", "centralized", "--eps", "0.3"],
                lambda: check("mvc", "centralized", eps=0.3),
            ),
        ],
        ids=["mvc-alpha5", "clique-rand-alpha", "mds-alpha", "mpc-engine",
             "centralized-engine", "centralized-eps"],
    )
    def test_solve_flags_exit_2_with_the_rule(
        self, argv, library_call, capsys
    ):
        assert _usage_error(argv, capsys) == (
            f"{_library_message(library_call)}\n"
        )

    @pytest.mark.parametrize(
        "argv, flag, model",
        [
            (["verify", "--n", "50", "--alpha", "7"], "--n", "mpc"),
            (["verify", "--alpha", "7"], "--alpha", "mpc"),
            (["verify", "--mpc-workers", "2"], "--mpc-workers", "mpc"),
            (
                ["verify", "--model", "mpc", "--family", "bcd19", "--k", "3"],
                "--family",
                "congest",
            ),
            (["verify", "--model", "mpc", "--k", "4"], "--k", "congest"),
        ],
        ids=["congest-n", "congest-alpha", "congest-mpc-workers",
             "mpc-family", "mpc-k"],
    )
    def test_verify_flags_exit_2(self, argv, flag, model, capsys):
        message = _usage_error(argv, capsys)
        assert message.startswith(f"{flag} ")
        assert message.endswith(f"; it requires --model {model}\n")

    def test_defaults_are_not_foreign(self, capsys):
        assert main(["verify", "--model", "mpc", "--samples", "1",
                     "--n", "12", "--family", "ckp17", "--k", "2"]) == 0
        assert main(["verify", "--samples", "1", "--compress", "1"]) == 0
        capsys.readouterr()


class TestSweepEpsilonAxis:
    @pytest.mark.parametrize(
        "task, model",
        [("mds-congest", "congest"), ("mpc-mds", "mpc"),
         ("mds-estimator", "congest"), ("pipeline-path", "congest"),
         ("mpc-matching", "mpc")],
    )
    def test_refused_off_the_mvc_solver_tasks(self, task, model, capsys):
        message = _usage_error(
            ["sweep", "--task", task, "--model", model, "--ns", "12",
             "--epss", "0.3,0.5"],
            capsys,
        )
        assert message.startswith("--epss applies to the MVC solver tasks")
        assert f"task {task!r} takes no epsilon" in message

    @pytest.mark.parametrize(
        "task, model",
        [("mvc-congest", "congest"), ("mvc-clique-det", "congest"),
         ("mpc-mvc", "mpc")],
    )
    def test_accepted_on_the_mvc_solver_tasks(self, task, model):
        from repro.cli import _sweep_grid_from_args

        args = build_parser().parse_args(
            ["sweep", "--task", task, "--model", model, "--ns", "12",
             "--epss", "0.3,0.5"]
        )
        grid = _sweep_grid_from_args(args)
        assert [cell.eps for cell in grid.cells] == [0.3, 0.5]


#: Stdout of ``mvc``/``mds --n 14 --seed 2 --exact`` per model, as the
#: separate CLI and sweep solve paths printed it before they were merged.
_TRANSCRIPTS = {
    ("mvc", "congest"): (
        "graph: gnp n=14 m=20 (square m=51)\n"
        "model: congest  cover=12  rounds=43\n"
        "exact optimum: 10  ratio: 1.200\n"
    ),
    ("mvc", "clique-det"): (
        "graph: gnp n=14 m=20 (square m=51)\n"
        "model: clique-det  cover=12  rounds=25\n"
        "exact optimum: 10  ratio: 1.200\n"
    ),
    ("mvc", "clique-rand"): (
        "graph: gnp n=14 m=20 (square m=51)\n"
        "model: clique-rand  cover=10  rounds=11\n"
        "exact optimum: 10  ratio: 1.000\n"
    ),
    ("mvc", "centralized"): (
        "graph: gnp n=14 m=20 (square m=51)\n"
        "model: centralized  cover=12  rounds=0\n"
        "exact optimum: 10  ratio: 1.200\n"
    ),
    ("mvc", "mpc"): (
        "mpc: machines=7 S=9 words (alpha=0.8)  shuffles=43 "
        "shuffle_words=2880 max_machine_load=35\n"
        "graph: gnp n=14 m=20 (square m=51)\n"
        "model: mpc  cover=12  rounds=43\n"
        "exact optimum: 10  ratio: 1.200\n"
    ),
    ("mds", "congest"): (
        "graph: gnp n=14 m=20\n"
        "dominating set: 3  rounds=291  phases=2\n"
        "exact optimum: 2  ratio: 1.500\n"
    ),
    ("mds", "mpc"): (
        "mpc: machines=5 S=11 words (alpha=0.9)  shuffles=151 "
        "shuffle_words=37867 max_machine_load=80  compression: 291 CONGEST "
        "rounds in 151 shuffles (-k 4)\n"
        "graph: gnp n=14 m=20\n"
        "dominating set: 3  rounds=291  phases=2\n"
        "exact optimum: 2  ratio: 1.500\n"
    ),
}


class TestSolveTranscripts:
    @pytest.fixture(autouse=True)
    def _serial_mpc(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)

    @pytest.mark.parametrize(
        "command, model", sorted(_TRANSCRIPTS), ids="-".join
    )
    def test_stdout_is_pinned(self, command, model, capsys):
        argv = [command, "--n", "14", "--seed", "2", "--exact",
                "--model", model]
        if (command, model) == ("mds", "mpc"):
            argv += ["--alpha", "0.9", "-k", "4"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == _TRANSCRIPTS[command, model]
        assert captured.err == ""


class TestMdsObservers:
    _MODELS = ([], ["--model", "mpc", "--alpha", "0.9"])

    def test_metrics_on_both_models(self, capsys, tmp_path):
        from repro.metrics import validate_metrics

        digests = set()
        for i, extra in enumerate(self._MODELS):
            path = tmp_path / f"mds{i}.json"
            code = main(["mds", "--n", "14", "--seed", "2",
                         "--metrics", str(path)] + extra)
            assert code == 0
            out = capsys.readouterr().out
            doc = json.loads(path.read_text())
            validate_metrics(doc)
            assert doc["label"] == "mds/gnp/n=14/seed=2"
            assert f"deterministic sha256 {doc['deterministic_sha256']}" in out
            digests.add(doc["deterministic_sha256"])
        assert len(digests) == 1

    def test_trace_on_both_models(self, capsys, tmp_path):
        from repro.trace import load_trace

        for i, extra in enumerate(self._MODELS):
            path = tmp_path / f"trace{i}.json"
            code = main(["mds", "--n", "14", "--seed", "2",
                         "--trace", str(path)] + extra)
            assert code == 0
            out = capsys.readouterr().out
            summary = load_trace(path)  # validates the document
            assert f"trace: wrote {path} ({summary['events']} events" in out
            assert summary["spans"] > 0
