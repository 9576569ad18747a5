"""Docs-consistency smoke checks: README/DESIGN exist and track the code.

These are deliberately *smoke* checks — they assert that every CLI
subcommand, sweep option, named grid and benchmark module is mentioned in
the docs, not that prose is byte-identical to ``--help`` output (argparse
formatting varies with terminal width and Python version).  Adding a
subcommand, flag, grid or experiment without documenting it fails here.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.analysis.registry import RULES
from repro.cli import build_parser
from repro.sweep.grids import NAMED_GRIDS

REPO = Path(__file__).resolve().parent.parent
README = REPO / "README.md"
DESIGN = REPO / "DESIGN.md"
CI = REPO / ".github" / "workflows" / "ci.yml"


def _subparsers(parser):
    for action in parser._actions:
        if hasattr(action, "choices") and isinstance(action.choices, dict):
            return action.choices
    raise AssertionError("CLI parser has no subcommands")


class TestFilesExist:
    def test_readme_exists(self):
        assert README.is_file(), "README.md missing at repository root"

    def test_design_exists(self):
        assert DESIGN.is_file(), "DESIGN.md missing at repository root"


class TestReadmeTracksCli:
    def test_every_subcommand_documented(self):
        text = README.read_text()
        for command in _subparsers(build_parser()):
            assert re.search(rf"\b{re.escape(command)}\b", text), (
                f"CLI subcommand {command!r} is not mentioned in README.md"
            )

    def test_every_sweep_option_documented(self):
        text = README.read_text()
        sweep = _subparsers(build_parser())["sweep"]
        for action in sweep._actions:
            for option in action.option_strings:
                if option in ("-h", "--help"):
                    continue
                assert option in text, (
                    f"sweep option {option!r} is not mentioned in README.md"
                )

    def test_every_named_grid_documented(self):
        text = README.read_text()
        for name in NAMED_GRIDS:
            assert f"`{name}`" in text, (
                f"named grid {name!r} is not mentioned in README.md"
            )

    def test_tier1_command_and_engine_env_documented(self):
        text = README.read_text()
        assert "PYTHONPATH=src python -m pytest -x -q" in text
        assert "REPRO_ENGINE" in text
        assert "DESIGN.md" in text


class TestDesignTracksBenchmarks:
    def test_every_experiment_indexed(self):
        text = DESIGN.read_text()
        bench_dir = REPO / "benchmarks"
        for module in sorted(bench_dir.glob("bench_*.py")):
            assert module.name in text, (
                f"benchmark {module.name} has no row in DESIGN.md"
            )
            match = re.match(r"bench_e(\d+)_", module.name)
            if match:
                assert f"E{match.group(1)}" in text, (
                    f"experiment number E{match.group(1)} missing from "
                    f"DESIGN.md index"
                )

    def test_common_harness_cites_design(self):
        common = (REPO / "benchmarks" / "_common.py").read_text()
        assert "DESIGN.md" in common.split('"""')[1], (
            "benchmarks/_common.py docstring must cite the DESIGN.md "
            "experiment index"
        )


class TestAnalysisGateRegistered:
    """The determinism-contract analyzer is wired into CI and the docs."""

    def test_ci_has_analysis_job(self):
        text = CI.read_text()
        assert "\n  analysis:\n" in text, (
            "ci.yml must define an 'analysis' job"
        )
        assert (
            "python -m repro.analysis src tests benchmarks perfbench "
            "--format json" in text
        ), "the analysis job must scan src, tests, benchmarks and perfbench"
        assert "analysis-report.json" in text, (
            "the analysis job must upload its JSON report artifact"
        )

    def test_ci_runs_the_benchmark_harness_selftest(self):
        # perfbench wraps layer entry points by name; its self-test fails
        # when a refactor moves one, so CI must run it.
        assert (
            "PYTHONPATH=src python -m pytest -q perfbench/selftest.py"
            in CI.read_text()
        ), "ci.yml must run the perfbench self-test"

    def test_readme_has_quickstart(self):
        text = README.read_text()
        assert "python -m repro.analysis" in text
        assert "# repro: allow[" in text, (
            "README must show the suppression-pragma syntax"
        )

    def test_design_documents_every_rule(self):
        text = DESIGN.read_text()
        assert "Determinism contract as enforced invariants" in text
        for rule_id in RULES:
            assert rule_id in text, (
                f"rule {rule_id} is not documented in DESIGN.md"
            )
