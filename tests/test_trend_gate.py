"""The unified bench trend gate over committed BENCH_*.json artifacts.

Exercises ``benchmarks/trend_gate.py`` both against the real committed
artifacts (they must always pass their own gates — this is what keeps a
hand-edited or partially regenerated artifact from landing) and against
synthetic documents with each gated invariant broken in turn.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import trend_gate  # noqa: E402


def _load(name: str) -> dict:
    return json.loads((BENCH_DIR / name).read_text())


class TestCommittedArtifacts:
    def test_every_committed_artifact_passes_its_gate(self):
        results, _skipped = trend_gate.run_gates(BENCH_DIR)
        failures = {name: errs for name, errs in results.items() if errs}
        assert failures == {}

    def test_core_trajectories_are_gated(self):
        # Acceptance floor: mpc and scaling must always be gated.
        results, _ = trend_gate.run_gates(BENCH_DIR)
        assert {"BENCH_mpc.json", "BENCH_mpc_scaling.json"} <= set(results)

    def test_check_smoke_exit_code(self, capsys):
        assert trend_gate.main(["--check-smoke"]) == 0
        out = capsys.readouterr().out
        assert "trend gate passed" in out


class TestMpcGate:
    def test_parity_loss_detected(self):
        doc = _load("BENCH_mpc.json")
        doc["points"][0]["parity"] = False
        assert any("parity" in f for f in trend_gate.gate_mpc(doc))

    def test_machine_trajectory_must_shrink_with_alpha(self):
        doc = _load("BENCH_mpc.json")
        rows = [
            p for p in doc["points"]
            if (p["task"], p["n"]) == (doc["points"][0]["task"], doc["points"][0]["n"])
        ]
        rows[-1]["machines"] = rows[0]["machines"] + 1
        assert any("did not shrink" in f for f in trend_gate.gate_mpc(doc))

    def test_compression_must_reduce_shuffles(self):
        doc = _load("BENCH_mpc.json")
        group = doc["compression"][0]
        for row in doc["compression"]:
            key = (row["task"], row["n"], row["alpha"])
            if key == (group["task"], group["n"], group["alpha"]) and row["k"] != "auto":
                row["shuffles"] = 999
        assert any("did not drop" in f for f in trend_gate.gate_mpc(doc))

    def test_auto_must_not_lose_to_fixed_windows(self):
        doc = _load("BENCH_mpc.json")
        for row in doc["compression"]:
            if row["k"] == "auto":
                row["shuffles"] = 10**6
        assert any("lost to the" in f for f in trend_gate.gate_mpc(doc))

    def test_matching_half_approximation(self):
        doc = _load("BENCH_mpc.json")
        doc["matching"][0]["matching_size"] = 0
        assert any("maximal-matching" in f for f in trend_gate.gate_mpc(doc))

    def test_budget_probe_required(self):
        doc = _load("BENCH_mpc.json")
        doc["budget_probe"] = {"captured": False}
        assert any("budget probe" in f for f in trend_gate.gate_mpc(doc))


class TestScalingGate:
    def test_ledger_divergence_detected(self):
        doc = _load("BENCH_mpc_scaling.json")
        run = doc["runs"][0]
        first_worker = sorted(run["workers"])[0]
        run["workers"][first_worker]["ledger_sha256"] = "deadbeef"
        assert any("diverge" in f for f in trend_gate.gate_mpc_scaling(doc))

    def test_grid_parity_digests_must_agree(self):
        doc = _load("BENCH_mpc_scaling.json")
        key = sorted(doc["grid_parity"]["digests"])[0]
        doc["grid_parity"]["digests"][key] = "deadbeef"
        assert any("digests diverge" in f for f in trend_gate.gate_mpc_scaling(doc))


class TestSweepAndEnginesGates:
    def test_sweep_sha_divergence_detected(self):
        doc = _load("BENCH_sweep.json")
        doc["runs"][0]["deterministic_sha256"] = "deadbeef"
        assert any("diverges" in f for f in trend_gate.gate_sweep(doc))

    def test_engine_rounds_must_grow_with_n(self):
        doc = _load("BENCH_solver_engines.json")
        by_task = {}
        for point in doc["points"]:
            by_task.setdefault(point["task"], []).append(point)
        points = sorted(by_task[doc["points"][0]["task"]], key=lambda p: p["n"])
        points[-1]["rounds"] = 1
        assert any("did not grow" in f for f in trend_gate.gate_solver_engines(doc))


class TestDiscovery:
    def test_missing_required_artifact_fails(self, tmp_path):
        results, skipped = trend_gate.run_gates(tmp_path)
        assert "BENCH_mpc.json" in results
        assert results["BENCH_mpc.json"] == ["required artifact is missing"]
        assert "BENCH_sweep.json" in skipped

    def test_unknown_artifact_demands_a_gate(self, tmp_path):
        for name in trend_gate.GATES:
            (tmp_path / name).write_text((BENCH_DIR / name).read_text())
        (tmp_path / "BENCH_novel.json").write_text("{}")
        results, _ = trend_gate.run_gates(tmp_path)
        assert any("no trend gate registered" in f for f in results["BENCH_novel.json"])

    def test_unreadable_artifact_fails(self, tmp_path):
        for name in trend_gate.GATES:
            (tmp_path / name).write_text((BENCH_DIR / name).read_text())
        (tmp_path / "BENCH_mpc.json").write_text("{not json")
        results, _ = trend_gate.run_gates(tmp_path)
        assert any("unreadable" in f for f in results["BENCH_mpc.json"])

    def test_main_reports_failures_with_exit_one(self, tmp_path, capsys):
        for name in trend_gate.GATES:
            doc = _load(name)
            (tmp_path / name).write_text(json.dumps(doc))
        broken = _load("BENCH_mpc_scaling.json")
        broken["runs"][0]["byte_identical_across_workers"] = False
        (tmp_path / "BENCH_mpc_scaling.json").write_text(json.dumps(broken))
        code = trend_gate.main(["--check-smoke", "--bench-dir", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "TREND GATE FAILED [BENCH_mpc_scaling.json]" in out
