"""The one bench gate over committed and fresh BENCH_*.json artifacts.

Exercises ``benchmarks/trend_gate.py`` both against the real committed
artifacts (they must always pass their own gates — this is what keeps a
hand-edited or partially regenerated artifact from landing) and against
synthetic documents with each gated invariant broken in turn, including
the cross-checks a fresh ``BENCH_mpc.json`` makes against the committed
one.
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

    def test_metrics_manifest_required(self):
        doc = _load("BENCH_mpc.json")
        del doc["metrics"]
        assert any("manifest" in f for f in trend_gate.gate_mpc(doc))

    def test_metrics_manifest_must_not_be_empty(self):
        doc = _load("BENCH_mpc.json")
        doc["metrics"]["digests"] = {}
        assert any("manifest" in f for f in trend_gate.gate_mpc(doc))


class TestFreshMpcCrossCheck:
    def test_committed_artifact_agrees_with_itself(self):
        doc = _load("BENCH_mpc.json")
        assert trend_gate.cross_check_mpc(doc, _load("BENCH_mpc.json")) == []

    def test_fresh_digest_missing_from_committed_manifest(self):
        fresh = _load("BENCH_mpc.json")
        committed = _load("BENCH_mpc.json")
        key = sorted(committed["metrics"]["digests"])[0]
        del committed["metrics"]["digests"][key]
        failures = trend_gate.cross_check_mpc(fresh, committed)
        assert any(f"cell {key} is missing" in f for f in failures)

    def test_fresh_digest_differs_from_committed_manifest(self):
        fresh = _load("BENCH_mpc.json")
        committed = _load("BENCH_mpc.json")
        key = sorted(fresh["metrics"]["digests"])[0]
        fresh["metrics"]["digests"][key] = "deadbeef"
        failures = trend_gate.cross_check_mpc(fresh, committed)
        assert any(f"cell {key} has sha" in f for f in failures)

    def test_schema_drift_detected(self):
        fresh = _load("BENCH_mpc.json")
        fresh["metrics"]["schema"] = "repro.metrics/999"
        failures = trend_gate.cross_check_mpc(fresh, _load("BENCH_mpc.json"))
        assert any("schema" in f for f in failures)

    def test_fresh_subset_of_committed_cells_passes(self):
        fresh = _load("BENCH_mpc.json")
        digests = fresh["metrics"]["digests"]
        fresh["metrics"]["digests"] = dict(sorted(digests.items())[:3])
        assert trend_gate.cross_check_mpc(fresh, _load("BENCH_mpc.json")) == []

    def test_fresh_auto_must_not_lose_to_committed_fixed_k(self):
        # The fresh run's own fixed windows regress with it, so gate_mpc
        # alone passes; only the committed curve catches the controller.
        fresh = _load("BENCH_mpc.json")
        for row in fresh["compression"]:
            row["shuffles"] += 1000 if row["k"] != "auto" else 500
        assert trend_gate.gate_mpc(fresh) == []
        failures = trend_gate.cross_check_mpc(fresh, _load("BENCH_mpc.json"))
        assert any("committed best fixed window" in f for f in failures)


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

    @staticmethod
    def _slow_run(mode="full", cpus=4, workers=(1, 2, 4)):
        doc = _load("BENCH_mpc_scaling.json")
        doc.update(mode=mode, available_cpus=cpus, workers=list(workers))
        doc["best_speedup_at_max_workers"] = 1.2
        return doc

    def test_speedup_below_gate_fails_on_full_multicore_run(self):
        failures = trend_gate.gate_mpc_scaling(self._slow_run())
        assert any("expected >= 1.5x" in f for f in failures)

    def test_speedup_at_gate_passes(self):
        doc = self._slow_run()
        doc["best_speedup_at_max_workers"] = 1.5
        assert trend_gate.gate_mpc_scaling(doc) == []

    def test_speedup_gate_needs_full_mode_cpus_and_workers(self):
        for doc in (
            self._slow_run(mode="quick"),
            self._slow_run(cpus=3),
            self._slow_run(workers=(1, 2)),
        ):
            assert trend_gate.gate_mpc_scaling(doc) == []


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

    def test_engine_point_below_tolerance_fails(self):
        doc = _load("BENCH_solver_engines.json")
        doc["points"][0]["speedup_vs_v1"] = 0.79
        assert any("0.8x" in f for f in trend_gate.gate_solver_engines(doc))

    def test_full_grid_needs_2x_at_large_n(self):
        doc = _load("BENCH_solver_engines.json")
        for point in doc["points"]:
            if point["task"] == "mds-congest" and point["n"] >= 200:
                point["speedup_vs_v1"] = 1.9
        failures = trend_gate.gate_solver_engines(doc)
        assert any(f.startswith("mds-congest: best v2 speedup") for f in failures)

    def test_full_grid_needs_a_large_n_point(self):
        doc = _load("BENCH_solver_engines.json")
        doc["points"] = [
            p for p in doc["points"]
            if not (p["task"] == "mvc-congest" and p["n"] >= 200)
        ]
        failures = trend_gate.gate_solver_engines(doc)
        assert any("mvc-congest: no timing point" in f for f in failures)

    def test_quick_grid_has_no_2x_claim(self):
        doc = _load("BENCH_solver_engines.json")
        doc["grid"] = "solver-engines-quick"
        doc["points"] = [p for p in doc["points"] if p["n"] < 200]
        assert trend_gate.gate_solver_engines(doc) == []


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


class TestFreshArtifacts:
    @staticmethod
    def _fresh_dir(tmp_path, names=tuple(trend_gate.GATES)):
        fresh = tmp_path / "bench-out"
        fresh.mkdir()
        for name in names:
            (fresh / name).write_text((BENCH_DIR / name).read_text())
        return fresh

    def test_fresh_artifacts_gated_with_the_committed_ones(self, tmp_path, capsys):
        fresh = self._fresh_dir(tmp_path)
        paths = [str(p) for p in sorted(fresh.iterdir())]
        assert trend_gate.main(["--check-smoke", *paths]) == 0
        out = capsys.readouterr().out
        assert "4 committed and 4 fresh" in out
        assert f"trend gate: fresh {fresh / 'BENCH_mpc.json'} ok" in out

    def test_unknown_basename_fails(self, tmp_path, capsys):
        fresh = self._fresh_dir(tmp_path, names=())
        path = fresh / "METRICS_mpc.json"
        path.write_text("{}")
        assert trend_gate.main(["--check-smoke", str(path)]) == 1
        assert "names no gated artifact" in capsys.readouterr().out

    def test_fresh_artifact_gets_its_basename_gate(self, tmp_path, capsys):
        fresh = self._fresh_dir(tmp_path, names=("BENCH_sweep.json",))
        doc = _load("BENCH_sweep.json")
        doc["byte_identical_across_jobs"] = False
        (fresh / "BENCH_sweep.json").write_text(json.dumps(doc))
        code = trend_gate.main(["--check-smoke", str(fresh / "BENCH_sweep.json")])
        assert code == 1
        out = capsys.readouterr().out
        assert f"TREND GATE FAILED [fresh {fresh / 'BENCH_sweep.json'}]" in out

    def test_fresh_mpc_is_cross_checked_against_committed(self, tmp_path):
        fresh = self._fresh_dir(tmp_path, names=("BENCH_mpc.json",))
        doc = _load("BENCH_mpc.json")
        key = sorted(doc["metrics"]["digests"])[0]
        doc["metrics"]["digests"][key] = "deadbeef"
        (fresh / "BENCH_mpc.json").write_text(json.dumps(doc))
        results = trend_gate.run_fresh_gates([fresh / "BENCH_mpc.json"], BENCH_DIR)
        (failures,) = results.values()
        assert any("stale" in f for f in failures)

    def test_unreadable_fresh_artifact_fails(self, tmp_path):
        fresh = self._fresh_dir(tmp_path, names=())
        (fresh / "BENCH_mpc.json").write_text("{not json")
        results = trend_gate.run_fresh_gates([fresh / "BENCH_mpc.json"], BENCH_DIR)
        (failures,) = results.values()
        assert any("unreadable" in f for f in failures)
