"""The one bench gate: committed and freshly produced benchmark artifacts.

Every benchmark in this directory commits its results as a ``BENCH_*.json``
artifact, and the bench scripts themselves only produce: they run, assert
in-run parity while they measure, and write their artifact.  Whether an
artifact is *good* is decided here, once, for both the committed artifacts
and any fresh run handed in on the command line.

Gated trajectories:

- ``BENCH_mpc.json`` — CONGEST-on-MPC parity holds at every point; machine
  counts strictly shrink as the memory exponent alpha grows (the paper's
  ``S = n^alpha`` trade-off); round compression strictly reduces shuffle
  count as the window k grows and the auto policy is at least as good as the
  best fixed window; maximal matching stays a 2-approximation against the
  oracle; the memory-budget probe captured a real budget violation; the
  metrics digest manifest is present.
- ``BENCH_mpc_scaling.json`` — shard-parallel execution is byte-identical
  across worker counts (every run's per-worker ledger digests agree), and a
  full run on a host with >= 4 CPUs and >= 4 workers reaches 1.5x.
- ``BENCH_solver_engines.json`` — engine-parity payloads agree, round
  counts grow with n per task, engine v2 never falls below 0.8x of v1, and
  on the full grid MVC and MDS each reach 2x at some n >= 200.
- ``BENCH_sweep.json`` — the sweep is byte-identical across job counts.

A fresh ``BENCH_mpc.json`` is also checked against the committed one: each
fresh metrics digest must be in the committed manifest under the same
schema and sha (a drift means one of the two was committed stale), and
fresh ``auto`` compression must not use more shuffles than the committed
best fixed window on the same point.

Usage::

    python benchmarks/trend_gate.py                 # gate + trajectory table
    python benchmarks/trend_gate.py --check-smoke   # CI mode: gate only
    python benchmarks/trend_gate.py --check-smoke bench-out/*.json
                                                    # also gate fresh runs

A fresh artifact's basename selects its gate; an unknown basename fails.
Exit status is non-zero iff any gate fails or a gated artifact is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent

Failures = list[str]

#: ``BENCH_mpc_scaling.json``: the speedup a full run must reach at its
#: largest worker count, on hosts with this many CPUs and workers.
SCALING_SPEEDUP = 1.5
SCALING_MIN_CPUS = 4
SCALING_MIN_WORKERS = 4

#: ``BENCH_solver_engines.json``: every point's v2-over-v1 floor (timing on
#: shared runners jitters, so "not slower than v1" carries this slack), and
#: the full grid's headline claim on its n >= 200 timing points.
ENGINES_MIN_SPEEDUP = 0.8
ENGINES_SPEEDUP = 2.0
ENGINES_TIMING_N = 200
ENGINES_TIMED_TASKS = ("mvc-congest", "mds-congest")


def _is_finite_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


# ---------------------------------------------------------------------------
# per-artifact gates
# ---------------------------------------------------------------------------


def gate_mpc(doc: dict[str, Any]) -> Failures:
    failures: Failures = []
    if doc.get("parity") is not True:
        failures.append("parity flag is not true")

    points = doc.get("points", [])
    if not points:
        failures.append("no simulation points recorded")
    for point in points:
        if point.get("parity") is not True:
            failures.append(
                f"point {point.get('task')}/n={point.get('n')}/alpha={point.get('alpha')}"
                " lost CONGEST/MPC parity"
            )

    # S = n^alpha: more memory per machine means fewer machines, strictly.
    by_task_n: dict[tuple[Any, Any], list[tuple[float, int]]] = {}
    for point in points:
        by_task_n.setdefault((point["task"], point["n"]), []).append(
            (point["alpha"], point["machines"])
        )
    for (task, n), rows in sorted(by_task_n.items()):
        rows.sort()
        for (alpha_lo, machines_lo), (alpha_hi, machines_hi) in zip(rows, rows[1:]):
            if machines_hi >= machines_lo:
                failures.append(
                    f"{task}/n={n}: machines did not shrink as alpha grew "
                    f"({machines_lo} @ {alpha_lo} -> {machines_hi} @ {alpha_hi})"
                )

    # Round compression: larger fixed windows strictly reduce shuffles, and
    # the auto policy never loses to the best fixed window.
    comp_groups: dict[tuple[Any, Any, Any], dict[Any, int]] = {}
    for row in doc.get("compression", []):
        comp_groups.setdefault((row["task"], row["n"], row["alpha"]), {})[row["k"]] = row[
            "shuffles"
        ]
    if not comp_groups:
        failures.append("no compression trajectory recorded")
    for (task, n, alpha), shuffles_by_k in sorted(comp_groups.items()):
        label = f"{task}/n={n}/alpha={alpha}"
        fixed = sorted((k, s) for k, s in shuffles_by_k.items() if k != "auto")
        for (k_lo, s_lo), (k_hi, s_hi) in zip(fixed, fixed[1:]):
            if s_hi >= s_lo:
                failures.append(
                    f"{label}: shuffles did not drop from k={k_lo} ({s_lo}) to k={k_hi} ({s_hi})"
                )
        if "auto" not in shuffles_by_k:
            failures.append(f"{label}: no auto-compression cell")
        elif fixed and shuffles_by_k["auto"] > min(s for _, s in fixed):
            failures.append(
                f"{label}: auto compression ({shuffles_by_k['auto']} shuffles) lost to the "
                f"best fixed window ({min(s for _, s in fixed)})"
            )

    matching = doc.get("matching", [])
    if not matching:
        failures.append("no matching trajectory recorded")
    for row in matching:
        label = f"matching n={row.get('n')}/alpha={row.get('alpha')}"
        if 2 * row.get("matching_size", 0) < row.get("oracle_size", 0):
            failures.append(
                f"{label}: matching size {row.get('matching_size')} is below half the "
                f"oracle size {row.get('oracle_size')} (maximal-matching guarantee broken)"
            )
        if row.get("matching_size", 0) > row.get("oracle_size", 0):
            failures.append(
                f"{label}: matching size exceeds the oracle size — oracle is stale"
            )

    probe = doc.get("budget_probe")
    if not isinstance(probe, dict) or probe.get("captured") is not True:
        failures.append("memory-budget probe did not capture a budget violation")
    elif probe.get("status") != "error":
        failures.append(f"memory-budget probe status is {probe.get('status')!r}, expected 'error'")

    manifest = doc.get("metrics")
    if not isinstance(manifest, dict) or not manifest.get("schema") or not manifest.get("digests"):
        failures.append("metrics digest manifest is missing or empty")
    return failures


def cross_check_mpc(fresh: dict[str, Any], committed: dict[str, Any]) -> Failures:
    """A fresh ``BENCH_mpc.json`` against the committed one.

    The fresh run may cover a subset of the committed grid (``--quick``),
    so both checks run over the fresh cells only.
    """
    failures: Failures = []
    fresh_manifest = fresh.get("metrics") or {}
    committed_manifest = committed.get("metrics") or {}
    schema = committed_manifest.get("schema")
    if fresh_manifest.get("schema") != schema:
        failures.append(
            f"committed metrics manifest is stale: schema {schema!r}, "
            f"the fresh run's is {fresh_manifest.get('schema')!r}"
        )
    committed_digests = committed_manifest.get("digests", {})
    for key, sha in sorted(fresh_manifest.get("digests", {}).items()):
        if key not in committed_digests:
            failures.append(f"committed metrics manifest is stale: cell {key} is missing")
        elif committed_digests[key] != sha:
            failures.append(
                f"committed metrics manifest is stale: cell {key} has sha "
                f"{committed_digests[key]}, the fresh run's is {sha}"
            )

    # The adaptive controller must also hold against the *committed*
    # fixed-k curves, so a controller regression cannot hide behind a
    # same-run planner regression.
    committed_best: dict[tuple[Any, Any, Any], int] = {}
    for row in committed.get("compression", []):
        if row["k"] != "auto":
            key = (row["task"], row["n"], row["alpha"])
            committed_best[key] = min(committed_best.get(key, row["shuffles"]), row["shuffles"])
    for row in fresh.get("compression", []):
        key = (row["task"], row["n"], row["alpha"])
        if row["k"] == "auto" and key in committed_best and row["shuffles"] > committed_best[key]:
            failures.append(
                f"{row['task']}/n={row['n']}/alpha={row['alpha']}: auto compression "
                f"({row['shuffles']} shuffles) lost to the committed best fixed window "
                f"({committed_best[key]})"
            )
    return failures


def gate_mpc_scaling(doc: dict[str, Any]) -> Failures:
    failures: Failures = []
    if doc.get("byte_identical_across_workers") is not True:
        failures.append("top-level byte_identical_across_workers is not true")
    runs = doc.get("runs", [])
    if not runs:
        failures.append("no scaling runs recorded")
    for run in runs:
        scenario = run.get("scenario", "?")
        if run.get("byte_identical_across_workers") is not True:
            failures.append(f"run {scenario}: not byte-identical across workers")
        ledgers = {w: info.get("ledger_sha256") for w, info in run.get("workers", {}).items()}
        if len(set(ledgers.values())) != 1:
            failures.append(f"run {scenario}: ledger digests diverge across workers {ledgers}")
        if not _is_finite_number(run.get("speedup_at_max_workers")):
            failures.append(f"run {scenario}: speedup_at_max_workers is not a finite number")

    # Shard workers can only beat serial with cores to spare, so the
    # speedup claim applies to full runs on multi-core hosts only.
    if (
        doc.get("mode") == "full"
        and doc.get("available_cpus", 0) >= SCALING_MIN_CPUS
        and max(doc.get("workers", []), default=0) >= SCALING_MIN_WORKERS
    ):
        best = doc.get("best_speedup_at_max_workers")
        if not _is_finite_number(best) or best < SCALING_SPEEDUP:
            failures.append(
                f"best speedup at max workers is {best}, expected >= {SCALING_SPEEDUP}x "
                f"({doc.get('available_cpus')} cpu(s) available)"
            )
    return failures


def gate_solver_engines(doc: dict[str, Any]) -> Failures:
    failures: Failures = []
    if doc.get("payload_parity") is not True:
        failures.append("engine payload parity is not true")
    points = doc.get("points", [])
    if not points:
        failures.append("no engine points recorded")
    by_task: dict[Any, list[tuple[int, int]]] = {}
    for point in points:
        label = f"{point.get('task')}/n={point.get('n')}"
        if point.get("rounds", 0) <= 0 or point.get("messages", 0) <= 0:
            failures.append(f"point {label}: non-positive rounds/messages")
        if not point.get("signature"):
            failures.append(f"point {label}: missing payload signature")
        speedup = point.get("speedup_vs_v1")
        if not _is_finite_number(speedup) or speedup < ENGINES_MIN_SPEEDUP:
            failures.append(
                f"point {label}: engine v2 at {speedup}x of v1 "
                f"(jitter tolerance {ENGINES_MIN_SPEEDUP}x)"
            )
        by_task.setdefault(point["task"], []).append((point["n"], point["rounds"]))
    for task, rows in sorted(by_task.items()):
        rows.sort()
        for (n_lo, rounds_lo), (n_hi, rounds_hi) in zip(rows, rows[1:]):
            if rounds_hi <= rounds_lo:
                failures.append(
                    f"{task}: rounds did not grow from n={n_lo} ({rounds_lo}) "
                    f"to n={n_hi} ({rounds_hi})"
                )

    # The headline claim: on the full grid's timing cells the batched
    # engine beats v1 by 2x on both solvers.
    if doc.get("grid") == "solver-engines":
        for task in ENGINES_TIMED_TASKS:
            timing = [
                p["speedup_vs_v1"]
                for p in points
                if p["task"] == task
                and p["n"] >= ENGINES_TIMING_N
                and _is_finite_number(p.get("speedup_vs_v1"))
            ]
            if not timing:
                failures.append(f"{task}: no timing point with n >= {ENGINES_TIMING_N}")
            elif max(timing) < ENGINES_SPEEDUP:
                failures.append(
                    f"{task}: best v2 speedup {max(timing):.2f}x < {ENGINES_SPEEDUP}x "
                    f"at n >= {ENGINES_TIMING_N}"
                )
    return failures


def gate_sweep(doc: dict[str, Any]) -> Failures:
    failures: Failures = []
    if doc.get("byte_identical_across_jobs") is not True:
        failures.append("sweep is not byte-identical across job counts")
    runs = doc.get("runs", [])
    if not runs:
        failures.append("no sweep runs recorded")
    digests = {run.get("deterministic_sha256") for run in runs}
    if len(digests) > 1:
        failures.append(f"deterministic_sha256 diverges across job counts: {len(digests)} values")
    cells = {run.get("cells") for run in runs}
    if len(cells) > 1:
        failures.append(f"cell counts diverge across job counts: {sorted(cells)}")
    return failures


GATES: dict[str, Callable[[dict[str, Any]], Failures]] = {
    "BENCH_mpc.json": gate_mpc,
    "BENCH_mpc_scaling.json": gate_mpc_scaling,
    "BENCH_solver_engines.json": gate_solver_engines,
    "BENCH_sweep.json": gate_sweep,
}

# Artifacts whose absence fails the gate: the core mpc/scaling
# trajectories must always be committed.
REQUIRED = ("BENCH_mpc.json", "BENCH_mpc_scaling.json")


def _read(path: Path) -> tuple[dict[str, Any] | None, Failures]:
    try:
        return json.loads(path.read_text()), []
    except (OSError, json.JSONDecodeError) as exc:
        return None, [f"unreadable artifact: {exc}"]


def run_gates(bench_dir: Path) -> tuple[dict[str, Failures], list[str]]:
    """Gate every committed BENCH_*.json in *bench_dir*.

    Returns ``(per_file_failures, skipped)`` where *skipped* lists known
    artifacts that are absent (an error only for REQUIRED ones).
    """

    results: dict[str, Failures] = {}
    skipped: list[str] = []
    for name, gate in GATES.items():
        path = bench_dir / name
        if not path.exists():
            skipped.append(name)
            if name in REQUIRED:
                results[name] = ["required artifact is missing"]
            continue
        doc, results[name] = _read(path)
        if doc is not None:
            results[name] = gate(doc)
    unknown = sorted(
        p.name for p in bench_dir.glob("BENCH_*.json") if p.name not in GATES
    )
    for name in unknown:
        results[name] = [f"no trend gate registered for {name}; add one to trend_gate.GATES"]
    return results, skipped


def run_fresh_gates(paths: list[Path], bench_dir: Path) -> dict[str, Failures]:
    """Gate freshly produced artifacts, each by its basename's gate.

    A fresh ``BENCH_mpc.json`` is also cross-checked against the committed
    one in *bench_dir*.  Results are keyed ``"fresh <path>"``.
    """
    results: dict[str, Failures] = {}
    for path in paths:
        label = f"fresh {path}"
        gate = GATES.get(path.name)
        if gate is None:
            results[label] = [
                f"{path.name} names no gated artifact (known: {', '.join(GATES)})"
            ]
            continue
        doc, results[label] = _read(path)
        if doc is None:
            continue
        results[label] = gate(doc)
        if path.name == "BENCH_mpc.json":
            committed, unreadable = _read(bench_dir / path.name)
            results[label] += (
                unreadable if committed is None else cross_check_mpc(doc, committed)
            )
    return results


def _print_trajectories(bench_dir: Path) -> None:
    mpc = bench_dir / "BENCH_mpc.json"
    if mpc.exists():
        doc = json.loads(mpc.read_text())
        print("mpc trajectory (machines by alpha):")
        by_task_n: dict[tuple[Any, Any], list[tuple[float, int]]] = {}
        for point in doc.get("points", []):
            by_task_n.setdefault((point["task"], point["n"]), []).append(
                (point["alpha"], point["machines"])
            )
        for (task, n), rows in sorted(by_task_n.items()):
            trail = " -> ".join(f"{m}@a={a}" for a, m in sorted(rows))
            print(f"  {task:<14} n={n:<4} {trail}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check-smoke",
        action="store_true",
        help="CI mode: gate the artifacts and exit; no trajectory table",
    )
    parser.add_argument(
        "--bench-dir",
        type=Path,
        default=BENCH_DIR,
        help="directory holding the committed BENCH_*.json artifacts",
    )
    parser.add_argument(
        "fresh",
        nargs="*",
        type=Path,
        metavar="FRESH.json",
        help="freshly produced artifacts, each gated by its basename's gate",
    )
    args = parser.parse_args(argv)

    results, skipped = run_gates(args.bench_dir)
    results.update(run_fresh_gates(args.fresh, args.bench_dir))
    failures = {name: errs for name, errs in results.items() if errs}
    checked = [name for name in results if name not in failures]

    for name in sorted(checked):
        print(f"trend gate: {name} ok")
    for name in skipped:
        if name not in failures:
            print(f"trend gate: {name} absent, skipped (optional)")
    if failures:
        print()
        for name, errs in sorted(failures.items()):
            for err in errs:
                print(f"TREND GATE FAILED [{name}]: {err}")
        return 1

    if not args.check_smoke:
        print()
        _print_trajectories(args.bench_dir)
    print()
    fresh = sum(name.startswith("fresh ") for name in checked)
    print(
        f"trend gate passed: {len(checked) - fresh} committed and {fresh} fresh "
        "benchmark artifacts match their trajectories"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
