"""Unified trend gate over the committed benchmark artifacts.

Every benchmark in this directory commits its results as a ``BENCH_*.json``
artifact.  Each bench script gates its *own* fresh run (``--check`` /
``--check-smoke``), but nothing historically checked that the committed
artifacts themselves stay mutually consistent — a hand-edited file, a partial
regeneration, or a stale artifact after a schema change would slip through
until the next full bench run.  This tool closes that gap: it loads every
committed ``BENCH_*.json`` and gates the stored trajectories against the
invariants the benches are supposed to maintain.

Gated trajectories:

- ``BENCH_mpc.json`` — CONGEST-on-MPC parity holds at every point; machine
  counts strictly shrink as the memory exponent alpha grows (the paper's
  ``S = n^alpha`` trade-off); round compression strictly reduces shuffle
  count as the window k grows and the auto policy is at least as good as the
  best fixed window; maximal matching stays a 2-approximation against the
  oracle; the memory-budget probe captured a real budget violation.
- ``BENCH_mpc_scaling.json`` — shard-parallel execution is byte-identical
  across worker counts (every run's per-worker ledger digests agree).
- ``BENCH_solver_engines.json`` — engine-parity payloads agree and round
  counts grow with n per task.
- ``BENCH_sweep.json`` — the sweep is byte-identical across job counts.

Usage::

    python benchmarks/trend_gate.py                 # gate + trajectory table
    python benchmarks/trend_gate.py --check-smoke   # CI mode: gate only

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
    return failures


def gate_mpc_scaling(doc: dict[str, Any]) -> Failures:
    failures: Failures = []
    if doc.get("byte_identical_across_workers") is not True:
        failures.append("top-level byte_identical_across_workers is not true")
    parity = doc.get("grid_parity", {})
    if parity.get("byte_identical") is not True:
        failures.append("grid parity sweep is not byte-identical across worker counts")
    digests = set(parity.get("digests", {}).values())
    if len(digests) != 1:
        failures.append(f"grid parity digests diverge: {len(digests)} distinct values")
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
        by_task.setdefault(point["task"], []).append((point["n"], point["rounds"]))
    for task, rows in sorted(by_task.items()):
        rows.sort()
        for (n_lo, rounds_lo), (n_hi, rounds_hi) in zip(rows, rows[1:]):
            if rounds_hi <= rounds_lo:
                failures.append(
                    f"{task}: rounds did not grow from n={n_lo} ({rounds_lo}) "
                    f"to n={n_hi} ({rounds_hi})"
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
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            results[name] = [f"unreadable artifact: {exc}"]
            continue
        results[name] = gate(doc)
    unknown = sorted(
        p.name for p in bench_dir.glob("BENCH_*.json") if p.name not in GATES
    )
    for name in unknown:
        results[name] = [f"no trend gate registered for {name}; add one to trend_gate.GATES"]
    return results, skipped


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
        help="CI mode: gate the committed artifacts and exit; no trajectory table",
    )
    parser.add_argument(
        "--bench-dir",
        type=Path,
        default=BENCH_DIR,
        help="directory holding the committed BENCH_*.json artifacts",
    )
    args = parser.parse_args(argv)

    results, skipped = run_gates(args.bench_dir)
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
    print(
        f"trend gate passed: {len(checked)} committed benchmark artifacts match "
        "their stored trajectories"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
