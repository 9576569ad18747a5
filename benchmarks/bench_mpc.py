"""MPC backend benchmark: round-compilation parity and machine-load scaling.

Four claims of the ``repro.mpc`` subsystem, measured on the
``mpc-vs-congest`` and ``mpc-compression`` grids (see
:mod:`repro.sweep.grids` — every MPC cell already self-checks against a
live engine-v2 shadow via ``parity=True``):

* **parity** — for every (task, n) point the MPC cells' cover signature
  and every congest-level ``RunStats`` field equal the adjacent
  ``engine="v2"`` CONGEST cell's, at every alpha (the round-compilation
  claim, checked here across *independent* sweep cells on top of the
  in-cell shadow check);
* **scaling** — smaller alpha means a smaller budget ``S = ceil(n^alpha)``,
  more machines and higher shuffle traffic, while the max per-machine
  load stays within the O(S) I/O budget (``io_factor * S``);
* **compression** — batching ``k`` CONGEST rounds behind one prefetch
  shuffle (``compress=k``) strictly lowers the shuffle count as ``k``
  grows on every grid point, with the CONGEST-level payload unchanged
  across ``k`` (shuffle-count-vs-k curves land in ``BENCH_mpc.json``);
* **budget enforcement** — a dedicated probe cell with a too-small alpha
  fails as a captured ``MemoryBudgetExceeded`` sweep error, not a crash.

The native matching workload rides along on its own small grid slice:
maximality is oracle-verified inside the task, and the table reports
phases and machine counts vs alpha.

Usage::

    PYTHONPATH=src python benchmarks/bench_mpc.py [--quick] [--json PATH]

The script only produces: the parity assertions above fail the run, and
everything else is recorded in ``BENCH_mpc.json`` for
``benchmarks/trend_gate.py`` to judge (machines vs alpha, shuffles vs
``k``, ``auto`` against the best fixed window, the budget probe).  The
compression cells' metrics documents are schema-validated, their
deterministic sections must not move with ``k``, and their
``deterministic_sha256`` values land in the artifact's ``metrics``
manifest; the trend gate compares a fresh run's manifest with the
committed one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import print_table

from repro.metrics import SCHEMA as METRICS_SCHEMA
from repro.metrics import validate_metrics
from repro.sweep import Cell, GridSpec, run_sweep
from repro.sweep.grids import mpc_compression_grid, mpc_vs_congest_grid

#: The deliberately infeasible probe: S = ceil(24^0.3) = 3 words cannot
#: hold any vertex of the n=24 workload together with its adjacency.
PROBE_ALPHA = 0.3


def probe_grid() -> GridSpec:
    cell = Cell(
        task="mpc-mvc",
        graph="gnp",
        n=24,
        seed=24,
        eps=0.5,
        params=(("alpha", PROBE_ALPHA), ("gnp_p", 0.15)),
    )
    return GridSpec(name="mpc-budget-probe", cells=(cell,))


def matching_grid(quick: bool) -> GridSpec:
    alphas = (0.6, 0.9) if quick else (0.5, 0.7, 0.9)
    ns = (32,) if quick else (32, 64)
    cells = [
        Cell(
            task="mpc-matching",
            graph="gnp",
            n=n,
            seed=n,
            params=(("alpha", alpha),),
        )
        for n in ns
        for alpha in alphas
    ]
    return GridSpec(name="mpc-matching-bench", cells=tuple(cells))


def run_compile_bench(quick: bool, repeats: int):
    """Evaluate the grid, verify cross-cell parity, tabulate the ledger."""
    grid = mpc_vs_congest_grid(quick=quick)
    sweep = run_sweep(grid, jobs=1, repeats=repeats)
    sweep.ok_payloads()  # raises with details if any cell failed

    by_point: dict[tuple[str, int], dict] = {}
    for result in sweep:
        cell = result.cell
        task = cell.task.replace("mpc-mvc", "mvc-congest").replace(
            "mpc-mds", "mds-congest"
        )
        point = by_point.setdefault((task, cell.n), {"mpc": []})
        if cell.task.startswith("mpc-"):
            point["mpc"].append((cell.param("alpha"), result))
        else:
            point["congest"] = result

    rows = []
    points = []
    for (task, n), point in sorted(by_point.items()):
        congest = point["congest"].payload
        for alpha, result in sorted(point["mpc"]):
            payload = result.payload
            for key in ("signature", "stats", "cover_size"):
                if payload[key] != congest[key]:
                    raise AssertionError(
                        f"round-compilation parity violated on {task} n={n} "
                        f"alpha={alpha}: {key} differs "
                        f"({payload[key]!r} vs {congest[key]!r})"
                    )
            if not payload["mpc"]["parity"]:
                raise AssertionError(
                    f"{task} n={n} alpha={alpha}: cell ran without its "
                    f"engine-v2 shadow check"
                )
            mpc = payload["mpc"]
            shuffle = mpc["shuffle"]
            points.append(
                {
                    "task": task,
                    "n": n,
                    "alpha": alpha,
                    "machines": mpc["machines"],
                    "budget_words": mpc["budget_words"],
                    "congest_rounds": payload["stats"]["rounds"],
                    "congest_words": payload["stats"]["total_words"],
                    "shuffle_words": shuffle["total_words"],
                    "max_machine_load": shuffle["max_in_words"],
                    "load_over_budget": shuffle["max_in_words"]
                    / mpc["budget_words"],
                    "parity": True,
                    "seconds": result.seconds,
                    "congest_seconds": point["congest"].seconds,
                }
            )
            rows.append(
                (
                    task,
                    n,
                    alpha,
                    mpc["machines"],
                    mpc["budget_words"],
                    payload["stats"]["rounds"],
                    shuffle["total_words"],
                    shuffle["max_in_words"],
                    shuffle["max_in_words"] / mpc["budget_words"],
                )
            )
    return rows, points


def run_compression_bench(quick: bool):
    """Shuffle-count-vs-k curves off the ``mpc-compression`` grid.

    Cells at one (task, n, alpha) point differ only in the ``compress``
    window — the fixed :data:`~repro.sweep.grids.MPC_COMPRESSION_KS` axis
    plus one adaptive ``compress="auto"`` cell; each runs its own
    engine-v2 shadow, and the CONGEST-level payload (cover signature,
    every ``RunStats`` field) must additionally be byte-identical *across*
    the whole axis — compression may only move the MPC ledger.  The same
    invariance is asserted on the embedded metrics documents: the
    deterministic section (and its sha256) must not move with ``k``,
    while the variant section carries the per-``k`` shuffle ledger.

    Returns ``(rows, points, metrics_digests)`` where ``metrics_digests``
    maps cell keys to the ``deterministic_sha256`` of their
    schema-validated metrics documents.
    """
    grid = mpc_compression_grid(quick=quick)
    sweep = run_sweep(grid, jobs=1)
    sweep.ok_payloads()

    by_point: dict[tuple[str, int, float], list] = {}
    metrics_digests: dict[str, str] = {}
    for result in sweep:
        cell = result.cell
        key = (cell.task, cell.n, cell.param("alpha"))
        by_point.setdefault(key, []).append(
            (cell.param("compress", 1), result)
        )
        doc = result.payload.get("metrics")
        if doc is not None:
            validate_metrics(doc)
            metrics_digests[cell.key] = doc["deterministic_sha256"]

    rows = []
    points = []
    for (task, n, alpha), runs in sorted(by_point.items()):
        # Fixed windows in k order, the adaptive cell last — "auto" must
        # not end up inside an integer sort.
        fixed = sorted(r for r in runs if r[0] != "auto")
        runs = fixed + [r for r in runs if r[0] == "auto"]
        baseline = runs[0][1].payload
        for k, result in runs:
            payload = result.payload
            for key in ("signature", "stats", "cover_size"):
                if payload[key] != baseline[key]:
                    raise AssertionError(
                        f"compression changed the CONGEST ledger on {task} "
                        f"n={n} alpha={alpha} k={k}: {key} differs"
                    )
            if not payload["mpc"]["parity"]:
                raise AssertionError(
                    f"{task} n={n} alpha={alpha} k={k}: cell ran without "
                    f"its engine-v2 shadow check"
                )
            base_metrics = baseline.get("metrics")
            cell_metrics = payload.get("metrics")
            if base_metrics is not None and cell_metrics is not None:
                if (
                    cell_metrics["deterministic_sha256"]
                    != base_metrics["deterministic_sha256"]
                    or cell_metrics["deterministic"]
                    != base_metrics["deterministic"]
                ):
                    raise AssertionError(
                        f"compression changed the deterministic metrics "
                        f"section on {task} n={n} alpha={alpha} k={k}"
                    )
            shuffle = payload["mpc"]["shuffle"]
            congest_rounds = shuffle["congest_rounds"]
            shuffles = shuffle["shuffles"]
            point = {
                "task": task,
                "n": n,
                "alpha": alpha,
                "k": k,
                "shuffles": shuffles,
                "congest_rounds": congest_rounds,
                "rounds_per_shuffle": congest_rounds / shuffles,
                "shuffle_words": shuffle["total_words"],
                "max_machine_load": shuffle["max_in_words"],
                "seconds": result.seconds,
            }
            if k == "auto":
                point["auto"] = payload["mpc"]["auto"]
            points.append(point)
            rows.append(
                (
                    task,
                    n,
                    alpha,
                    k,
                    shuffles,
                    congest_rounds,
                    congest_rounds / shuffles,
                    shuffle["total_words"],
                    shuffle["max_in_words"],
                )
            )
    return rows, points, metrics_digests


def run_matching_bench(quick: bool):
    sweep = run_sweep(matching_grid(quick), jobs=1)
    sweep.ok_payloads()
    rows = []
    points = []
    for result in sweep:
        payload = result.payload
        mpc = payload["mpc"]
        rows.append(
            (
                result.cell.n,
                result.cell.param("alpha"),
                mpc["machines"],
                mpc["budget_words"],
                payload["matching_size"],
                payload["oracle_size"],
                payload["phases"],
                mpc["shuffle"]["rounds"],
                mpc["shuffle"]["max_in_words"],
            )
        )
        points.append(
            {
                "n": result.cell.n,
                "alpha": result.cell.param("alpha"),
                "machines": mpc["machines"],
                "matching_size": payload["matching_size"],
                "oracle_size": payload["oracle_size"],
                "phases": payload["phases"],
                "shuffle_rounds": mpc["shuffle"]["rounds"],
                "max_machine_load": mpc["shuffle"]["max_in_words"],
            }
        )
    return rows, points


def run_budget_probe():
    """The too-small-alpha cell must fail as a captured sweep error."""
    sweep = run_sweep(probe_grid(), jobs=1)
    result = sweep.results[0]
    captured = (
        result.status == "error"
        and "MemoryBudgetExceeded" in (result.error or "")
    )
    return {
        "alpha": PROBE_ALPHA,
        "status": result.status,
        "captured": captured,
        "last_line": (result.error or "").strip().splitlines()[-1]
        if result.error
        else "",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke subset")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument(
        "--json",
        default=str(Path(__file__).parent / "BENCH_mpc.json"),
        metavar="PATH",
    )
    args = parser.parse_args(argv)

    rows, points = run_compile_bench(args.quick, max(1, args.repeats))
    print_table(
        "MPC round compilation vs CONGEST engine v2 (outputs and words "
        "identical)",
        [
            "task", "n", "alpha", "machines", "S",
            "rounds", "shuffle wd", "max load", "load/S",
        ],
        rows,
    )
    print("\nparity: signature + RunStats identical to engine v2 on every "
          "(task, n, alpha) cell")

    comp_rows, comp_points, metrics_digests = run_compression_bench(args.quick)
    print()
    print_table(
        "Round compression: shuffles vs k (CONGEST ledger invariant)",
        [
            "task", "n", "alpha", "k", "shuffles",
            "congest rds", "rds/shuffle", "shuffle wd", "max load",
        ],
        comp_rows,
    )
    match_rows, match_points = run_matching_bench(args.quick)
    print_table(
        "Native MPC matching (oracle-verified maximal)",
        [
            "n", "alpha", "machines", "S", "|M|",
            "oracle", "phases", "shuffles", "max load",
        ],
        match_rows,
    )

    probe = run_budget_probe()
    print(f"\nbudget probe (alpha={probe['alpha']}): status={probe['status']} "
          f"captured={probe['captured']}")
    if probe["last_line"]:
        print(f"  {probe['last_line']}")

    payload = {
        "grid": "mpc-vs-congest-quick" if args.quick else "mpc-vs-congest",
        "available_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "parity": True,
        "points": points,
        "compression": comp_points,
        "matching": match_points,
        "budget_probe": probe,
        "metrics": {"schema": METRICS_SCHEMA, "digests": metrics_digests},
    }
    Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.json} ({len(metrics_digests)} metrics digests)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
