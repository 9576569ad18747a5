"""Parallel sweep determinism + speedup benchmark (the acceptance grid).

Evaluates the 24-cell ``parallel-bench`` grid (12 seeds x {v1, v2} of
Algorithm 1 on G(160, p)) serially and with a 4-worker process pool,
asserts the merged deterministic results are byte-identical, and records
wall-clock numbers in a machine-readable BENCH json.

A process pool can only beat serial when the machine has cores to spare;
the json therefore records ``available_cpus`` next to the speedup so a
1-core container reporting ~1x is distinguishable from a regression on a
multi-core box.

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep_parallel.py
        [--jobs 1,4] [--json benchmarks/BENCH_sweep.json] [--check]

``--check`` additionally fails unless the largest jobs value achieved
> 1.5x over serial (meaningful only with >= 4 available cores).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import print_table

from repro.sweep import run_sweep
from repro.sweep.grids import parallel_bench_grid


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", default="1,4", help="comma-separated worker counts"
    )
    parser.add_argument(
        "--json",
        default=str(Path(__file__).parent / "BENCH_sweep.json"),
        metavar="PATH",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless max jobs beats serial by > 1.5x",
    )
    args = parser.parse_args(argv)
    jobs_list = [int(j) for j in args.jobs.split(",") if j]

    grid = parallel_bench_grid()
    runs = []
    digests = set()
    for jobs in jobs_list:
        sweep = run_sweep(grid, jobs=jobs)
        sweep.ok_payloads()  # raises with details if any cell failed
        digest = sweep.deterministic_sha256()
        digests.add(digest)
        runs.append(
            {
                "jobs": jobs,
                "wall_seconds": sweep.wall_seconds,
                "cells": len(sweep),
                "deterministic_sha256": digest,
            }
        )

    if len(digests) != 1:
        print(
            f"FAIL: merged results differ across jobs values: {digests}",
            file=sys.stderr,
        )
        return 1

    serial = next((r for r in runs if r["jobs"] == 1), runs[0])
    for run in runs:
        run["speedup_vs_serial"] = (
            serial["wall_seconds"] / run["wall_seconds"]
        )
    best = max(runs, key=lambda r: r["jobs"])
    available = os.cpu_count() or 1
    report = {
        "bench": "sweep-parallel",
        "grid": grid.name,
        "cells": len(grid),
        "available_cpus": available,
        "byte_identical_across_jobs": True,
        "runs": runs,
        "speedup_at_max_jobs": best["speedup_vs_serial"],
        "note": (
            "speedup is bounded by available_cpus: a pool cannot beat "
            "serial without spare cores, so compare speedup_at_max_jobs "
            "against this machine's core count, not in the abstract"
        ),
    }
    Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True))

    print_table(
        f"Parallel sweep: {grid.name} ({len(grid)} cells, "
        f"{available} cpu(s) available)",
        ["jobs", "wall s", "speedup", "sha256[:12]"],
        [
            (
                r["jobs"],
                r["wall_seconds"],
                r["speedup_vs_serial"],
                r["deterministic_sha256"][:12],
            )
            for r in runs
        ],
    )
    print(f"\nmerged results byte-identical across jobs: yes")
    print(f"BENCH json written to {args.json}")
    if args.check and best["speedup_vs_serial"] <= 1.5:
        print(
            f"FAIL: expected > 1.5x at jobs={best['jobs']}, got "
            f"{best['speedup_vs_serial']:.2f}x "
            f"({available} cpu(s) available)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
