"""Process-parallel MPC scaling benchmark: ranks vs wall-clock.

Runs fixed compiled MPC workloads (MVC and MDS) at several shard-worker
counts, records a digest of the shuffle ledger and outputs at every
count (they must be byte-identical: the parity contract of
:mod:`repro.mpc.parallel`) and wall-clock numbers in a machine-readable
BENCH json.  The worker count is a keyword of the compiled entry points
only, so the scenarios pass it to them directly.

Shard workers can only beat serial when the machine has cores to spare;
like ``BENCH_sweep.json``, the json records ``available_cpus`` next to
the speedup.  The script only produces: ``benchmarks/trend_gate.py``
judges the digests and, for full runs on hosts with >= 4 CPUs and >= 4
workers, the 1.5x speedup.

Usage::

    PYTHONPATH=src python benchmarks/bench_mpc_scaling.py
        [--workers 1,2,4] [--json benchmarks/BENCH_mpc_scaling.json]
        [--quick]

``--quick`` is the CI form: small workloads, workers 1 and 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import print_table

import networkx as nx

from repro.mpc import solve_mds_mpc, solve_mvc_mpc


def _digest(payload) -> str:
    """Deterministic fingerprint of a scenario's ledger + outputs."""
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _mvc_scenario(n: int, p: float, alpha: float, compress):
    graph = nx.gnp_random_graph(n, p, seed=7)

    def run(workers: int):
        result, payload = solve_mvc_mpc(
            graph, 0.5, alpha=alpha, seed=0, compress=compress,
            workers=workers,
        )
        return {
            "mpc": payload,
            "cover": sorted(map(repr, result.cover)),
            "stats": repr(result.stats),
        }

    return run


def _mds_scenario(n: int, p: float, alpha: float, compress):
    graph = nx.gnp_random_graph(n, p, seed=11)

    def run(workers: int):
        result, payload = solve_mds_mpc(
            graph, alpha=alpha, seed=1, compress=compress, workers=workers
        )
        return {
            "mpc": payload,
            "cover": sorted(map(repr, result.cover)),
            "stats": repr(result.stats),
        }

    return run


def _scenarios(quick: bool):
    if quick:
        return {
            "mvc-gnp": _mvc_scenario(24, 0.15, 0.8, 1),
            "mds-compress4": _mds_scenario(20, 0.18, 0.8, 4),
        }
    return {
        "mvc-gnp": _mvc_scenario(120, 0.05, 0.6, 1),
        "mds-compress4": _mds_scenario(100, 0.06, 0.7, 4),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers", default=None,
        help="comma-separated shard-worker counts (default 1,2,4; "
        "quick mode 1,2)",
    )
    parser.add_argument(
        "--json",
        default=str(Path(__file__).parent / "BENCH_mpc_scaling.json"),
        metavar="PATH",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI mode: small workloads, workers 1,2",
    )
    args = parser.parse_args(argv)
    if args.workers:
        workers_list = [int(w) for w in args.workers.split(",") if w]
    else:
        workers_list = [1, 2] if args.quick else [1, 2, 4]

    available = os.cpu_count() or 1
    scenarios = _scenarios(args.quick)
    rows = []
    runs = []
    parity_ok = True
    for name, scenario in scenarios.items():
        timings = {}
        digests = {}
        for workers in workers_list:
            start = time.perf_counter()
            payload = scenario(workers)
            timings[workers] = time.perf_counter() - start
            digests[workers] = _digest(payload)
        identical = len(set(digests.values())) == 1
        parity_ok = parity_ok and identical
        serial = timings[workers_list[0]]
        best_workers = workers_list[-1]
        speedup = serial / timings[best_workers]
        runs.append(
            {
                "scenario": name,
                "workers": {
                    str(w): {
                        "wall_seconds": timings[w],
                        "ledger_sha256": digests[w],
                    }
                    for w in workers_list
                },
                "byte_identical_across_workers": identical,
                "speedup_at_max_workers": speedup,
            }
        )
        for w in workers_list:
            rows.append(
                (name, w, timings[w], serial / timings[w],
                 "yes" if identical else "NO")
            )

    report = {
        "bench": "mpc-scaling",
        "mode": "quick" if args.quick else "full",
        "available_cpus": available,
        "workers": workers_list,
        "runs": runs,
        "byte_identical_across_workers": parity_ok,
        "best_speedup_at_max_workers": max(
            r["speedup_at_max_workers"] for r in runs
        ),
        "note": (
            "speedup is bounded by available_cpus: shard workers cannot "
            "beat serial without spare cores, so compare the speedup "
            "against this machine's core count, not in the abstract; "
            "the ledger digests must match at any worker count on any "
            "machine"
        ),
    }
    Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True))

    print_table(
        f"MPC shard scaling ({available} cpu(s) available)",
        ["scenario", "workers", "wall s", "speedup", "parity"],
        rows,
    )
    print(f"BENCH json written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
