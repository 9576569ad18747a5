"""Solver engine sweep: batched outboxes + event-driven stages vs engine v1.

PR 1's activity engine won 2-5x, but only on the BFS/convergecast/broadcast
primitives; the real solver benchmarks (E01 MVC, E12 MDS) still paid one
dict write and one metering call per (sender, target) pair and ran every
node every round.  This benchmark measures what the batched-outbox fast
path plus the solvers' ``wants_wake`` cadences recover on those workloads,
against the reference every-node-every-round loop ``v1`` evaluated on *the
same cells*.

The (task, n, engine) cells live in
:func:`repro.sweep.grids.solver_engines_grid`.  Every (task, n) point is a
**parity cell**: both engines must produce byte-identical
payloads (outputs signature, ``RunStats``, phase counts).  The small points
additionally re-run the solver stages with tracing enabled and compare the
full per-round timelines — the trace half of the parity contract, which the
sweep payloads cannot carry.  The n >= 200 points are the **timing cells**
behind the headline claim.

Usage::

    PYTHONPATH=src python benchmarks/bench_solver_engines.py [--quick]
        [--repeats R] [--json PATH]

Parity failures fail the run; the speedups are recorded in
``BENCH_solver_engines.json`` and judged by ``benchmarks/trend_gate.py``
(every point >= 0.8x of v1, and on the full grid >= 2x on the E01 and
E12 timing cells at n >= 200).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import print_table

from repro.congest.network import CongestNetwork
from repro.core.estimation import EstimationStage
from repro.core.mds_congest import GlobalOrAlgorithm, WinnerAlgorithm
from repro.core.mvc_congest import PhaseOneAlgorithm
from repro.congest.primitives import BfsTreeAlgorithm
from repro.graphs.generators import gnp_graph
from repro.sweep import run_sweep
from repro.sweep.grids import SOLVER_ENGINES, solver_engines_grid


def run_traced_stage_parity(n: int = 40, seed: int = 11) -> list[str]:
    """Per-round trace parity across both engines.

    Runs representative solver stages — the Phase I status protocol (self
    -waking on its send steps), the Lemma 29 estimator (guaranteed-traffic
    cadence), the winner/coverage stage and the convergecast-OR (fully
    reactive sleeper) — with ``trace=True`` and asserts outputs, stats and
    the full ``RoundRecord`` timeline are identical.  Returns the names of
    the stages checked.
    """
    graph = gnp_graph(n, 0.12, seed=seed)

    def run_stages(engine: str):
        net = CongestNetwork(graph, seed=seed, engine=engine)
        net.reset_state()
        results = {}
        results["phase1"] = net.run(
            lambda v: PhaseOneAlgorithm(v, threshold=2, iterations=4),
            trace=True,
        )
        for node_id in net.ids():
            net.node_state[node_id]["in_U"] = True
        results["estimation"] = net.run(
            lambda v: EstimationStage(v, samples=6), trace=True
        )
        results["winner"] = net.run(WinnerAlgorithm, trace=True)
        results["bfs"] = net.run(
            lambda v: BfsTreeAlgorithm(v, net.n - 1), trace=True
        )
        results["global-or"] = net.run(
            lambda v: GlobalOrAlgorithm(v, "in_U"), trace=True
        )
        return results

    reference = run_stages(SOLVER_ENGINES[0])
    for engine in SOLVER_ENGINES[1:]:
        candidate = run_stages(engine)
        for stage, expected in reference.items():
            got = candidate[stage]
            for field in ("outputs", "by_id", "stats", "trace"):
                if getattr(expected, field) != getattr(got, field):
                    raise AssertionError(
                        f"trace parity violated: stage {stage!r} field "
                        f"{field!r} differs between "
                        f"{SOLVER_ENGINES[0]} and {engine}"
                    )
    return sorted(reference)


def run_solver_sweep(quick: bool, repeats: int):
    """Evaluate the grid; verify payload parity; compute speedups."""
    grid = solver_engines_grid(quick=quick)
    sweep = run_sweep(grid, jobs=1, repeats=repeats)
    sweep.ok_payloads()  # raises with details if any cell failed

    by_point: dict[tuple[str, int], dict[str, object]] = {}
    for result in sweep:
        cell = result.cell
        point = by_point.setdefault((cell.task, cell.n), {})
        point[cell.engine] = result.payload
        point[f"{cell.engine}-seconds"] = result.seconds
        point[f"{cell.engine}-max-rss-kb"] = result.max_rss_kb

    rows = []
    points = []
    for (task, n), point in sorted(by_point.items()):
        payloads = [point[engine] for engine in SOLVER_ENGINES]
        if not all(p == payloads[0] for p in payloads[1:]):
            raise AssertionError(
                f"engine parity violated on {task} n={n}: "
                + " vs ".join(repr(point[e]) for e in SOLVER_ENGINES)
            )
        stats = payloads[0]["stats"]
        v1_s = point["v1-seconds"]
        batch_s = point["v2-seconds"]
        points.append(
            {
                "task": task,
                "n": n,
                "messages": stats["messages"],
                "rounds": stats["rounds"],
                "signature": payloads[0]["signature"],
                "v1_seconds": v1_s,
                "v2_seconds": batch_s,
                "speedup_vs_v1": v1_s / batch_s,
                "max_rss_kb": point["v2-max-rss-kb"],
            }
        )
        rows.append(
            (
                task,
                n,
                stats["rounds"],
                stats["messages"],
                v1_s * 1e3,
                batch_s * 1e3,
                v1_s / batch_s,
            )
        )
    return rows, points


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke subset")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--json",
        default=str(Path(__file__).parent / "BENCH_solver_engines.json"),
        metavar="PATH",
    )
    args = parser.parse_args(argv)
    repeats = max(1, min(args.repeats, 2) if args.quick else args.repeats)

    traced = run_traced_stage_parity()
    print(f"trace parity: identical timelines on stages {', '.join(traced)}")

    rows, points = run_solver_sweep(args.quick, repeats)
    print_table(
        "Solver engines: v1 vs v2 (batched outboxes)",
        ["task", "n", "rounds", "messages", "v1 ms", "v2 ms", "x v1"],
        rows,
    )
    print("\nparity: identical payloads on every cell, both engines")

    payload = {
        "grid": "solver-engines-quick" if args.quick else "solver-engines",
        "repeats": repeats,
        "available_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "trace_parity_stages": traced,
        "payload_parity": True,
        "points": points,
    }
    Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.json}")

    return 0


if __name__ == "__main__":
    sys.exit(main())
