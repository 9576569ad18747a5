"""A/B timing of two or more checkouts, interleaved solve by solve.

    python benchmarks/ab_interleave.py PARENT CHILD --workload mvc-congest --seed 1 --pairs 30
    python benchmarks/ab_interleave.py PARENT PART1 PART2 BOTH --workload mds-mpc-2w --pairs 12

Each checkout gets one resident worker process that imports *its own*
``perfbench.workloads`` and ``src/repro``, picks the seed's instance once
and then times one ``workloads.solve`` per request, checking every output
with ``workloads.check``.  Each round times one solve per checkout, and
the order rotates from round to round, so slow phases of a shared host
hit every side alike and no side always goes first.  The first checkout
is the baseline: the driver prints each side's quartiles and, for every
other checkout, how many rounds it won against the baseline and its
median speedup — with several candidates (say, each part of a bundled
change and the whole) one run decomposes the gain.  The exit code is 1
if any solve was wrong.  Nothing is written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKER = """
import json, sys, time
sys.path[:0] = [{root!r} + "/src", {root!r}]
from perfbench import workloads
workload = workloads.WORKLOADS[{workload!r}]
instance = workloads.choose_instance(workload, {seed!r})
print("ready", flush=True)
for _ in sys.stdin:
    start = time.perf_counter()
    solution, counts = workloads.solve(workload, instance)
    elapsed = time.perf_counter() - start
    problems = workloads.check(workload, instance, solution, counts, None)
    print(json.dumps([elapsed, problems, workloads.counts_digest(counts)]), flush=True)
"""


def _spawn(root: Path, workload: str, seed: int) -> subprocess.Popen:
    code = WORKER.format(root=str(root.resolve()), workload=workload, seed=seed)
    proc = subprocess.Popen(
        [sys.executable, "-c", code], cwd=root, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    if proc.stdout.readline().strip() != "ready":
        raise RuntimeError(f"worker for {root} failed to start")
    return proc


def _solve(proc: subprocess.Popen) -> tuple[float, list[str], str]:
    proc.stdin.write("solve\n")
    proc.stdin.flush()
    return tuple(json.loads(proc.stdout.readline()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("baseline", type=Path, help="baseline checkout")
    parser.add_argument(
        "candidates", type=Path, nargs="+", help="candidate checkouts"
    )
    parser.add_argument("--workload", default="mvc-congest")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--pairs", type=int, default=20,
        help="rounds; each times one solve per checkout",
    )
    args = parser.parse_args(argv)
    roots = [args.baseline, *args.candidates]
    names = [chr(ord("a") + side) for side in range(len(roots))]
    procs = [_spawn(root, args.workload, args.seed) for root in roots]
    times: list[list[float]] = [[] for _ in roots]
    digests: list[set[str]] = [set() for _ in roots]
    wrong = 0
    try:
        for pair in range(args.pairs):
            shift = pair % len(roots)
            for side in [*range(shift, len(roots)), *range(shift)]:
                elapsed, problems, digest = _solve(procs[side])
                times[side].append(elapsed)
                digests[side].add(digest)
                for problem in problems:
                    wrong += 1
                    print(f"FAIL {names[side]}: {problem}", file=sys.stderr)
    finally:
        for proc in procs:
            proc.stdin.close()
            proc.wait()
    for side, root in enumerate(roots):
        q1, q2, q3 = statistics.quantiles(times[side], n=4)
        print(f"{names[side]}: q1 {q1:.3f}  median {q2:.3f}  q3 {q3:.3f} s  "
              f"counts {sorted(digests[side])}  ({root})")
    base = statistics.median(times[0])
    for side in range(1, len(roots)):
        wins = sum(b < a for a, b in zip(times[0], times[side]))
        ratio = base / statistics.median(times[side])
        print(f"{names[side]} faster than a in {wins}/{args.pairs} rounds; "
              f"median a/{names[side]} {ratio:.3f}x")
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
