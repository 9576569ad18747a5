"""A/B timing of two checkouts, interleaved solve by solve.

    python benchmarks/ab_interleave.py PARENT CHILD --workload mvc-congest --seed 1 --pairs 30

Each checkout gets one resident worker process that imports *its own*
``perfbench.workloads`` and ``src/repro``, picks the seed's instance once
and then times one ``workloads.solve`` per request, checking every output
with ``workloads.check``.  The driver alternates which side goes first in
each pair, so slow phases of a shared host hit both sides alike.  It
prints each side's quartiles and how many pairs the second checkout won;
the exit code is 1 if any solve was wrong.  Nothing is written.
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
    parser.add_argument("a", type=Path, help="baseline checkout")
    parser.add_argument("b", type=Path, help="candidate checkout")
    parser.add_argument("--workload", default="mvc-congest")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=20)
    args = parser.parse_args(argv)
    procs = [_spawn(root, args.workload, args.seed) for root in (args.a, args.b)]
    times: list[list[float]] = [[], []]
    digests: list[set[str]] = [set(), set()]
    wrong = 0
    try:
        for pair in range(args.pairs):
            for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
                elapsed, problems, digest = _solve(procs[side])
                times[side].append(elapsed)
                digests[side].add(digest)
                for problem in problems:
                    wrong += 1
                    print(f"FAIL {'ab'[side]}: {problem}", file=sys.stderr)
    finally:
        for proc in procs:
            proc.stdin.close()
            proc.wait()
    for side, name in enumerate("ab"):
        q1, q2, q3 = statistics.quantiles(times[side], n=4)
        print(f"{name}: q1 {q1:.3f}  median {q2:.3f}  q3 {q3:.3f} s  "
              f"counts {sorted(digests[side])}")
    wins = sum(b < a for a, b in zip(*times))
    ratio = statistics.median(times[0]) / statistics.median(times[1])
    print(f"b faster in {wins}/{args.pairs} pairs; median a/b {ratio:.3f}x")
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
