"""Shared harness for the benchmark suite: result tables.

Every benchmark regenerates one of the paper's claims (the experiment
index mapping each ``bench_eNN`` module to its claim lives in `DESIGN.md
<../DESIGN.md>`_ at the repository root) and prints it as a small table;
run pytest with ``-s`` to see them.  The assertions inside each benchmark
check the claim's *shape* (who wins, how quantities scale), so the harness
doubles as a verification suite.

Grid-shaped benchmarks declare their cells in :mod:`repro.sweep.grids` and
evaluate them serially in-process with :func:`repro.sweep.run_sweep` (the
deterministic pytest path).  The same grids are runnable in parallel from
the CLI: ``python -m repro sweep --grid e01 --jobs 4``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def print_table(
    title: str, header: Sequence[str], rows: Iterable[Sequence[object]]
) -> None:
    print()
    print(f"== {title} ==")
    widths = [max(10, len(h) + 2) for h in header]
    print("".join(h.rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        cells = []
        for value, width in zip(row, widths):
            if isinstance(value, float):
                cells.append(f"{value:.3f}".rjust(width))
            else:
                cells.append(str(value).rjust(width))
        print("".join(cells))
