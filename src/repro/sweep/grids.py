"""Named benchmark grids, shared by pytest benchmarks and the CLI.

Each builder returns the exact cell list a benchmark module asserts over,
so ``PYTHONPATH=src python -m pytest benchmarks/bench_e01_mvc_congest.py``
(serial, in-process) and ``python -m repro sweep --grid e01 --jobs 4``
(process pool) evaluate *the same cells* and merge byte-identical
deterministic results.  Keep the numbers here in sync with the benchmark
assertions — the grids are the single source of truth for the cells.
"""

from __future__ import annotations

from repro.sweep.spec import Cell, GridSpec

#: Scenario table of the engine-scaling sweep: task, (full sizes), (quick
#: sizes); run with ``python -m repro sweep --grid engine-scaling``.
ENGINE_SCALING_SCENARIOS: tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...] = (
    ("pipeline-path", (120, 240, 480), (240,)),
    ("broadcast-star", (100, 200, 400), (200,)),
    ("mvc-er", (60, 120, 240), (120,)),
    ("mvc-power-law", (60, 120), (60,)),
    ("mds-er", (32, 48), ()),
)

_SCENARIO_CELLS = {
    "pipeline-path": lambda n, engine: Cell(
        task="pipeline-path", graph="path", n=n, seed=1, engine=engine
    ),
    "broadcast-star": lambda n, engine: Cell(
        task="broadcast-star", graph="star", n=n, seed=1, engine=engine
    ),
    "mvc-er": lambda n, engine: Cell(
        task="mvc-congest", graph="gnp", n=n, seed=n, eps=0.5, engine=engine
    ),
    "mvc-power-law": lambda n, engine: Cell(
        task="mvc-congest",
        graph="power-law",
        n=n,
        seed=n,
        eps=0.5,
        engine=engine,
    ),
    "mds-er": lambda n, engine: Cell(
        task="mds-congest", graph="gnp", n=n, seed=n, engine=engine
    ),
}


def e01_grid() -> GridSpec:
    """E01 / Theorem 1: rounds and ratio vs (n, eps) for G^2-MVC."""
    cells = [
        Cell(
            task="mvc-congest",
            graph="gnp",
            n=n,
            seed=n,
            eps=eps,
            params=(("exact", True),),
        )
        for eps in (0.5, 0.25)
        for n in (24, 48, 96)
    ]
    return GridSpec(name="e01", cells=tuple(cells))


def e12_estimator_grid() -> GridSpec:
    """E12a / Lemma 29: estimator concentration vs sample count."""
    cells = [
        Cell(
            task="mds-estimator",
            graph="gnp",
            n=24,
            seed=3,
            params=(("graph_seed", 2), ("gnp_p", 0.2), ("samples", s)),
        )
        for s in (8, 32, 128, 512)
    ]
    return GridSpec(name="e12-estimator", cells=tuple(cells))


def e12_mds_grid() -> GridSpec:
    """E12b / Theorem 28: MDS quality and phase counts vs n."""
    cells = [
        Cell(
            task="mds-congest",
            graph="gnp",
            n=n,
            seed=n,
            params=(("exact", True), ("gnp_p", 4.0 / n)),
        )
        for n in (16, 32)
    ]
    return GridSpec(name="e12-mds", cells=tuple(cells))


def engine_scaling_grid(quick: bool = False) -> GridSpec:
    """Engine v1-vs-v2 differential sweep across scenario x size.

    Adjacent (v1, v2) cell pairs per (scenario, n); the benchmark checks
    payload parity within each pair and computes wall-clock speedups.
    """
    cells = []
    for name, sizes, quick_sizes in ENGINE_SCALING_SCENARIOS:
        for n in quick_sizes if quick else sizes:
            for engine in ("v1", "v2"):
                cells.append(_SCENARIO_CELLS[name](n, engine))
    return GridSpec(
        name="engine-scaling-quick" if quick else "engine-scaling",
        cells=tuple(cells),
    )


#: Engines compared by the solver-engines grid, in evaluation order.
SOLVER_ENGINES = ("v1", "v2")


def solver_engines_grid(quick: bool = False) -> GridSpec:
    """Batched-outbox engine sweep over the real solver benchmarks.

    Adjacent (v1, v2) cell pairs per (task, n) point:

    * *parity points* (small n) — the benchmark asserts byte-identical
      payloads across both engines, and re-runs the solver stages with
      tracing on to compare full round timelines;
    * *timing points* (n >= 200, denser than the sweep default so the
      broadcast batches are wide) — the benchmark reports the v2
      speedup over v1, and ``benchmarks/trend_gate.py`` requires >= 2x
      on the E01 (MVC) and E12 (MDS) cells.

    ``quick`` keeps the parity points and shrinks the timing points to CI
    scale (seconds, not minutes).
    """
    points: list[tuple[str, int, float | None, float | None]] = [
        # (task, n, eps, gnp_p); gnp_p None = generator default.
        ("mvc-congest", 64, 0.5, None),
        ("mds-congest", 32, None, 0.125),
    ]
    if quick:
        points += [
            ("mvc-congest", 96, 0.5, 0.1),
            ("mds-congest", 48, None, 0.125),
        ]
    else:
        points += [
            ("mvc-congest", 240, 0.5, 0.1),
            ("mds-congest", 208, None, 0.115),
        ]
    cells = []
    for task, n, eps, p in points:
        params = (("gnp_p", p),) if p is not None else ()
        for engine in SOLVER_ENGINES:
            cells.append(
                Cell(
                    task=task,
                    graph="gnp",
                    n=n,
                    seed=n,
                    eps=eps,
                    engine=engine,
                    params=params,
                )
            )
    return GridSpec(
        name="solver-engines-quick" if quick else "solver-engines",
        cells=tuple(cells),
    )


def mpc_vs_congest_grid(quick: bool = False) -> GridSpec:
    """Round-compilation parity sweep: CONGEST engine v2 vs the MPC backend.

    For every (task, n) point one ``engine="v2"`` CONGEST cell is followed
    by one MPC cell per alpha, all sharing the graph and seed.  The MPC
    cells carry ``parity=True`` — each runs its own engine-v2 shadow and
    asserts word-for-word metering parity in-process — and
    ``bench_mpc.py`` additionally checks the *payloads* match across the
    pairing (cover signature and every ``RunStats`` field), while reading
    rounds and max machine load vs (alpha, n) out of the ``mpc`` ledger.
    Per-point alpha lists start at the smallest budget the point's
    workload fits (the max-degree vertex must fit in ``S = ceil(n^alpha)``
    and the densest round's shuffle in ``O(S)``); anything below fails
    with ``MemoryBudgetExceeded``, which ``bench_mpc.py`` demonstrates on
    a dedicated probe cell rather than inside this grid.
    """
    points: list[
        tuple[str, str, int, float | None, float, tuple[float, ...]]
    ] = [
        # (congest task, mpc task, n, eps, gnp_p, alphas)
        ("mvc-congest", "mpc-mvc", 16, 0.5, 0.2, (0.8, 0.9, 1.0)),
        ("mds-congest", "mpc-mds", 12, None, 0.25, (0.8, 0.9, 1.0)),
    ]
    if not quick:
        points += [
            ("mvc-congest", "mpc-mvc", 24, 0.5, 0.15, (0.7, 0.85, 1.0)),
            ("mvc-congest", "mpc-mvc", 40, 0.5, 0.1, (0.7, 0.85, 1.0)),
            ("mds-congest", "mpc-mds", 16, None, 0.2, (0.8, 0.9, 1.0)),
        ]
    cells = []
    for congest_task, mpc_task, n, eps, p, alphas in points:
        base = (("gnp_p", p),)
        cells.append(
            Cell(
                task=congest_task,
                graph="gnp",
                n=n,
                seed=n,
                eps=eps,
                engine="v2",
                params=base,
            )
        )
        for alpha in alphas:
            cells.append(
                Cell(
                    task=mpc_task,
                    graph="gnp",
                    n=n,
                    seed=n,
                    eps=eps,
                    params=base + (("alpha", alpha), ("parity", True)),
                )
            )
    return GridSpec(
        name="mpc-vs-congest-quick" if quick else "mpc-vs-congest",
        cells=tuple(cells),
    )


#: Compression windows swept by the ``mpc-compression`` grids.  The bench
#: trend gate asserts shuffle counts strictly decrease along this axis on
#: every (task, n, alpha) point.
MPC_COMPRESSION_KS = (1, 2, 4)


def mpc_compression_grid(quick: bool = False) -> GridSpec:
    """Round-compression sweep: shuffles vs ``k`` at fixed (task, n, alpha).

    Every cell carries ``parity=True`` (its own engine-v2 shadow asserts
    the CONGEST ledger is untouched by compression) and ``metrics=True``
    (the payload embeds the cell's metrics document, whose deterministic
    section must be byte-identical across the whole compression axis), and
    cells differ only in the ``compress`` window along
    :data:`MPC_COMPRESSION_KS` plus one trailing ``compress="auto"`` cell
    per point, so ``bench_mpc.py`` can read shuffle-count-vs-k curves
    straight off the ``mpc`` ledger and check the adaptive controller
    never loses to the best fixed window.  Alphas sit in the regime where
    the k-hop frontier actually fits the window budget — the point of the
    grid is to observe compression *engaging*; the forced-fallback regime
    is covered by the differential tests instead.
    """
    points: list[tuple[str, int, float | None, float, float]] = [
        # (task, n, eps, gnp_p, alpha).  MDS points need the near-linear
        # alpha = 1.0: its many short stages restart windows constantly,
        # and only that budget lets the deeper (k-1)-hop frontiers fit
        # often enough for k = 4 to beat k = 2 strictly.
        ("mpc-mvc", 16, 0.5, 0.2, 0.9),
        ("mpc-mds", 12, None, 0.25, 1.0),
    ]
    if not quick:
        points += [
            ("mpc-mvc", 24, 0.5, 0.15, 0.85),
            ("mpc-mvc", 24, 0.5, 0.15, 1.0),
            ("mpc-mds", 16, None, 0.2, 1.1),
        ]
    cells = []
    for task, n, eps, p, alpha in points:
        for k in (*MPC_COMPRESSION_KS, "auto"):
            params: tuple[tuple[str, object], ...] = (
                ("gnp_p", p),
                ("alpha", alpha),
                ("parity", True),
                ("metrics", True),
            )
            if k != 1:
                params += (("compress", k),)
            cells.append(
                Cell(
                    task=task,
                    graph="gnp",
                    n=n,
                    seed=n,
                    eps=eps,
                    params=params,
                )
            )
    return GridSpec(
        name="mpc-compression-quick" if quick else "mpc-compression",
        cells=tuple(cells),
    )


def mpc_smoke_grid() -> GridSpec:
    """Small all-MPC grid for CI smoke runs (seconds, not minutes)."""
    cells = [
        Cell(
            task="mpc-mvc",
            graph="gnp",
            n=14,
            seed=2,
            eps=0.5,
            params=(("alpha", 0.9),),
        ),
        Cell(
            task="mpc-mvc",
            graph="tree",
            n=12,
            seed=3,
            eps=0.5,
            params=(("alpha", 0.85),),
        ),
        Cell(
            task="mpc-mds",
            graph="gnp",
            n=12,
            seed=5,
            params=(("alpha", 0.9),),
        ),
        Cell(
            task="mpc-matching",
            graph="gnp",
            n=24,
            seed=7,
            params=(("alpha", 0.8),),
        ),
        Cell(
            task="mpc-matching",
            graph="path",
            n=32,
            seed=1,
            params=(("alpha", 0.6),),
        ),
        Cell(
            task="mpc-parity",
            graph="gnp",
            n=16,
            seed=4,
            params=(("alpha", 0.9), ("gnp_p", 0.2)),
        ),
    ]
    return GridSpec(name="mpc-smoke", cells=tuple(cells))


def smoke_grid() -> GridSpec:
    """Small mixed grid for CI smoke runs (seconds, not minutes)."""
    cells = [
        Cell(task="mvc-congest", graph="gnp", n=14, seed=2, eps=0.5),
        Cell(task="mvc-congest", graph="tree", n=12, seed=3, eps=0.5),
        Cell(task="mvc-congest", graph="grid", n=9, seed=0, eps=0.25),
        Cell(task="mds-congest", graph="gnp", n=12, seed=5),
        Cell(task="pipeline-path", graph="path", n=40, seed=1),
        Cell(task="broadcast-star", graph="star", n=30, seed=1),
        Cell(task="verify-ckp17", n=0, seed=0, params=(("k", 2),)),
        Cell(task="verify-bcd19", n=0, seed=1, params=(("k", 2),)),
    ]
    return GridSpec(name="smoke", cells=tuple(cells))


def parallel_bench_grid() -> GridSpec:
    """The >= 24-cell grid behind ``benchmarks/bench_sweep_parallel.py``.

    Homogeneous, CPU-bound cells sized so the serial run takes tens of
    seconds — the regime where a process pool's speedup is measurable.
    """
    cells = [
        Cell(
            task="mvc-congest",
            graph="gnp",
            n=160,
            seed=seed,
            eps=0.5,
            engine=engine,
        )
        for seed in range(12)
        for engine in ("v1", "v2")
    ]
    return GridSpec(name="parallel-bench", cells=tuple(cells))


NAMED_GRIDS = {
    "e01": e01_grid,
    "e12-estimator": e12_estimator_grid,
    "e12-mds": e12_mds_grid,
    "engine-scaling": engine_scaling_grid,
    "engine-scaling-quick": lambda: engine_scaling_grid(quick=True),
    "solver-engines": solver_engines_grid,
    "solver-engines-quick": lambda: solver_engines_grid(quick=True),
    "smoke": smoke_grid,
    "parallel-bench": parallel_bench_grid,
    "mpc-smoke": mpc_smoke_grid,
    "mpc-vs-congest": mpc_vs_congest_grid,
    "mpc-vs-congest-quick": lambda: mpc_vs_congest_grid(quick=True),
    "mpc-compression": mpc_compression_grid,
    "mpc-compression-quick": lambda: mpc_compression_grid(quick=True),
}


def named_grid(name: str) -> GridSpec:
    try:
        builder = NAMED_GRIDS[name]
    except KeyError:
        raise KeyError(
            f"unknown grid {name!r}; choose from {sorted(NAMED_GRIDS)}"
        ) from None
    return builder()
