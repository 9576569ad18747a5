"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``mvc``
    Run a G^2-MVC algorithm (CONGEST, deterministic clique, randomized
    clique, or centralized 5/3) on a generated workload and report the
    cover size, round usage and the exact-optimum ratio.
``mds``
    Run the Theorem 28 G^2-MDS algorithm likewise.
``gallery``
    Build and verify one lower-bound family member, printing the
    Theorem 19 quantities.
``verify``
    Re-run the exact-solver verification of a family's predicate over
    sampled inputs (the repository's "trust but check" button); ``--jobs``
    fans the samples out over worker processes.
``sweep``
    Evaluate a benchmark grid — named (``--grid e01``) or ad-hoc
    (``--task``/``--graphs``/``--ns``/...) — serially or over a process
    pool (``--jobs``), printing a merged table and optionally writing
    machine-readable JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.core.mds_congest import approx_mds_square
from repro.core.mvc_centralized import five_thirds_mvc_square
from repro.core.mvc_clique import (
    approx_mvc_square_clique_deterministic,
    approx_mvc_square_clique_randomized,
)
from repro.core.mvc_congest import approx_mvc_square
from repro.exact.dominating_set import minimum_dominating_set
from repro.exact.vertex_cover import minimum_vertex_cover
from repro.graphs.generators import GRAPH_KINDS, build_graph
from repro.graphs.power import square
from repro.graphs.validation import (
    assert_dominating_set,
    assert_vertex_cover,
)
from repro.lowerbounds.bcd19 import build_bcd19_mds
from repro.lowerbounds.ckp17 import build_ckp17_mvc
from repro.lowerbounds.disjointness import disj, random_instance
from repro.lowerbounds.framework import implied_round_lower_bound
from repro.lowerbounds.mds_square_gap import (
    GapConstructionParams,
    build_gap_family,
)
from repro.sweep import (
    TABLE_HEADER,
    Cell,
    GridSpec,
    expand_grid,
    named_grid,
    run_sweep,
)
from repro.sweep.grids import NAMED_GRIDS
from repro.sweep.tasks import task_names


def _last_error_line(result) -> str:
    """Final traceback line of a failed cell, or its bare status."""
    lines = (result.error or "").strip().splitlines()
    return lines[-1] if lines else result.status


def _reject_engine_for_mpc(args: argparse.Namespace) -> bool:
    """Whether --engine was (illegally) combined with --model mpc."""
    if args.engine is None:
        return False
    print(
        "error: --engine selects a CONGEST engine; the mpc model "
        "has its own runtime (tune --alpha instead)",
        file=sys.stderr,
    )
    return True


def _print_mpc_ledger(payload: dict, workers: int = 1) -> None:
    shuffle = payload["shuffle"]
    line = (
        f"mpc: machines={payload['machines']} S={payload['budget_words']} "
        f"words (alpha={payload['alpha']:g})  shuffles={shuffle['shuffles']} "
        f"shuffle_words={shuffle['total_words']} "
        f"max_machine_load={shuffle['max_in_words']}"
    )
    if workers > 1:
        # Printed from the resolved worker count, never the payload: the
        # ledger payload is byte-identical at any worker count by contract.
        line += f"  workers={workers}"
    # compress is an int window or the string "auto" — compare carefully.
    compress = payload.get("compress", 1)
    if compress == "auto" or compress > 1:
        line += (
            f"  compression: {shuffle['congest_rounds']} CONGEST rounds in "
            f"{shuffle['shuffles']} shuffles (-k {compress})"
        )
    auto = payload.get("auto")
    if auto is not None:
        choices = " ".join(
            f"k={k}:{count}" for k, count in auto["window_choices"].items()
        )
        line += f"  auto[{choices or 'no windows'} skips={auto['skips']}]"
    print(line)


def _compress_value(text: str):
    """argparse type for --compress/-k: an integer window or ``auto``."""
    text = text.strip()
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1 or 'auto', got {text!r}"
        ) from None


def _check_compress(args: argparse.Namespace) -> int | None:
    """Validate --compress/-k; returns an exit code on error, else None."""
    if args.compress != "auto" and args.compress < 1:
        print(
            f"error: --compress must be >= 1, got {args.compress}",
            file=sys.stderr,
        )
        return 2
    if (
        args.compress == "auto" or args.compress > 1
    ) and args.model != "mpc":
        print(
            "error: --compress batches CONGEST rounds per MPC shuffle; it "
            "requires --model mpc",
            file=sys.stderr,
        )
        return 2
    return None


def _check_mpc_workers(args: argparse.Namespace) -> int | None:
    """Validate --mpc-workers; returns an exit code on error, else None."""
    workers = getattr(args, "mpc_workers", None)
    if workers is None:
        return None
    if workers < 1:
        print(
            f"error: --mpc-workers must be >= 1, got {workers}",
            file=sys.stderr,
        )
        return 2
    if args.model != "mpc":
        print(
            "error: --mpc-workers shards MPC machines over worker "
            "processes; it requires --model mpc",
            file=sys.stderr,
        )
        return 2
    return None


def _check_faults(args: argparse.Namespace) -> int | None:
    """Validate --faults; returns an exit code on error, else None."""
    faults = getattr(args, "faults", None)
    if faults is None:
        return None
    if args.model != "mpc":
        print(
            "error: --faults injects crashes into the MPC shard pool and "
            "shuffle plane; it requires --model mpc",
            file=sys.stderr,
        )
        return 2
    from repro.faults import FaultPlan

    try:
        FaultPlan.from_spec(faults, seed=getattr(args, "seed", 0))
    except ValueError as exc:
        print(f"error: bad --faults spec: {exc}", file=sys.stderr)
        return 2
    return None


def _print_fault_report(payload: dict) -> None:
    """One-line fault/recovery summary after the MPC ledger, if any."""
    report = payload.get("faults")
    if not report:
        return
    injected = report["injected"]
    line = (
        f"faults: crash={injected['crash']} straggle={injected['straggle']} "
        f"mem={injected['mem']} recoveries={report['recoveries']} "
        f"pending={report['pending']}"
    )
    if report["degraded"]:
        line += "  DEGRADED to in-process serial execution"
    print(line)


def _resolved_mpc_workers(args: argparse.Namespace) -> int:
    """The worker count a run will use (explicit flag, else env, else 1)."""
    from repro.mpc.parallel import resolve_workers

    try:
        return resolve_workers(getattr(args, "mpc_workers", None))
    except ValueError:
        return 1


def _make_collector(args: argparse.Namespace, command: str):
    """Build the --metrics collector, or an exit code on a bad combination.

    Returns ``(collector, None)`` — collector ``None`` when --metrics was
    not requested — or ``(None, 2)`` for models whose instrumentation
    streams the collector cannot observe.
    """
    if args.metrics is None:
        return None, None
    if args.model not in ("congest", "mpc"):
        print(
            "error: --metrics attaches to the CONGEST/MPC instrumentation "
            "streams; it requires --model congest or --model mpc",
            file=sys.stderr,
        )
        return None, 2
    from repro.metrics import MetricsCollector

    label = f"{command}/{args.graph}/n={args.n}/seed={args.seed}"
    return MetricsCollector(label=label), None


def _write_metrics(collector, path: str) -> None:
    out = collector.write(path)
    print(
        f"metrics: wrote {out} "
        f"(deterministic sha256 {collector.deterministic_sha256()})"
    )


def _make_tracer(args: argparse.Namespace):
    """Build the --trace recorder, or an exit code on a bad combination.

    Returns ``(recorder, None)`` — recorder ``None`` when --trace was not
    requested — or ``(None, 2)`` for models without tracer hook points.
    Only checked where a --model exists; sweep/verify always accept it.
    """
    if getattr(args, "trace", None) is None:
        return None, None
    if getattr(args, "model", None) not in (None, "congest", "mpc"):
        print(
            "error: --trace records the CONGEST/MPC execution timeline; "
            "it requires --model congest or --model mpc",
            file=sys.stderr,
        )
        return None, 2
    from repro.trace import TraceRecorder

    return TraceRecorder(), None


def _write_trace(recorder, path: str) -> None:
    out = recorder.write(path)
    print(
        f"trace: wrote {out} ({len(recorder)} events; open in Perfetto "
        f"or chrome://tracing)"
    )


def _cmd_mvc(args: argparse.Namespace) -> int:
    code = _check_compress(args)
    if code is None:
        code = _check_mpc_workers(args)
    if code is None:
        code = _check_faults(args)
    if code is not None:
        return code
    collector, code = _make_collector(args, "mvc")
    if code is not None:
        return code
    tracer, code = _make_tracer(args)
    if code is not None:
        return code
    graph = build_graph(args.graph, args.n, seed=args.seed)
    sq = square(graph)
    if args.model == "congest":
        if collector is not None or tracer is not None:
            from repro.congest.network import CongestNetwork

            network = CongestNetwork(graph, seed=args.seed, engine=args.engine)
            if collector is not None:
                collector.attach(network)
            if tracer is not None:
                network.tracer = tracer
            result = approx_mvc_square(graph, args.eps, network=network)
        else:
            result = approx_mvc_square(
                graph, args.eps, seed=args.seed, engine=args.engine
            )
        cover, rounds = result.cover, result.stats.rounds
    elif args.model == "mpc":
        if _reject_engine_for_mpc(args):
            return 2
        from repro.mpc.compile_congest import solve_mvc_mpc

        result, mpc_payload = solve_mvc_mpc(
            graph, args.eps, alpha=args.alpha, seed=args.seed,
            check_parity=True, compress=args.compress, collector=collector,
            workers=args.mpc_workers, faults=args.faults, tracer=tracer,
        )
        cover, rounds = result.cover, result.stats.rounds
        _print_mpc_ledger(mpc_payload, workers=_resolved_mpc_workers(args))
        _print_fault_report(mpc_payload)
    elif args.model == "clique-det":
        result = approx_mvc_square_clique_deterministic(
            graph, args.eps, seed=args.seed, engine=args.engine
        )
        cover, rounds = result.cover, result.stats.rounds
    elif args.model == "clique-rand":
        result = approx_mvc_square_clique_randomized(
            graph, args.eps, seed=args.seed, engine=args.engine
        )
        cover, rounds = result.cover, result.stats.rounds
    else:  # centralized
        if args.engine is not None:
            print(
                "error: --engine applies only to distributed models "
                "(congest, clique-det, clique-rand)",
                file=sys.stderr,
            )
            return 2
        cover, _ = five_thirds_mvc_square(graph)
        rounds = 0
    assert_vertex_cover(sq, cover)
    print(f"graph: {args.graph} n={graph.number_of_nodes()} "
          f"m={graph.number_of_edges()} (square m={sq.number_of_edges()})")
    print(f"model: {args.model}  cover={len(cover)}  rounds={rounds}")
    if args.exact:
        opt = len(minimum_vertex_cover(sq))
        print(f"exact optimum: {opt}  ratio: {len(cover) / opt:.3f}")
    if collector is not None:
        _write_metrics(collector, args.metrics)
    if tracer is not None:
        _write_trace(tracer, args.trace)
    return 0


def _cmd_mds(args: argparse.Namespace) -> int:
    code = _check_compress(args)
    if code is None:
        code = _check_mpc_workers(args)
    if code is None:
        code = _check_faults(args)
    if code is not None:
        return code
    collector, code = _make_collector(args, "mds")
    if code is not None:
        return code
    tracer, code = _make_tracer(args)
    if code is not None:
        return code
    graph = build_graph(args.graph, args.n, seed=args.seed)
    sq = square(graph)
    if args.model == "mpc":
        if _reject_engine_for_mpc(args):
            return 2
        from repro.mpc.compile_congest import solve_mds_mpc

        result, mpc_payload = solve_mds_mpc(
            graph, alpha=args.alpha, seed=args.seed, check_parity=True,
            compress=args.compress, collector=collector,
            workers=args.mpc_workers, faults=args.faults, tracer=tracer,
        )
        _print_mpc_ledger(mpc_payload, workers=_resolved_mpc_workers(args))
        _print_fault_report(mpc_payload)
    elif collector is not None or tracer is not None:
        from repro.congest.network import CongestNetwork

        network = CongestNetwork(graph, seed=args.seed, engine=args.engine)
        if collector is not None:
            collector.attach(network)
        if tracer is not None:
            network.tracer = tracer
        result = approx_mds_square(graph, network=network)
    else:
        result = approx_mds_square(graph, seed=args.seed, engine=args.engine)
    assert_dominating_set(sq, result.cover)
    print(f"graph: {args.graph} n={graph.number_of_nodes()} "
          f"m={graph.number_of_edges()}")
    print(f"dominating set: {len(result.cover)}  rounds="
          f"{result.stats.rounds}  phases={result.detail['phases']}")
    if args.exact:
        opt = len(minimum_dominating_set(sq))
        print(f"exact optimum: {opt}  ratio: {len(result.cover) / opt:.3f}")
    if collector is not None:
        _write_metrics(collector, args.metrics)
    if tracer is not None:
        _write_trace(tracer, args.trace)
    return 0


def _cmd_gallery(args: argparse.Namespace) -> int:
    x, y = random_instance(args.k, seed=args.seed)
    if args.family == "ckp17":
        fam = build_ckp17_mvc(x, y, args.k)
    elif args.family == "bcd19":
        fam = build_bcd19_mds(x, y, args.k)
    else:
        params = GapConstructionParams()
        small_x = frozenset(p for p in x if p[0] <= 3 and p[1] <= 3)
        small_y = frozenset(p for p in y if p[0] <= 3 and p[1] <= 3)
        fam = build_gap_family(
            small_x, small_y, params, weighted=args.family == "gap-weighted"
        )
    n = fam.graph.number_of_nodes()
    bound = implied_round_lower_bound(fam.k * fam.k, fam.cut_size, n)
    print(fam.description)
    print(f"n={n}  m={fam.graph.number_of_edges()}  cut={fam.cut_size}")
    print(f"threshold={fam.threshold}  intersecting={not disj(fam.x, fam.y)}")
    print(f"implied round lower bound at this scale: {bound:.2f}")
    return 0


def _verify_grid(family: str, k: int, samples: int) -> GridSpec:
    """One verification cell per sampled seed, all through the sweep runner."""
    cells = tuple(
        Cell(task=f"verify-{family}", n=0, seed=seed, params=(("k", k),))
        for seed in range(samples)
    )
    return GridSpec(name=f"verify-{family}", cells=cells)


def _mpc_verify_grid(
    n: int,
    alpha: float,
    samples: int,
    compress: int | str = 1,
    workers: int | None = None,
) -> GridSpec:
    """One round-compilation parity cell per sampled seed."""
    params: tuple[tuple[str, object], ...] = (
        ("alpha", alpha),
        ("gnp_p", min(0.3, 4.0 / max(n, 2))),
    )
    if compress != 1:
        params += (("compress", compress),)
    if workers is not None and workers != 1:
        params += (("mpc_workers", workers),)
    cells = tuple(
        Cell(task="mpc-parity", graph="gnp", n=n, seed=seed, params=params)
        for seed in range(samples)
    )
    return GridSpec(name="verify-mpc", cells=cells)


def _cmd_verify_mpc(args: argparse.Namespace) -> int:
    tracer, code = _make_tracer(args)
    if code is not None:
        return code
    grid = _mpc_verify_grid(
        args.n, args.alpha, args.samples, compress=args.compress,
        workers=args.mpc_workers,
    )
    sweep = run_sweep(grid, jobs=args.jobs, trace=tracer)
    failures = 0
    for result in sweep:
        if not result.ok:
            failures += 1
            print(f"seed={result.cell.seed}: {result.status} "
                  f"({_last_error_line(result)})")
            continue
        payload = result.payload or {}
        print(f"seed={result.cell.seed}: stages={payload['stages']} "
              f"rounds={payload['congest_rounds']} "
              f"matching={payload['matching_size']} "
              f"(oracle {payload['oracle_size']}) "
              f"machines={payload['mpc']['machines']} -> ok")
    print(f"{args.samples - failures}/{args.samples} round-compilation "
          f"parity samples verified (alpha={args.alpha:g}, n={args.n})")
    if tracer is not None:
        _write_trace(tracer, args.trace)
    return 1 if failures else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    code = _check_compress(args)
    if code is None:
        code = _check_mpc_workers(args)
    if code is not None:
        return code
    if args.model == "mpc":
        return _cmd_verify_mpc(args)
    tracer, code = _make_tracer(args)
    if code is not None:
        return code
    grid = _verify_grid(args.family, args.k, args.samples)
    sweep = run_sweep(grid, jobs=args.jobs, trace=tracer)
    failures = 0
    for result in sweep:
        if not result.ok:
            failures += 1
            print(f"seed={result.cell.seed}: {result.status} "
                  f"({_last_error_line(result)})")
            continue
        payload = result.payload or {}
        ok = payload["ok"]
        if not ok:
            failures += 1
        print(f"seed={result.cell.seed}: optimum={payload['value']} "
              f"threshold={payload['threshold']} "
              f"intersecting={payload['intersecting']} "
              f"-> {'ok' if ok else 'FAIL'}")
    print(f"{args.samples - failures}/{args.samples} instances verified")
    if tracer is not None:
        _write_trace(tracer, args.trace)
    return 1 if failures else 0


def _parse_list(text: str, convert):
    return tuple(convert(part) for part in text.split(",") if part)


def _parse_axis(text, flag, convert, type_name, valid, constraint):
    """Parse one comma-separated sweep axis: convert, validate, dedupe.

    A repeated axis value (``--alphas 0.8,0.8`` or ``0.8,0.80``) would
    expand the grid twice over identical cells — every duplicated cell
    re-runs and double-counts in the aggregate stats — so duplicates are
    dropped while preserving first-occurrence order; values failing
    ``valid`` are rejected up front with ``constraint`` as a parse error
    instead of failing inside every cell.
    """
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            value = convert(part)
        except ValueError:
            raise SystemExit(
                f"{flag}: {part!r} is not {type_name}"
            ) from None
        if not valid(value):
            raise SystemExit(f"{flag} values must be {constraint}, got {part}")
        if value not in values:
            values.append(value)
    return tuple(values)


def _parse_alphas(text: str) -> tuple[float, ...]:
    """``--alphas``: positive floats (memory exponents), deduped, ordered."""
    return _parse_axis(
        text,
        "--alphas",
        float,
        "a number",
        lambda value: value > 0,
        "positive memory exponents",
    )


def _parse_compress(text: str) -> tuple[int | str, ...]:
    """``--compress`` for sweeps: ints >= 1 and/or ``auto``, deduped."""
    return _parse_axis(
        text,
        "--compress",
        lambda part: "auto" if part == "auto" else int(part),
        "an integer or 'auto'",
        lambda value: value == "auto" or value >= 1,
        ">= 1",
    )


def _parse_mpc_workers(text: str) -> tuple[int, ...]:
    """``--mpc-workers`` for sweeps: shard counts >= 1, deduped."""
    return _parse_axis(
        text,
        "--mpc-workers",
        int,
        "an integer",
        lambda value: value >= 1,
        ">= 1",
    )


def _sweep_grid_from_args(args: argparse.Namespace) -> GridSpec:
    if args.grid is not None:
        if args.task is not None:
            raise SystemExit("pass either --grid or --task, not both")
        if args.model != "congest" or args.alphas or args.compress:
            raise SystemExit(
                "--model/--alphas/--compress apply to ad-hoc --task grids; "
                "named grids fix their model, alphas and compression per "
                "cell"
            )
        if args.faults:
            raise SystemExit(
                "--faults applies to ad-hoc --task grids; named grids fix "
                "their fault plans per cell (see the mpc-chaos grid)"
            )
        return named_grid(args.grid)
    if args.task is None:
        raise SystemExit("sweep requires --grid NAME or --task NAME")
    is_mpc_task = args.task.startswith("mpc-")
    if is_mpc_task != (args.model == "mpc"):
        raise SystemExit(
            f"task {args.task!r} belongs to the "
            f"{'mpc' if is_mpc_task else 'congest'} model; pass a matching "
            f"--model"
        )
    alphas: tuple[float, ...] = ()
    if args.alphas:
        if args.model != "mpc":
            raise SystemExit("--alphas requires --model mpc")
        alphas = _parse_alphas(args.alphas)
    elif args.model == "mpc":
        alphas = (0.8,)
    compressions: tuple[int | str, ...] = (1,)
    if args.compress:
        if args.model != "mpc":
            raise SystemExit("--compress requires --model mpc")
        compressions = _parse_compress(args.compress) or (1,)
    workers_axis: tuple[int, ...] = (1,)
    if args.mpc_workers:
        if args.model != "mpc":
            raise SystemExit("--mpc-workers requires --model mpc")
        workers_axis = _parse_mpc_workers(args.mpc_workers) or (1,)
    faults_param: tuple[tuple[str, object], ...] = ()
    if args.faults:
        if args.model != "mpc":
            raise SystemExit("--faults requires --model mpc")
        from repro.faults import FaultPlan

        try:
            FaultPlan.from_spec(args.faults)
        except ValueError as exc:
            raise SystemExit(f"--faults: {exc}")
        faults_param = (("faults", args.faults),)
    metrics_param: tuple[tuple[str, object], ...] = ()
    if args.metrics is not None:
        from repro.sweep.tasks import METRICS_TASKS

        if args.task not in METRICS_TASKS:
            raise SystemExit(
                f"sweep --metrics requires a metrics-capable task "
                f"({', '.join(sorted(METRICS_TASKS))}), got {args.task!r}"
            )
        metrics_param = (("metrics", True),)
    engines: tuple[str | None, ...] = (None,)
    if args.engines:
        if args.model == "mpc":
            raise SystemExit(
                "--engines selects CONGEST engines; the mpc model has its "
                "own runtime (sweep --alphas instead)"
            )
        engines = _parse_list(args.engines, str)
    epss: tuple[float | None, ...] = (None,)
    if args.epss:
        epss = _parse_list(args.epss, float)
    # One expansion per (alpha, compression, workers) triple (extra
    # per-cell axes the cartesian helper does not know about); seeds
    # derive from the other coordinates, so the same point at two alphas,
    # window lengths or worker counts evaluates the same workload graph —
    # and for workers, produces the byte-identical payload.
    cells = []
    for alpha in alphas or (None,):
        for compress in compressions:
            for workers in workers_axis:
                params = metrics_param + faults_param
                if alpha is not None:
                    params += (("alpha", alpha),)
                if compress != 1:
                    params += (("compress", compress),)
                if workers != 1:
                    params += (("mpc_workers", workers),)
                expansion = expand_grid(
                    name=f"adhoc-{args.task}",
                    task=args.task,
                    graphs=_parse_list(args.graphs, str),
                    ns=_parse_list(args.ns, int),
                    epss=epss,
                    engines=engines,
                    replicates=args.replicates,
                    base_seed=args.base_seed,
                    params=params,
                )
                cells.extend(expansion.cells)
    grid = GridSpec(name=f"adhoc-{args.task}", cells=tuple(cells))
    if not grid.cells:
        # An empty axis (e.g. --ns "" from an unset shell variable) would
        # otherwise "succeed" vacuously with 0 cells and exit 0.
        raise SystemExit(
            "sweep grid is empty; check --graphs/--ns/--epss/--engines/"
            "--replicates for empty values"
        )
    return grid


def _cmd_sweep(args: argparse.Namespace) -> int:
    tracer, code = _make_tracer(args)
    if code is not None:
        return code
    grid = _sweep_grid_from_args(args)
    # Named grids fix their cell coordinates, so --mpc-workers applies as
    # the environment override every MPC network resolves its default
    # worker count from: the whole grid runs sharded while every payload
    # (and the deterministic digest) stays byte-identical to a serial run
    # — which is exactly how the parallel-parity acceptance gate compares
    # worker counts.
    env_workers: int | None = None
    if args.grid is not None and args.mpc_workers:
        values = _parse_mpc_workers(args.mpc_workers)
        if len(values) != 1:
            raise SystemExit(
                "named grids take a single --mpc-workers value (applied "
                "as the REPRO_MPC_WORKERS override); axes apply to ad-hoc "
                "--task grids"
            )
        env_workers = values[0]
    from repro.mpc.parallel import WORKERS_ENV_VAR

    saved_workers = os.environ.get(WORKERS_ENV_VAR)
    if env_workers is not None:
        os.environ[WORKERS_ENV_VAR] = str(env_workers)
    try:
        sweep = run_sweep(
            grid,
            jobs=args.jobs,
            timeout=args.timeout,
            repeats=args.repeats,
            retries=args.retries,
            trace=tracer,
        )
    finally:
        if env_workers is not None:
            if saved_workers is None:
                os.environ.pop(WORKERS_ENV_VAR, None)
            else:
                os.environ[WORKERS_ENV_VAR] = saved_workers
    data = sweep.to_json()
    digest = sweep.deterministic_sha256()
    data["deterministic_sha256"] = digest
    if args.json is not None:
        Path(args.json).write_text(json.dumps(data, indent=2, sort_keys=True))
    if not args.quiet:
        widths = (44, 8, 8, 10, 10, 18)
        print(f"== sweep {grid.name}: {len(grid)} cells, "
              f"jobs={args.jobs} ==")
        print("  ".join(h.ljust(w) for h, w in zip(TABLE_HEADER, widths)))
        for row in sweep.table_rows():
            cells = []
            for value, width in zip(row, widths):
                text = f"{value:.2f}" if isinstance(value, float) else str(value)
                cells.append(text.ljust(width))
            print("  ".join(cells))
        for bits, stats in sorted(sweep.aggregate_stats().items()):
            print(f"aggregate[word_bits={bits}]: rounds={stats.rounds} "
                  f"messages={stats.messages} words={stats.total_words} "
                  f"bits={stats.total_bits}")
        print(sweep.timing_histogram())
    if tracer is not None:
        _write_trace(tracer, args.trace)
    if args.metrics is not None:
        from repro.metrics import validate_metrics

        documents = {}
        for result in sweep:
            doc = (result.payload or {}).get("metrics")
            if result.ok and doc is not None:
                validate_metrics(doc)
                documents[result.cell.key] = doc
        Path(args.metrics).write_text(
            json.dumps(
                {
                    "schema": "repro.metrics.sweep/1",
                    "grid": grid.name,
                    "cells": documents,
                },
                indent=2,
                sort_keys=True,
            )
        )
        print(f"metrics: wrote {args.metrics} "
              f"({len(documents)} cell documents)")
    counts = data["counts"]
    print(f"cells: {counts['ok']} ok, {counts['error']} error, "
          f"{counts['timeout']} timeout in {sweep.wall_seconds:.2f}s "
          f"(jobs={args.jobs})")
    warned = sum(1 for result in sweep if result.warning)
    if warned:
        # Degradations must not hide in the table: repeat them here,
        # where scripts scraping the summary will see them.
        print(f"warnings: {warned} cell(s) ran degraded "
              f"(see the detail column)")
    print(f"deterministic sha256: {digest}")
    return 1 if sweep.failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed Approximation on Power Graphs (PODC 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mvc = sub.add_parser("mvc", help="approximate MVC on G^2")
    mvc.add_argument("--n", type=int, default=32)
    mvc.add_argument("--eps", type=float, default=0.5)
    mvc.add_argument("--seed", type=int, default=0)
    mvc.add_argument("--graph", choices=GRAPH_KINDS, default="gnp")
    mvc.add_argument(
        "--model",
        choices=("congest", "clique-det", "clique-rand", "centralized", "mpc"),
        default="congest",
        help="execution model; mpc compiles the CONGEST rounds onto "
        "low-space machines (with an engine-v2 parity check)",
    )
    mvc.add_argument(
        "--engine",
        choices=("v1", "v2"),
        default=None,
        help="simulator engine (default: REPRO_ENGINE env or v2)",
    )
    mvc.add_argument(
        "--alpha",
        type=float,
        default=0.8,
        help="mpc model only: per-machine memory exponent, S=ceil(n^alpha)",
    )
    mvc.add_argument(
        "--compress",
        "-k",
        type=_compress_value,
        default=1,
        help="mpc model only: batch up to k CONGEST rounds per shuffle "
        "(adaptive; falls back to 1 where the k-hop frontier exceeds the "
        "window budget); 'auto' lets a peak-hold load estimator choose "
        "each window's k",
    )
    mvc.add_argument(
        "--mpc-workers",
        type=int,
        default=None,
        help="mpc model only: shard the machines over this many forked "
        "worker processes (default: REPRO_MPC_WORKERS env or 1 = serial); "
        "the shuffle ledger and outputs are identical at any count",
    )
    mvc.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="mpc model only: comma-separated fault plan (crash@B[:T], "
        "straggle@B[:D], mem@B[:M], max_recoveries=N) injected into the "
        "run; crashed shard workers recover from checkpointed shuffle "
        "barriers with byte-identical outputs",
    )
    mvc.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write a structured metrics document (per-phase series plus "
        "the shuffle ledger) to PATH; congest and mpc models only",
    )
    mvc.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event / Perfetto JSON timeline of the "
        "run (stage spans, shuffles, shard-worker barriers, recovery) to "
        "PATH; congest and mpc models only — purely observational, the "
        "run's outputs and ledgers are unchanged",
    )
    mvc.add_argument("--exact", action="store_true")
    mvc.set_defaults(func=_cmd_mvc)

    mds = sub.add_parser("mds", help="approximate MDS on G^2")
    mds.add_argument("--n", type=int, default=24)
    mds.add_argument("--seed", type=int, default=0)
    mds.add_argument("--graph", choices=GRAPH_KINDS, default="gnp")
    mds.add_argument(
        "--model",
        choices=("congest", "mpc"),
        default="congest",
        help="execution model; mpc compiles the CONGEST rounds onto "
        "low-space machines (with an engine-v2 parity check)",
    )
    mds.add_argument(
        "--engine",
        choices=("v1", "v2"),
        default=None,
        help="simulator engine (default: REPRO_ENGINE env or v2)",
    )
    mds.add_argument(
        "--alpha",
        type=float,
        default=0.8,
        help="mpc model only: per-machine memory exponent, S=ceil(n^alpha)",
    )
    mds.add_argument(
        "--compress",
        "-k",
        type=_compress_value,
        default=1,
        help="mpc model only: batch up to k CONGEST rounds per shuffle "
        "(adaptive; falls back to 1 where the k-hop frontier exceeds the "
        "window budget); 'auto' lets a peak-hold load estimator choose "
        "each window's k",
    )
    mds.add_argument(
        "--mpc-workers",
        type=int,
        default=None,
        help="mpc model only: shard the machines over this many forked "
        "worker processes (default: REPRO_MPC_WORKERS env or 1 = serial); "
        "the shuffle ledger and outputs are identical at any count",
    )
    mds.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="mpc model only: comma-separated fault plan (crash@B[:T], "
        "straggle@B[:D], mem@B[:M], max_recoveries=N) injected into the "
        "run; crashed shard workers recover from checkpointed shuffle "
        "barriers with byte-identical outputs",
    )
    mds.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write a structured metrics document (per-phase series plus "
        "the shuffle ledger) to PATH; congest and mpc models only",
    )
    mds.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event / Perfetto JSON timeline of the "
        "run (stage spans, shuffles, shard-worker barriers, recovery) to "
        "PATH; congest and mpc models only — purely observational, the "
        "run's outputs and ledgers are unchanged",
    )
    mds.add_argument("--exact", action="store_true")
    mds.set_defaults(func=_cmd_mds)

    families = ("ckp17", "bcd19", "gap-weighted", "gap-unweighted")
    gallery = sub.add_parser("gallery", help="build a lower-bound family")
    gallery.add_argument("--family", choices=families, default="ckp17")
    gallery.add_argument("--k", type=int, default=4)
    gallery.add_argument("--seed", type=int, default=0)
    gallery.set_defaults(func=_cmd_gallery)

    verify = sub.add_parser(
        "verify",
        help="verify a family's predicate, or (--model mpc) the "
        "round-compilation parity claim",
    )
    verify.add_argument(
        "--model",
        choices=("congest", "mpc"),
        default="congest",
        help="congest: exact-solver verification of a lower-bound family; "
        "mpc: stage parity vs engine v2 plus matching maximality, over "
        "sampled seeds",
    )
    verify.add_argument("--family", choices=families, default="ckp17")
    verify.add_argument("--k", type=int, default=2)
    verify.add_argument("--samples", type=int, default=5)
    verify.add_argument(
        "--n", type=int, default=16, help="mpc model only: workload size"
    )
    verify.add_argument(
        "--alpha",
        type=float,
        default=0.9,
        help="mpc model only: per-machine memory exponent",
    )
    verify.add_argument(
        "--compress",
        type=_compress_value,
        default=1,
        help="mpc model only: batch up to k CONGEST rounds per shuffle in "
        "the parity cells, or 'auto' (no -k short form here; --k is the "
        "family size)",
    )
    verify.add_argument(
        "--mpc-workers",
        type=int,
        default=None,
        help="mpc model only: shard each parity cell's machines over this "
        "many forked worker processes (orthogonal to --jobs, which fans "
        "out whole cells)",
    )
    verify.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the sample sweep (default: serial)",
    )
    verify.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event / Perfetto JSON timeline of the "
        "verification sweep (one span per sample cell) to PATH",
    )
    verify.set_defaults(func=_cmd_verify)

    sweep = sub.add_parser(
        "sweep",
        help="evaluate a benchmark grid, optionally over a process pool",
    )
    sweep.add_argument(
        "--grid",
        choices=sorted(NAMED_GRIDS),
        default=None,
        help="named benchmark grid (mutually exclusive with --task)",
    )
    sweep.add_argument(
        "--task",
        choices=task_names(),
        default=None,
        help="build an ad-hoc grid for this task instead of a named one",
    )
    sweep.add_argument(
        "--graphs", default="gnp", help="comma-separated graph kinds"
    )
    sweep.add_argument(
        "--ns", default="16,24", help="comma-separated graph sizes"
    )
    sweep.add_argument(
        "--epss", default="", help="comma-separated epsilon values"
    )
    sweep.add_argument(
        "--engines",
        default="",
        help="comma-separated engines (v1,v2); empty = engine default",
    )
    sweep.add_argument(
        "--model",
        choices=("congest", "mpc"),
        default="congest",
        help="ad-hoc grids: execution model the --task belongs to "
        "(mpc-* tasks require --model mpc)",
    )
    sweep.add_argument(
        "--alphas",
        default="",
        help="comma-separated memory exponents for --model mpc "
        "(one grid expansion per alpha; duplicates dropped, values must "
        "be positive; default 0.8)",
    )
    sweep.add_argument(
        "--compress",
        "-k",
        default="",
        help="comma-separated shuffle-compression windows for --model mpc "
        "(one grid expansion per k; duplicates dropped, values >= 1 or "
        "'auto'; default 1)",
    )
    sweep.add_argument(
        "--mpc-workers",
        default="",
        help="MPC shard workers per cell: a comma axis for ad-hoc "
        "--model mpc grids (one expansion per count; payloads are "
        "identical across counts), or a single value for named grids "
        "(applied as the REPRO_MPC_WORKERS override without changing "
        "cell coordinates)",
    )
    sweep.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="ad-hoc --model mpc grids only: fault plan applied to every "
        "cell (crash@B[:T], straggle@B[:D], mem@B[:M], max_recoveries=N); "
        "payloads and the deterministic digest are identical to a "
        "fault-free sweep",
    )
    sweep.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="collect per-cell metrics documents (metrics-capable tasks "
        "only) and write them as one JSON file",
    )
    sweep.add_argument("--replicates", type=int, default=1)
    sweep.add_argument("--base-seed", type=int, default=0)
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = serial, in-process)",
    )
    sweep.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-cell time budget in seconds",
    )
    sweep.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="best-of-N timing repeats per cell",
    )
    sweep.add_argument(
        "--retries",
        type=int,
        default=0,
        help="re-evaluate cells that fail transiently (worker crashes, "
        "timeouts) up to N extra times with deterministic backoff; the "
        "attempt count is recorded in the timing-scoped JSON only",
    )
    sweep.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the merged results as JSON",
    )
    sweep.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event / Perfetto JSON timeline of the "
        "sweep (one complete event per cell: evaluation window on serial "
        "runs, submit-to-result window on pool runs) to PATH",
    )
    sweep.add_argument(
        "--quiet", action="store_true", help="suppress the per-cell table"
    )
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
