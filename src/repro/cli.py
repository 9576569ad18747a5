"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``mvc``
    Run a G^2-MVC algorithm (CONGEST, deterministic clique, randomized
    clique, or centralized 5/3) on a generated workload and report the
    cover size, round usage and the exact-optimum ratio.
``mds``
    Run the Theorem 28 G^2-MDS algorithm likewise.  Both run through
    :func:`repro.solve.solve`, the sweep's solver tasks' path too.
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
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.congest.engine import resolve_engine_name
from repro.core.mvc_congest import normalized_epsilon
from repro.graphs.generators import (
    GRAPH_KINDS,
    build_graph,
    check_graph_kind,
    check_graph_size,
)
from repro.graphs.instance import InputError
from repro.graphs.power import square
from repro.lowerbounds import FAMILIES, build_family
from repro.lowerbounds.bcd19 import bcd19_threshold
from repro.lowerbounds.ckp17 import ckp17_threshold
from repro.lowerbounds.disjointness import disj, random_instance
from repro.lowerbounds.framework import implied_round_lower_bound
from repro.mpc.machine import MemoryBudgetExceeded, check_alpha
from repro.mpc.options import RunOptions, parse_scalar
from repro.solve import MODELS, check, solve
from repro.sweep import (
    TABLE_HEADER,
    Cell,
    GridSpec,
    expand_grid,
    named_grid,
    run_sweep,
)
from repro.sweep.grids import NAMED_GRIDS
from repro.sweep.runner import check_count
from repro.sweep.tasks import (
    METRICS_TASKS,
    SOLVER_TASKS,
    check_cell,
    task_names,
)


def _last_error_line(result) -> str:
    """Final traceback line of a failed cell, or its bare status."""
    lines = (result.error or "").strip().splitlines()
    return lines[-1] if lines else result.status


class _UsageError(Exception):
    """A bad flag value or combination: ``error: ...`` and exit status 2."""


def _checked(validate, *args, **kwargs):
    """``validate(*args, **kwargs)``, its ``ValueError`` a usage error.

    The library's validators are the only copy of each rule, so a bad
    flag value is reported with the library's own message.
    """
    try:
        return validate(*args, **kwargs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _print_mpc_ledger(payload: dict) -> None:
    """The MPC ledger line of a ``--model mpc`` run."""
    shuffle = payload["shuffle"]
    line = (
        f"mpc: machines={payload['machines']} S={payload['budget_words']} "
        f"words (alpha={payload['alpha']:g})  shuffles={shuffle['shuffles']} "
        f"shuffle_words={shuffle['total_words']} "
        f"max_machine_load={shuffle['max_in_words']}"
    )
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


def _make_tracer(args: argparse.Namespace):
    """The --trace recorder, or ``None`` when --trace is not set."""
    if args.trace is None:
        return None
    from repro.trace import TraceRecorder

    return TraceRecorder()


def _write_trace(recorder, path: str) -> None:
    out = recorder.write(path)
    print(
        f"trace: wrote {out} ({len(recorder)} events; open in Perfetto "
        f"or chrome://tracing)"
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    """``mvc``/``mds``: one :func:`repro.solve.solve` run, printed."""
    problem, model = args.command, args.model
    tracer = _make_tracer(args)
    settings = dict(
        seed=args.seed,
        eps=getattr(args, "eps", None),
        engine=args.engine,
        alpha=args.alpha,
        compress=args.compress,
        faults=args.faults,
        # The engine-v2 parity shadow is always on for --model mpc.
        parity=model == "mpc",
        metrics=(
            f"{problem}/{args.graph}/n={args.n}/seed={args.seed}"
            if args.metrics is not None else None
        ),
        tracer=tracer,
    )
    _checked(check, problem, model, **settings)
    graph = _checked(build_graph, args.graph, args.n, seed=args.seed)
    payload = solve(problem, model, graph, exact=args.exact, **settings)
    if model == "mpc":
        _print_mpc_ledger(payload["mpc"])
    size = payload["cover_size"]
    rounds = payload["stats"]["rounds"] if "stats" in payload else 0
    line = (f"graph: {args.graph} n={graph.number_of_nodes()} "
            f"m={graph.number_of_edges()}")
    if problem == "mvc":
        print(f"{line} (square m={square(graph).number_of_edges()})")
        print(f"model: {model}  cover={size}  rounds={rounds}")
    else:
        print(line)
        print(f"dominating set: {size}  rounds={rounds}  "
              f"phases={payload['phases']}")
    if args.exact:
        print(f"exact optimum: {payload['opt']}  "
              f"ratio: {payload['ratio']:.3f}")
    if args.metrics is not None:
        out, document = Path(args.metrics), payload["metrics"]
        out.write_text(json.dumps(document, indent=2, sort_keys=True))
        print(f"metrics: wrote {out} (deterministic sha256 "
              f"{document['deterministic_sha256']})")
    if tracer is not None:
        _write_trace(tracer, args.trace)
    return 0


#: The families whose size ``k`` must be a power of two, with the
#: threshold function that checks it.
_FAMILY_K_CHECKS = {"ckp17": ckp17_threshold, "bcd19": bcd19_threshold}


def _check_family_k(args: argparse.Namespace) -> None:
    check_k = _FAMILY_K_CHECKS.get(args.family)
    if check_k is not None:
        _checked(check_k, args.k)


def _cmd_gallery(args: argparse.Namespace) -> int:
    _check_family_k(args)
    x, y = random_instance(args.k, seed=args.seed)
    fam = build_family(args.family, x, y, args.k)
    n = fam.graph.number_of_nodes()
    bound = implied_round_lower_bound(fam.k * fam.k, fam.cut_size, n)
    print(fam.description)
    print(f"n={n}  m={fam.graph.number_of_edges()}  cut={fam.cut_size}")
    print(f"threshold={fam.threshold}  intersecting={not disj(fam.x, fam.y)}")
    print(f"implied round lower bound at this scale: {bound:.2f}")
    return 0


#: ``verify``'s flags that belong to one model: ``(flag, attribute,
#: default, what it does, the model)``.  Off its model a flag must keep
#: its default.
_VERIFY_FLAGS = (
    ("--family", "family", "ckp17", "picks the lower-bound family",
     "congest"),
    ("--k", "k", 2, "sizes the lower-bound family", "congest"),
    ("--n", "n", 16, "sizes the parity workload", "mpc"),
    ("--alpha", "alpha", 0.9, "sets the per-machine memory exponent", "mpc"),
    ("--compress", "compress", 1, "batches CONGEST rounds per MPC shuffle",
     "mpc"),
)


def _cmd_verify(args: argparse.Namespace) -> int:
    _checked(check_count, "samples", args.samples, 1)
    _checked(check_count, "jobs", args.jobs, 1)
    for flag, attr, default, what, model in _VERIFY_FLAGS:
        if args.model != model and getattr(args, attr) != default:
            raise _UsageError(f"{flag} {what}; it requires --model {model}")
    # One cell per sampled seed, all through the sweep runner.
    mpc = args.model == "mpc"
    if mpc:
        _checked(RunOptions, args.compress)
        _checked(check_alpha, args.alpha)
        _checked(check_graph_size, args.n)
        task, name, n = "mpc-parity", "verify-mpc", args.n
        params: tuple[tuple[str, object], ...] = (
            ("alpha", args.alpha),
            ("gnp_p", min(0.3, 4.0 / max(n, 2))),
        )
        if args.compress != 1:
            params += (("compress", args.compress),)
    else:
        _check_family_k(args)
        task = name = f"verify-{args.family}"
        n, params = 0, (("k", args.k),)
    grid = GridSpec(name=name, cells=tuple(
        Cell(task=task, n=n, seed=seed, params=params)
        for seed in range(args.samples)
    ))
    tracer = _make_tracer(args)
    sweep = run_sweep(grid, jobs=args.jobs, trace=tracer)
    failures = 0
    for result in sweep:
        payload = result.payload or {}
        if not result.ok:
            failures += 1
            print(f"seed={result.cell.seed}: {result.status} "
                  f"({_last_error_line(result)})")
        elif mpc:
            print(f"seed={result.cell.seed}: stages={payload['stages']} "
                  f"rounds={payload['congest_rounds']} "
                  f"matching={payload['matching_size']} "
                  f"(oracle {payload['oracle_size']}) "
                  f"machines={payload['mpc']['machines']} -> ok")
        else:
            failures += not payload["ok"]
            print(f"seed={result.cell.seed}: optimum={payload['value']} "
                  f"threshold={payload['threshold']} "
                  f"intersecting={payload['intersecting']} "
                  f"-> {'ok' if payload['ok'] else 'FAIL'}")
    verified = args.samples - failures
    if mpc:
        print(f"{verified}/{args.samples} round-compilation parity samples "
              f"verified (alpha={args.alpha:g}, n={args.n})")
    else:
        print(f"{verified}/{args.samples} instances verified")
    if tracer is not None:
        _write_trace(tracer, args.trace)
    return 1 if failures else 0


def _parse_axis(text, flag, convert):
    """Parse one comma-separated sweep axis: convert, validate, dedupe.

    A repeated axis value (``--alphas 0.8,0.8`` or ``0.8,0.80``) would
    expand the grid twice over identical cells — every duplicated cell
    re-runs and double-counts in the aggregate stats — so duplicates are
    dropped while preserving first-occurrence order.  ``convert`` raises
    ``ValueError`` on a bad value, which is rejected up front as a parse
    error instead of failing inside every cell; a value that parses but
    breaks a library rule is reported through :func:`_checked`, with the
    library's own message.
    """
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            value = convert(part)
        except ValueError as exc:
            raise _UsageError(f"{flag}: {exc}") from None
        if value not in values:
            values.append(value)
    return tuple(values)


def _alpha(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a number") from None
    return _checked(check_alpha, value)


def _eps(text: str) -> float:
    value = float(text)
    _checked(normalized_epsilon, value)
    return value


def _parse_alphas(text: str) -> tuple[float, ...]:
    """``--alphas``: memory exponents ``check_alpha`` accepts, deduped."""
    return _parse_axis(text, "--alphas", _alpha)


def _parse_compress(text: str) -> tuple[int | str, ...]:
    """``--compress`` for sweeps: windows ``RunOptions`` accepts, deduped."""
    return _parse_axis(
        text,
        "--compress",
        lambda part: _checked(RunOptions, parse_scalar(part)).compress,
    )


def _sweep_grid_from_args(args: argparse.Namespace) -> GridSpec:
    if args.grid is not None:
        if args.task is not None:
            raise _UsageError("pass either --grid or --task, not both")
        if args.model != "congest" or args.alphas or args.compress:
            raise _UsageError(
                "--model/--alphas/--compress apply to ad-hoc --task grids; "
                "named grids fix their model, alphas and compression per "
                "cell"
            )
        if args.faults:
            raise _UsageError(
                "--faults applies to ad-hoc --task grids; named grids fix "
                "their cells"
            )
        return named_grid(args.grid)
    if args.task is None:
        raise _UsageError("sweep requires --grid NAME or --task NAME")
    is_mpc_task = args.task.startswith("mpc-")
    if is_mpc_task != (args.model == "mpc"):
        raise _UsageError(
            f"task {args.task!r} belongs to the "
            f"{'mpc' if is_mpc_task else 'congest'} model; pass a matching "
            f"--model"
        )
    if args.model != "mpc":
        for attr in ("alphas", "compress", "faults"):
            if getattr(args, attr):
                raise _UsageError(f"--{attr} requires --model mpc")
    alphas: tuple[float, ...] = ()
    if args.alphas:
        alphas = _parse_alphas(args.alphas)
    elif args.model == "mpc":
        alphas = (0.8,)
    compressions = _parse_compress(args.compress) or (1,)
    faults_param: tuple[tuple[str, object], ...] = ()
    if args.faults:
        _checked(RunOptions, faults=args.faults)
        faults_param = (("faults", args.faults),)
    metrics_param: tuple[tuple[str, object], ...] = ()
    if args.metrics is not None:
        if args.task not in METRICS_TASKS:
            raise _UsageError(
                f"sweep --metrics requires a metrics-capable task "
                f"({', '.join(sorted(METRICS_TASKS))}), got {args.task!r}"
            )
        metrics_param = (("metrics", True),)
    engines: tuple[str | None, ...] = (None,)
    if args.engines:
        if args.model == "mpc":
            raise _UsageError(
                "--engines selects CONGEST engines; the mpc model has its "
                "own runtime (sweep --alphas instead)"
            )
        engines = _parse_axis(
            args.engines,
            "--engines",
            lambda part: _checked(resolve_engine_name, part),
        )
    epss: tuple[float | None, ...] = (None,)
    if args.epss:
        eps_tasks = sorted(
            task for task, (problem, _) in SOLVER_TASKS.items()
            if problem == "mvc"
        )
        if args.task not in eps_tasks:
            raise _UsageError(
                f"--epss applies to the MVC solver tasks "
                f"({', '.join(eps_tasks)}); task {args.task!r} takes no "
                f"epsilon"
            )
        epss = _parse_axis(args.epss, "--epss", _eps)
    graphs = _parse_axis(
        args.graphs, "--graphs", lambda part: _checked(check_graph_kind, part)
    )
    ns = _parse_axis(
        args.ns, "--ns", lambda part: _checked(check_graph_size, int(part))
    )
    _checked(check_count, "replicates", args.replicates, 1)
    # One expansion per (alpha, compression) pair (extra per-cell axes the
    # cartesian helper does not know about); seeds derive from the other
    # coordinates, so the same point at two alphas or window lengths
    # evaluates the same workload graph.
    cells = []
    for alpha in alphas or (None,):
        for compress in compressions:
            params = metrics_param + faults_param
            if alpha is not None:
                params += (("alpha", alpha),)
            if compress != 1:
                params += (("compress", compress),)
            expansion = expand_grid(
                name=f"adhoc-{args.task}",
                task=args.task,
                graphs=graphs,
                ns=ns,
                epss=epss,
                engines=engines,
                replicates=args.replicates,
                base_seed=args.base_seed,
                params=params,
            )
            cells.extend(expansion.cells)
    grid = GridSpec(name=f"adhoc-{args.task}", cells=tuple(cells))
    # A flag that sets a param the task never reads would otherwise be
    # ignored by every cell (e.g. --compress on the native matching).
    for cell in grid.cells:
        _checked(check_cell, cell)
    if not grid.cells:
        # An empty axis (e.g. --ns "" from an unset shell variable) would
        # otherwise "succeed" vacuously with 0 cells and exit 0.
        raise _UsageError(
            "sweep grid is empty; check --graphs/--ns/--epss/--engines "
            "for empty values"
        )
    return grid


def _cmd_sweep(args: argparse.Namespace) -> int:
    tracer = _make_tracer(args)
    grid = _sweep_grid_from_args(args)
    # run_sweep checks jobs, repeats and the timeout before any cell runs,
    # so its ValueError is a bad flag value.
    sweep = _checked(
        run_sweep,
        grid,
        jobs=args.jobs,
        timeout=args.timeout,
        repeats=args.repeats,
        trace=tracer,
    )
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
    print(f"deterministic sha256: {digest}")
    return 1 if sweep.failures else 0


def _add_solve_command(sub, name, help, n):
    """The ``mvc``/``mds`` subcommand with the flags both share."""
    cmd = sub.add_parser(name, help=help)
    cmd.add_argument("--n", type=int, default=n)
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument("--graph", choices=GRAPH_KINDS, default="gnp")
    cmd.add_argument(
        "--model",
        choices=MODELS[name],
        default="congest",
        help="execution model; mpc compiles the CONGEST rounds onto "
        "low-space machines (with an engine-v2 parity check)",
    )
    cmd.add_argument(
        "--engine",
        choices=("v1", "v2"),
        default=None,
        help="simulator engine (default: REPRO_ENGINE env or v2)",
    )
    cmd.add_argument(
        "--alpha",
        type=float,
        default=None,
        help="mpc model only: per-machine memory exponent, S=ceil(n^alpha) "
        "(default 0.8)",
    )
    cmd.add_argument(
        "--compress",
        "-k",
        type=parse_scalar,
        default=1,
        help="mpc model only: batch up to k CONGEST rounds per shuffle "
        "(adaptive; falls back to 1 where the k-hop frontier exceeds the "
        "window budget); 'auto' lets a peak-hold load estimator choose "
        "each window's k",
    )
    cmd.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="mpc model only: comma-separated fault plan (mem@B[:M]): "
        "shuffle B raises the memory-budget error a real over-budget "
        "shuffle would, blaming machine M (default: seeded)",
    )
    cmd.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write a structured metrics document (per-phase series plus "
        "the shuffle ledger) to PATH; congest and mpc models only",
    )
    cmd.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event / Perfetto JSON timeline of the "
        "run (stage spans, shuffles, compression windows) to PATH; "
        "congest and mpc models only — purely observational, the run's "
        "outputs and ledgers are unchanged",
    )
    cmd.add_argument("--exact", action="store_true")
    cmd.set_defaults(func=_cmd_solve)
    return cmd


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed Approximation on Power Graphs (PODC 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mvc = _add_solve_command(sub, "mvc", "approximate MVC on G^2", 32)
    mvc.add_argument("--eps", type=float, default=None)
    _add_solve_command(sub, "mds", "approximate MDS on G^2", 24)

    gallery = sub.add_parser("gallery", help="build a lower-bound family")
    gallery.add_argument("--family", choices=FAMILIES, default="ckp17")
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
    verify.add_argument("--family", choices=FAMILIES, default="ckp17")
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
        type=parse_scalar,
        default=1,
        help="mpc model only: batch up to k CONGEST rounds per shuffle in "
        "the parity cells, or 'auto' (no -k short form here; --k is the "
        "family size)",
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
        "be in (0, 2]; default 0.8)",
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
        "--faults",
        default=None,
        metavar="SPEC",
        help="ad-hoc --model mpc grids only: fault plan applied to every "
        "cell (mem@B[:M]); a cell whose run reaches shuffle B fails "
        "with the injected memory-budget error",
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
    try:
        return args.func(args)
    except (_UsageError, InputError) as exc:
        # An input outside the simulator's contract is a bad flag value
        # too (e.g. a generated graph with no vertices).
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryBudgetExceeded as exc:
        # The model refusing an instance (S too small for a vertex, or a
        # planned memory fault) is a failed run, not a program crash.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
