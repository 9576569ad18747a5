"""The sweep task registry: named cell evaluators.

Each task is a function ``(cell: Cell) -> dict`` mapping one grid cell to a
JSON-serializable payload.  Payloads must be *deterministic* — a function of
the cell alone, with no wall-clock or machine-dependent values — because the
runner's parity guarantee (serial and parallel evaluation of the same grid
merge byte-identically) rests on it.  Timing lives in the runner's
:class:`~repro.sweep.runner.CellResult`, never in the payload.

The G^2 solver tasks (:data:`SOLVER_TASKS`: ``mvc-congest``,
``mvc-clique-det``, ``mds-congest``, ``mpc-mvc`` and ``mpc-mds``) are one
evaluator, :func:`_solve_cell`, which hands the cell's settings to
:func:`repro.solve.solve` — the path the CLI's ``mvc``/``mds`` commands
take — so a cell and a CLI run accept and reject the same settings with
the same message.  The other tasks (the estimator, native MPC matching,
round-compilation parity, tree primitives, lower-bound verification and
the self-tests) evaluate their cells themselves.

Conventions shared by the built-in tasks:

* ``stats`` — the simulator :class:`~repro.congest.network.RunStats` as a
  plain dict (see :func:`repro.solve.stats_to_json`); the runner
  re-aggregates these with ``RunStats.__add__`` per word size.
* ``signature`` — a short hex digest of the solution, used by differential
  checks (engine v1 vs v2 parity at benchmark scale) without shipping the
  full solution between processes.
* per-cell graph — a task builds its workload graph from the cell's
  coordinates with :func:`_cell_graph`, inside the cell's own evaluation
  and time budget; nothing is shared between cells.
* per-cell engine selection — ``cell.engine`` is passed straight to the
  solver / network constructor, so one grid can mix ``v1`` and ``v2`` cells.

New tasks register with :func:`register_task`; the registry is module-level
state, so tasks defined in test or benchmark modules are visible to
``multiprocessing`` workers under the default ``fork`` start method (and to
``spawn`` workers as long as the defining module is imported on both sides).
"""

from __future__ import annotations

import os
import signal
import time
from collections.abc import Callable
from typing import Any

from repro.congest.network import CongestNetwork, RunStats
from repro.lowerbounds import FAMILIES
from repro.solve import OBSERVED_MODELS, signature_of, solve, stats_to_json
from repro.sweep.spec import Cell

TaskFn = Callable[[Cell], dict[str, Any]]

_REGISTRY: dict[str, TaskFn] = {}

def register_task(name: str) -> Callable[[TaskFn], TaskFn]:
    """Decorator registering ``fn`` as the evaluator for task ``name``."""

    def deco(fn: TaskFn) -> TaskFn:
        if name in _REGISTRY:
            raise ValueError(f"task {name!r} already registered")
        _REGISTRY[name] = fn
        return fn

    return deco


def get_task(name: str) -> TaskFn:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown sweep task {name!r}; known tasks: {task_names()}"
        ) from None


def task_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def stats_from_json(data: dict[str, int]) -> RunStats:
    return RunStats(**data)


#: The G^2 solver tasks, each one (problem, model) of
#: :func:`repro.solve.solve`.
SOLVER_TASKS: dict[str, tuple[str, str]] = {
    "mvc-congest": ("mvc", "congest"),
    "mvc-clique-det": ("mvc", "clique-det"),
    "mds-congest": ("mds", "congest"),
    "mpc-mvc": ("mvc", "mpc"),
    "mpc-mds": ("mds", "mpc"),
}

#: Tasks that honor the ``metrics`` cell param by embedding a
#: :class:`repro.metrics.MetricsCollector` document in their payload.
METRICS_TASKS: frozenset[str] = frozenset(
    task for task, (_, model) in SOLVER_TASKS.items()
    if model in OBSERVED_MODELS
) | {"mpc-matching"}


#: Cell coordinates that select a backend variant rather than a workload;
#: they must stay out of the metrics label, which sits inside the
#: deterministic section and therefore must be byte-identical across
#: engines, compression windows, worker counts and fault plans on the
#: same workload.
_VARIANT_PARAMS = frozenset(
    {"compress", "parity", "metrics", "mpc_workers", "faults"}
)


def _metrics_label(cell: Cell) -> str:
    parts = [cell.task, cell.graph, f"n={cell.n}", f"seed={cell.seed}"]
    if cell.eps is not None:
        parts.append(f"eps={cell.eps:g}")
    parts.extend(
        f"{k}={v}" for k, v in cell.params if k not in _VARIANT_PARAMS
    )
    return "/".join(parts)


def _cell_graph(cell: Cell):
    from repro.graphs.generators import build_graph

    return build_graph(
        cell.graph,
        cell.n,
        seed=cell.param("graph_seed", cell.seed),
        p=cell.param("gnp_p"),
    )


# -- cover / dominating-set solvers ---------------------------------------


def cell_settings(cell: Cell) -> dict[str, Any]:
    """The :func:`repro.solve.solve` settings of a solver-task cell.

    ``alpha``, ``compress``, ``mpc_workers``, ``faults`` and ``parity``
    params are the MPC settings; a missing ``mpc_workers`` resolves
    ``REPRO_MPC_WORKERS``, which is how named grids run their compiled
    cells sharded without changing cell coordinates.  A ``metrics`` param
    attaches a collector labelled by :func:`_metrics_label`.
    """
    return {
        "seed": cell.seed,
        "eps": cell.eps,
        "engine": cell.engine,
        "alpha": cell.param("alpha"),
        "compress": cell.param("compress", 1),
        "workers": cell.param("mpc_workers"),
        "faults": cell.param("faults"),
        "parity": bool(cell.param("parity", False)),
        "metrics": _metrics_label(cell) if cell.param("metrics") else None,
    }


def _solve_cell(cell: Cell) -> dict[str, Any]:
    """One G^2 solve (see :data:`SOLVER_TASKS`), verified; an ``exact``
    param adds the exact optimum and the ratio."""
    problem, model = SOLVER_TASKS[cell.task]
    return solve(
        problem, model, _cell_graph(cell), exact=bool(cell.param("exact")),
        **cell_settings(cell),
    )


for _solver_task in SOLVER_TASKS:
    _REGISTRY[_solver_task] = _solve_cell


@register_task("mds-estimator")
def _mds_estimator(cell: Cell) -> dict[str, Any]:
    """Lemma 29 two-hop-size estimator concentration on one graph."""
    from repro.core.estimation import estimate_neighborhood_sizes
    from repro.graphs.power import two_hop_neighbors

    graph = _cell_graph(cell)
    samples = int(cell.param("samples", 32))
    net = CongestNetwork(graph, seed=cell.seed, engine=cell.engine)
    estimates, result = estimate_neighborhood_sizes(
        net, members=list(graph.nodes), samples=samples
    )
    truth = {
        v: len(two_hop_neighbors(graph, v) | {v}) for v in graph.nodes
    }
    errors = [abs(estimates[v] - truth[v]) / truth[v] for v in graph.nodes]
    return {
        "samples": samples,
        "max_rel_err": max(errors),
        "mean_rel_err": sum(errors) / len(errors),
        "stats": stats_to_json(result.stats),
        "signature": signature_of(sorted(estimates.items())),
    }


# -- low-space MPC backend tasks ------------------------------------------


@register_task("mpc-matching")
def _mpc_matching(cell: Cell) -> dict[str, Any]:
    """Native MPC greedy maximal matching, oracle-verified.

    The cell fails (captured by the runner) unless the output is a valid
    maximal matching within the 2-approximation band of the centralized
    greedy oracle.  The matching runs serially, so an ``mpc_workers``
    param is refused rather than ignored.
    """
    from repro.exact.matching import deterministic_maximal_matching
    from repro.mpc.matching import (
        assert_maximal_matching,
        mpc_maximal_matching,
    )

    if cell.param("mpc_workers") is not None:
        raise ValueError(
            "mpc_workers shards compiled MPC cells only; the native "
            "matching runs serially"
        )
    collector = None
    if cell.param("metrics"):
        from repro.metrics import MetricsCollector

        collector = MetricsCollector(label=_metrics_label(cell))
    alpha = float(cell.param("alpha", 0.8))
    graph = _cell_graph(cell)
    result = mpc_maximal_matching(
        graph, alpha=alpha, seed=cell.seed, faults=cell.param("faults"),
        collector=collector,
    )
    assert_maximal_matching(graph, result.matching)
    oracle = deterministic_maximal_matching(graph)
    if oracle and not (
        len(oracle) / 2 <= len(result.matching) <= 2 * len(oracle)
    ):
        raise AssertionError(
            f"matching size {len(result.matching)} outside the maximal band "
            f"[{len(oracle) / 2:g}, {2 * len(oracle)}] of the oracle"
        )
    payload: dict[str, Any] = {
        "matching_size": len(result.matching),
        "oracle_size": len(oracle),
        "phases": result.phases,
        "signature": signature_of(
            tuple(sorted(tuple(sorted(map(repr, e))) for e in result.matching))
        ),
        "mpc": result.summary(),
    }
    if collector is not None:
        payload["metrics"] = collector.to_json()
    return payload


@register_task("mpc-parity")
def _mpc_parity(cell: Cell) -> dict[str, Any]:
    """Round-compilation trust-but-check: stage parity plus matching.

    Runs the Phase I MVC protocol and the Lemma 29 estimator as bare
    stages on the MPC runtime against an engine-v2 shadow (outputs, stats
    and full traces must be identical), then the native matching with its
    maximality oracle.  ``mpc_workers`` shards the compiled stages only;
    the native matching runs serially.  The CLI ``verify --model mpc``
    fans these cells out over seeds.
    """
    from repro.core.estimation import EstimationStage
    from repro.core.mvc_congest import PhaseOneAlgorithm
    from repro.exact.matching import deterministic_maximal_matching
    from repro.mpc.compile_congest import run_stage_parity
    from repro.mpc.matching import (
        assert_maximal_matching,
        mpc_maximal_matching,
    )
    from repro.mpc.options import RunOptions

    alpha = float(cell.param("alpha", 0.9))
    options = RunOptions(
        cell.param("compress", 1),
        cell.param("mpc_workers"),
        cell.param("faults"),
        seed=cell.seed,
    )
    graph = _cell_graph(cell)

    def prepare(network: CongestNetwork) -> None:
        for node_id in network.ids():
            network.node_state[node_id]["in_U"] = True

    report = run_stage_parity(
        graph,
        [
            lambda view: PhaseOneAlgorithm(view, threshold=2, iterations=4),
            lambda view: EstimationStage(view, samples=6),
        ],
        alpha=alpha,
        seed=cell.seed,
        prepare=prepare,
        options=options,
    )
    matching = mpc_maximal_matching(
        graph, alpha=alpha, seed=cell.seed, faults=options.faults
    )
    assert_maximal_matching(graph, matching.matching)
    oracle = deterministic_maximal_matching(graph)
    return {
        "ok": True,
        "stages": report["stages"],
        "congest_rounds": report["congest_rounds"],
        "matching_size": len(matching.matching),
        "oracle_size": len(oracle),
        "mpc": report["mpc"],
    }


# -- engine-scaling primitives (sparse-activity workloads) ----------------


@register_task("pipeline-path")
def _pipeline_path(cell: Cell) -> dict[str, Any]:
    """BFS + convergecast of a token batch along a path.

    The canonical sparse-activity workload: outside the token front almost
    every node is idle almost every round, which is where the activity
    engine's wake scheduling pays off.
    """
    from repro.congest.primitives import convergecast_tokens
    from repro.graphs.generators import path_graph

    tokens_per_node = int(cell.param("tokens", 16))
    net = CongestNetwork(
        path_graph(cell.n), seed=cell.seed, engine=cell.engine
    )
    tokens = {0: [(i, i) for i in range(tokens_per_node)]}
    collected, combined = convergecast_tokens(net, tokens)
    return {
        "collected": len(collected),
        "stats": stats_to_json(combined.stats),
        "signature": signature_of(collected),
    }


@register_task("broadcast-star")
def _broadcast_star(cell: Cell) -> dict[str, Any]:
    """BFS + token broadcast on a high-degree star."""
    from repro.congest.primitives import broadcast_tokens
    from repro.graphs.generators import star_graph

    tokens_per_node = int(cell.param("tokens", 16))
    net = CongestNetwork(
        star_graph(cell.n), seed=cell.seed, engine=cell.engine
    )
    result, _bfs = broadcast_tokens(
        net, [(i,) for i in range(tokens_per_node)]
    )
    return {
        "received": len(result.outputs[0]),
        "stats": stats_to_json(result.stats),
        "signature": signature_of(result.outputs[0]),
    }


# -- lower-bound family verification (the CLI `verify` cells) -------------


def _verify_family(cell: Cell, family: str) -> dict[str, Any]:
    from repro.exact.dominating_set import (
        minimum_dominating_set,
        minimum_weighted_dominating_set,
    )
    from repro.exact.vertex_cover import minimum_vertex_cover
    from repro.graphs.power import square
    from repro.lowerbounds import build_family
    from repro.lowerbounds.bcd19 import bcd19_threshold
    from repro.lowerbounds.ckp17 import ckp17_threshold
    from repro.lowerbounds.disjointness import disj, random_instance

    k = int(cell.param("k", 2))
    x, y = random_instance(k, seed=cell.seed)
    fam = build_family(family, x, y, k)
    if family == "ckp17":
        value = len(minimum_vertex_cover(fam.graph))
        tight = value == ckp17_threshold(k)
    elif family == "bcd19":
        value = len(minimum_dominating_set(fam.graph))
        tight = value <= bcd19_threshold(k)
    else:
        sq = square(fam.graph)
        if family == "gap-weighted":
            weights = fam.extra["weights"]
            ds = minimum_weighted_dominating_set(sq, weights)
            value = sum(weights[v] for v in ds)
        else:
            value = len(minimum_dominating_set(sq))
        tight = value <= fam.threshold
    expected = not disj(fam.x, fam.y)
    return {
        "value": value,
        "threshold": fam.threshold,
        "intersecting": expected,
        "ok": tight == expected,
    }


for _family in FAMILIES:
    def _make(family: str) -> TaskFn:
        def _task(cell: Cell) -> dict[str, Any]:
            return _verify_family(cell, family)

        _task.__doc__ = f"Exact verification of one {family} instance."
        return _task

    _REGISTRY[f"verify-{_family}"] = _make(_family)


# -- self-test tasks (failure / timeout plumbing) -------------------------


@register_task("selftest-ok")
def _selftest_ok(cell: Cell) -> dict[str, Any]:
    """Trivial succeeding task; exercises runner plumbing in tests."""
    return {"n": cell.n, "seed": cell.seed, "signature": f"ok-{cell.n}"}


@register_task("selftest-fail")
def _selftest_fail(cell: Cell) -> dict[str, Any]:
    """Always raises; exercises worker-failure capture."""
    raise RuntimeError(f"selftest-fail cell n={cell.n} seed={cell.seed}")


@register_task("selftest-sleep")
def _selftest_sleep(cell: Cell) -> dict[str, Any]:
    """Sleeps ``params['sleep']`` seconds; exercises timeout capture."""
    time.sleep(float(cell.param("sleep", 1.0)))  # repro: allow[DET002] selftest task exists to exercise timeout capture
    return {"slept": float(cell.param("sleep", 1.0))}


@register_task("selftest-kill")
def _selftest_kill(cell: Cell) -> dict[str, Any]:
    """SIGKILLs its own process — simulates an OOM-killed pool worker.

    The runner must record a per-cell error (``BrokenProcessPool``) rather
    than hang waiting for a result that will never arrive.  Never run this
    serially: in-process it kills the caller, which is the simulated
    disaster, not a test harness.
    """
    os.kill(os.getpid(), signal.SIGKILL)
    raise AssertionError("unreachable")  # pragma: no cover

