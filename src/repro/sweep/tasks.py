"""The sweep task registry: named cell evaluators.

Each task is a function ``(cell: Cell) -> dict`` mapping one grid cell to a
JSON-serializable payload.  Payloads must be *deterministic* — a function of
the cell alone, with no wall-clock or machine-dependent values — because the
runner's parity guarantee (serial and parallel evaluation of the same grid
merge byte-identically) rests on it.  Timing lives in the runner's
:class:`~repro.sweep.runner.CellResult`, never in the payload.

Conventions shared by the built-in tasks:

* ``stats`` — the simulator :class:`~repro.congest.network.RunStats` as a
  plain dict (see :func:`stats_to_json`); the runner re-aggregates these
  with ``RunStats.__add__`` per word size.
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

import hashlib
import os
import signal
import time
from collections.abc import Callable, Iterable
from typing import Any

from repro.congest.network import CongestNetwork, RunStats
from repro.lowerbounds import FAMILIES
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


def stats_to_json(stats: RunStats) -> dict[str, int]:
    return {
        "rounds": stats.rounds,
        "messages": stats.messages,
        "total_words": stats.total_words,
        "max_words_per_edge_round": stats.max_words_per_edge_round,
        "cut_words": stats.cut_words,
        "word_bits": stats.word_bits,
    }


def stats_from_json(data: dict[str, int]) -> RunStats:
    return RunStats(**data)


def signature_of(items: Iterable[Any]) -> str:
    """Order-independent digest of a solution set."""
    canon = ",".join(sorted(repr(x) for x in items))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


#: Tasks that honor the ``metrics`` cell param by embedding a
#: :class:`repro.metrics.MetricsCollector` document in their payload.
METRICS_TASKS: frozenset[str] = frozenset(
    {"mvc-congest", "mds-congest", "mpc-mvc", "mpc-mds", "mpc-matching"}
)


#: Cell coordinates that select a backend variant rather than a workload;
#: they must stay out of the metrics label, which sits inside the
#: deterministic section and therefore must be byte-identical across
#: engines, compression windows, worker counts and fault plans on the
#: same workload.  The compiled MPC tasks hand ``compress``,
#: ``mpc_workers`` and ``faults`` to the entry points as they are, which
#: validate them as one :class:`~repro.mpc.options.RunOptions`: a missing
#: ``mpc_workers`` resolves ``REPRO_MPC_WORKERS``, which is how named
#: grids run their compiled cells sharded without changing cell
#: coordinates.  The native matching runs serially and takes no
#: ``mpc_workers``.
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


def _cell_collector(cell: Cell):
    """The cell's metrics collector (``metrics`` param), or ``None``."""
    if not cell.param("metrics"):
        return None
    from repro.metrics import MetricsCollector

    return MetricsCollector(label=_metrics_label(cell))


def _observed_congest(cell: Cell, graph: Any):
    """The cell's CONGEST network, with its collector attached if any.

    The same network the solvers build when handed none, so a cell's
    payload does not depend on whether it collects metrics.
    """
    network = CongestNetwork(graph, seed=cell.seed, engine=cell.engine)
    collector = _cell_collector(cell)
    if collector is not None:
        collector.attach(network)
    return network, collector


def _cell_graph(cell: Cell):
    from repro.graphs.generators import build_graph

    return build_graph(
        cell.graph,
        cell.n,
        seed=cell.param("graph_seed", cell.seed),
        p=cell.param("gnp_p"),
    )


# -- cover / dominating-set solvers ---------------------------------------


def _solution_payload(
    cell: Cell,
    graph: Any,
    problem: str,
    result: Any,
    collector: Any = None,
    mpc: dict[str, Any] | None = None,
    **extra: Any,
) -> dict[str, Any]:
    """Verify a solver's ``G^2`` solution and build the cell's payload.

    ``problem`` is ``"mvc"`` (a vertex cover) or ``"mds"`` (a dominating
    set).  An ``exact`` cell param adds the exact optimum and the ratio; a
    collector adds its metrics document.  An MPC ledger rides under
    ``mpc``.
    """
    from repro.exact.dominating_set import minimum_dominating_set
    from repro.exact.vertex_cover import minimum_vertex_cover
    from repro.graphs.power import square
    from repro.graphs.validation import (
        assert_dominating_set,
        assert_vertex_cover,
    )

    check, optimum = {
        "mvc": (assert_vertex_cover, minimum_vertex_cover),
        "mds": (assert_dominating_set, minimum_dominating_set),
    }[problem]
    sq = square(graph)
    check(sq, result.cover)
    payload: dict[str, Any] = {
        "cover_size": len(result.cover),
        **extra,
        "stats": stats_to_json(result.stats),
        "signature": signature_of(result.cover),
    }
    if mpc is not None:
        payload["mpc"] = mpc
    if collector is not None:
        payload["metrics"] = collector.to_json()
    if cell.param("exact"):
        opt = len(optimum(sq))
        payload["opt"] = opt
        payload["ratio"] = len(result.cover) / opt
    return payload


@register_task("mvc-congest")
def _mvc_congest(cell: Cell) -> dict[str, Any]:
    """Algorithm 1 ((1+eps)-MVC of G^2) on the CONGEST simulator."""
    from repro.core.mvc_congest import approx_mvc_square

    eps = 0.5 if cell.eps is None else cell.eps
    graph = _cell_graph(cell)
    network, collector = _observed_congest(cell, graph)
    result = approx_mvc_square(graph, eps, network=network)
    return _solution_payload(cell, graph, "mvc", result, collector)


@register_task("mvc-clique-det")
def _mvc_clique_det(cell: Cell) -> dict[str, Any]:
    """Deterministic congested-clique MVC (Theorem 24)."""
    from repro.core.mvc_clique import approx_mvc_square_clique_deterministic

    eps = 0.5 if cell.eps is None else cell.eps
    graph = _cell_graph(cell)
    result = approx_mvc_square_clique_deterministic(
        graph, eps, seed=cell.seed, engine=cell.engine
    )
    return _solution_payload(cell, graph, "mvc", result)


@register_task("mds-congest")
def _mds_congest(cell: Cell) -> dict[str, Any]:
    """Theorem 28 (O(log Delta)-MDS of G^2) on the CONGEST simulator."""
    from repro.core.mds_congest import approx_mds_square

    graph = _cell_graph(cell)
    network, collector = _observed_congest(cell, graph)
    result = approx_mds_square(graph, network=network)
    return _solution_payload(
        cell, graph, "mds", result, collector,
        phases=result.detail["phases"],
        max_degree=max(d for _, d in graph.degree),
    )


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


@register_task("mpc-mvc")
def _mpc_mvc(cell: Cell) -> dict[str, Any]:
    """Algorithm 1 compiled onto the MPC backend.

    One shuffle per CONGEST round classically; with a ``compress`` param
    ``> 1`` the compiler batches up to that many rounds behind each
    prefetch shuffle (adaptively, falling back where the frontier exceeds
    the window budget).  With ``params=(("parity", True),)`` the cell also
    runs an engine-v2 shadow and asserts word-for-word metering parity
    (outputs, RunStats, per-round event stream).  The congest-level
    ``stats`` payload is byte-identical to the ``mvc-congest`` task's on
    the same cell coordinates — at every ``compress`` — which is what
    ``bench_mpc.py`` checks.
    """
    from repro.mpc.compile_congest import solve_mvc_mpc

    eps = 0.5 if cell.eps is None else cell.eps
    alpha = float(cell.param("alpha", 0.8))
    graph = _cell_graph(cell)
    collector = _cell_collector(cell)
    result, mpc = solve_mvc_mpc(
        graph,
        eps,
        alpha=alpha,
        seed=cell.seed,
        check_parity=bool(cell.param("parity", False)),
        compress=cell.param("compress", 1),
        collector=collector,
        workers=cell.param("mpc_workers"),
        faults=cell.param("faults"),
    )
    return _solution_payload(cell, graph, "mvc", result, collector, mpc)


@register_task("mpc-mds")
def _mpc_mds(cell: Cell) -> dict[str, Any]:
    """Theorem 28 MDS compiled onto the MPC backend (see ``mpc-mvc``)."""
    from repro.mpc.compile_congest import solve_mds_mpc

    alpha = float(cell.param("alpha", 0.8))
    graph = _cell_graph(cell)
    collector = _cell_collector(cell)
    result, mpc = solve_mds_mpc(
        graph,
        alpha=alpha,
        seed=cell.seed,
        check_parity=bool(cell.param("parity", False)),
        compress=cell.param("compress", 1),
        collector=collector,
        workers=cell.param("mpc_workers"),
        faults=cell.param("faults"),
    )
    return _solution_payload(
        cell, graph, "mds", result, collector, mpc,
        phases=result.detail["phases"],
    )


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
    alpha = float(cell.param("alpha", 0.8))
    graph = _cell_graph(cell)
    collector = _cell_collector(cell)
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

