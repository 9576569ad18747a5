"""One solve path for the G^2 problems: the model table, its rules, the run.

MVC runs Algorithm 1 on CONGEST (Theorem 1), on the congested clique
(Theorems 24 and 11) and centrally (the 5/3 algorithm, Theorem 12); MDS
runs Theorem 28 on CONGEST; both CONGEST algorithms also compile onto
low-space MPC.  :func:`check` holds the one copy of each rule about which
settings a model takes, and :func:`solve` is the one run: the CLI's
``mvc``/``mds`` commands print its payload and the sweep's solver tasks
record it, so both reject the same settings with the same ``ValueError``
text.  A rule's message names a setting by its CLI flag.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from dataclasses import asdict
from functools import partial
from typing import Any

import networkx as nx

from repro.congest.network import CongestNetwork, RunStats
from repro.core.mds_congest import approx_mds_square
from repro.core.mvc_centralized import five_thirds_mvc_square
from repro.core.mvc_clique import (
    approx_mvc_square_clique_deterministic,
    approx_mvc_square_clique_randomized,
)
from repro.core.mvc_congest import approx_mvc_square, normalized_epsilon
from repro.exact.dominating_set import minimum_dominating_set
from repro.exact.vertex_cover import minimum_vertex_cover
from repro.graphs.power import square
from repro.graphs.validation import assert_dominating_set, assert_vertex_cover
from repro.mpc.machine import check_alpha
from repro.mpc.options import RunOptions

#: The models each problem runs on.
MODELS: dict[str, tuple[str, ...]] = {
    "mvc": ("congest", "clique-det", "clique-rand", "centralized", "mpc"),
    "mds": ("congest", "mpc"),
}

#: Models with the round streams a metrics collector or a tracer observes.
OBSERVED_MODELS = frozenset({"congest", "mpc"})

DEFAULT_EPS = 0.5
DEFAULT_ALPHA = 0.8

#: The mpc-only settings: ``(name, value when unset, flag, what it does)``.
_MPC_SETTINGS = (
    ("alpha", None, "--alpha", "sets the per-machine memory exponent"),
    ("compress", 1, "--compress", "batches CONGEST rounds per MPC shuffle"),
    ("workers", None, "--mpc-workers",
     "shards MPC machines over worker processes"),
    ("faults", None, "--faults",
     "injects memory-pressure faults into the MPC shuffles"),
    ("parity", False, "parity", "runs an engine-v2 shadow of the MPC run"),
)

_CLIQUE_SOLVERS = {
    "clique-det": approx_mvc_square_clique_deterministic,
    "clique-rand": approx_mvc_square_clique_randomized,
}

#: Per problem: the ``G^2`` verifier and the exact optimum.
_ORACLES = {
    "mvc": (assert_vertex_cover, minimum_vertex_cover),
    "mds": (assert_dominating_set, minimum_dominating_set),
}


def stats_to_json(stats: RunStats) -> dict[str, int]:
    return asdict(stats)


def signature_of(items: Iterable[Any]) -> str:
    """Order-independent digest of a solution set."""
    canon = ",".join(sorted(repr(x) for x in items))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def check(
    problem: str,
    model: str,
    *,
    seed: int = 0,
    eps: float | None = None,
    engine: str | None = None,
    alpha: float | None = None,
    compress: int | str = 1,
    workers: int | None = None,
    faults: Any = None,
    parity: bool = False,
    metrics: str | None = None,
    tracer: Any = None,
) -> RunOptions | None:
    """Check :func:`solve`'s settings; the MPC ``RunOptions`` or ``None``.

    Raises ``ValueError`` on the first broken rule: ``eps`` is MVC's; the
    mpc and centralized models take no ``engine``; a collector or tracer
    needs the congest or mpc model; ``alpha``, ``compress``, ``workers``,
    ``faults`` and ``parity`` are mpc settings.
    """
    if model not in MODELS.get(problem, ()):
        raise ValueError(
            f"no model {model!r} for problem {problem!r}; the models are "
            f"{MODELS}"
        )
    if eps is not None:
        if problem != "mvc":
            raise ValueError(
                f"epsilon is MVC's approximation parameter; {problem} "
                f"takes none"
            )
        normalized_epsilon(eps)
    if engine is not None and model == "mpc":
        raise ValueError(
            "--engine selects a CONGEST engine; the mpc model has its own "
            "runtime (tune --alpha instead)"
        )
    if engine is not None and model == "centralized":
        raise ValueError(
            "--engine applies only to distributed models "
            "(congest, clique-det, clique-rand)"
        )
    if model not in OBSERVED_MODELS and metrics is not None:
        raise ValueError(
            "--metrics attaches to the CONGEST/MPC instrumentation streams; "
            "it requires --model congest or --model mpc"
        )
    if model not in OBSERVED_MODELS and tracer is not None:
        raise ValueError(
            "--trace records the CONGEST/MPC execution timeline; it "
            "requires --model congest or --model mpc"
        )
    if model != "mpc":
        given = {"alpha": alpha, "compress": compress, "workers": workers,
                 "faults": faults, "parity": parity}
        for name, unset, flag, what in _MPC_SETTINGS:
            if given[name] != unset:
                raise ValueError(f"{flag} {what}; it requires --model mpc")
        return None
    check_alpha(DEFAULT_ALPHA if alpha is None else alpha)
    return RunOptions(compress, workers, faults, seed=seed)


def solve(
    problem: str,
    model: str,
    graph: nx.Graph,
    *,
    seed: int = 0,
    eps: float | None = None,
    engine: str | None = None,
    alpha: float | None = None,
    compress: int | str = 1,
    workers: int | None = None,
    faults: Any = None,
    parity: bool = False,
    metrics: str | None = None,
    tracer: Any = None,
    exact: bool = False,
) -> dict[str, Any]:
    """Solve ``problem`` on ``square(graph)`` in ``model``; its payload.

    Runs :func:`check` first.  ``metrics`` labels a collector whose
    document rides under ``metrics``; ``tracer`` records the run.  The
    solution is verified against ``square(graph)``.  The payload holds
    ``cover_size``, the MDS ``phases``, ``stats`` (none on the centralized
    model), the solution's ``signature``, the MPC ledger under ``mpc`` and,
    with ``exact``, the optimum ``opt`` and the ``ratio``.
    """
    check(
        problem, model, seed=seed, eps=eps, engine=engine, alpha=alpha,
        compress=compress, workers=workers, faults=faults, parity=parity,
        metrics=metrics, tracer=tracer,
    )
    eps = DEFAULT_EPS if eps is None else eps
    collector = None
    if metrics is not None:
        from repro.metrics import MetricsCollector

        collector = MetricsCollector(label=metrics)
    result = mpc = None
    if model == "mpc":
        from repro.mpc.compile_congest import solve_mds_mpc, solve_mvc_mpc

        run = (partial(solve_mvc_mpc, graph, eps) if problem == "mvc"
               else partial(solve_mds_mpc, graph))
        result, mpc = run(
            alpha=float(DEFAULT_ALPHA if alpha is None else alpha),
            seed=seed, check_parity=parity, compress=compress,
            collector=collector, workers=workers, faults=faults,
            tracer=tracer,
        )
    elif model == "congest":
        network = CongestNetwork(graph, seed=seed, engine=engine)
        if collector is not None:
            collector.attach(network)
        network.tracer = tracer
        result = (approx_mvc_square(graph, eps, network=network)
                  if problem == "mvc"
                  else approx_mds_square(graph, network=network))
    elif model == "centralized":
        cover, _ = five_thirds_mvc_square(graph)
    else:
        result = _CLIQUE_SOLVERS[model](graph, eps, seed=seed, engine=engine)
    if result is not None:
        cover = result.cover
    verify, optimum = _ORACLES[problem]
    sq = square(graph)
    verify(sq, cover)
    payload: dict[str, Any] = {"cover_size": len(cover)}
    if problem == "mds":
        payload["phases"] = result.detail["phases"]
        if model == "congest":
            payload["max_degree"] = max(d for _, d in graph.degree)
    if result is not None:
        payload["stats"] = stats_to_json(result.stats)
    payload["signature"] = signature_of(cover)
    if mpc is not None:
        payload["mpc"] = mpc
    if collector is not None:
        payload["metrics"] = collector.to_json()
    if exact:
        payload["opt"] = opt = len(optimum(sq))
        payload["ratio"] = len(cover) / opt
    return payload
