"""Differential tests: engine v1 and engine v2 must be indistinguishable.

Every scenario below runs twice — once on the reference engine and once on
the activity-scheduled engine — and asserts identical ``outputs``,
``RunStats`` and (where traced) per-round ``trace`` timelines.  This is the
correctness contract that lets the faster engine be the default.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.congest.algorithm import NodeAlgorithm
from repro.congest.clique import CongestedCliqueNetwork
from repro.congest.errors import RoundLimitError
from repro.congest.network import CongestNetwork
from repro.congest.primitives import (
    BfsTreeAlgorithm,
    BroadcastAlgorithm,
    ConvergecastAlgorithm,
    broadcast_tokens,
    convergecast_tokens,
)
from repro.core.mds_congest import approx_mds_square
from repro.core.mvc_clique import (
    approx_mvc_square_clique_deterministic,
    approx_mvc_square_clique_randomized,
)
from repro.core.mvc_congest import approx_mvc_square
from repro.core.mwvc_congest import approx_mwvc_square
from repro.graphs.generators import (
    gnp_graph,
    path_graph,
    power_law_graph,
    random_weights,
    star_graph,
)
from repro.mpc.compile_congest import MPCCongestNetwork
from repro.mpc.options import RunOptions

ENGINES = ("v1", "v2")

#: The graph families the harness sweeps; chosen to stress different
#: activity patterns (hub-dominated, pipeline, dense, heavy-tailed).
FAMILIES = {
    "er": lambda n, seed: gnp_graph(n, 0.2, seed=seed),
    "power-law": lambda n, seed: power_law_graph(n, m=2, seed=seed),
    "star": lambda n, seed: star_graph(n),
    "path": lambda n, seed: path_graph(n),
    "complete": lambda n, seed: nx.complete_graph(n),
}


def family_graph(family: str, n: int, seed: int) -> nx.Graph:
    return FAMILIES[family](n, seed)


def assert_same_result(a, b, trace: bool = False) -> None:
    assert a.outputs == b.outputs
    assert a.by_id == b.by_id
    assert a.stats == b.stats
    if trace:
        assert a.trace == b.trace


def run_on_both(graph: nx.Graph, runner, seed: int = 0, clique: bool = False):
    """``runner(network) -> result`` under each engine; returns both."""
    cls = CongestedCliqueNetwork if clique else CongestNetwork
    return [runner(cls(graph, seed=seed, engine=eng)) for eng in ENGINES]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_bfs_trace_parity(family):
    graph = family_graph(family, 17, seed=2)
    v1, v2 = run_on_both(
        graph, lambda net: net.run(lambda v: BfsTreeAlgorithm(v, 0), trace=True)
    )
    assert_same_result(v1, v2, trace=True)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_convergecast_and_broadcast_parity(family):
    graph = family_graph(family, 15, seed=3)
    tokens = {label: [(i, i + 1)] for i, label in enumerate(sorted(graph, key=repr))}

    def gather(net):
        return convergecast_tokens(net, tokens)

    (c1, r1), (c2, r2) = run_on_both(graph, gather, seed=1)
    assert c1 == c2
    assert_same_result(r1, r2)

    def scatter(net):
        return broadcast_tokens(net, [(9, 9), (8, 8), (7, 7)])

    (b1, t1), (b2, t2) = run_on_both(graph, scatter, seed=1)
    assert_same_result(b1, b2)
    assert_same_result(t1, t2)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", (0, 5))
def test_mvc_congest_parity(family, seed):
    graph = family_graph(family, 14, seed=seed)
    v1, v2 = [
        approx_mvc_square(graph, 0.5, seed=seed, engine=eng) for eng in ENGINES
    ]
    assert v1.cover == v2.cover
    assert v1.stats == v2.stats
    assert v1.detail == v2.detail


@pytest.mark.parametrize("family", ("er", "star", "path"))
def test_mwvc_congest_parity(family):
    graph = random_weights(family_graph(family, 13, seed=7), low=1, high=9, seed=7)
    v1, v2 = [
        approx_mwvc_square(graph, 0.5, seed=7, engine=eng) for eng in ENGINES
    ]
    assert v1.cover == v2.cover
    assert v1.stats == v2.stats


@pytest.mark.parametrize("family", ("er", "power-law", "star"))
def test_mds_congest_parity(family):
    graph = family_graph(family, 11, seed=4)
    v1, v2 = [approx_mds_square(graph, seed=4, engine=eng) for eng in ENGINES]
    assert v1.cover == v2.cover
    assert v1.stats == v2.stats
    assert v1.detail == v2.detail


@pytest.mark.parametrize("model", ("det", "rand"))
def test_mvc_clique_parity(model):
    graph = gnp_graph(12, 0.25, seed=9)
    solver = (
        approx_mvc_square_clique_deterministic
        if model == "det"
        else approx_mvc_square_clique_randomized
    )
    v1, v2 = [solver(graph, 0.5, seed=9, engine=eng) for eng in ENGINES]
    assert v1.cover == v2.cover
    assert v1.stats == v2.stats


class _CountdownStage(NodeAlgorithm):
    """Ping neighbors for ``k`` rounds, then record the traffic seen."""

    K = 3

    def __init__(self, node) -> None:
        super().__init__(node)
        self.remaining = self.K
        self.heard = 0

    def on_start(self):
        return self.broadcast((self.node.id,))

    def on_round(self, inbox):
        self.heard += len(inbox)
        self.remaining -= 1
        if self.remaining == 0:
            self.node.state["heard"] = self.heard
            self.finish(self.heard)
            return None
        return self.broadcast((self.node.id, self.remaining))


class _ReadbackStage(NodeAlgorithm):
    """Second pipeline stage: reads state written by the first."""

    def on_start(self):
        self.finish(self.node.state.get("heard"))
        return None

    def on_round(self, inbox):  # pragma: no cover - finishes in on_start
        return None


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_run_stages_pipeline_parity(family):
    graph = family_graph(family, 12, seed=6)

    def pipeline(net):
        return [net.run(stage) for stage in (_CountdownStage, _ReadbackStage)]

    s1, s2 = run_on_both(graph, pipeline, seed=6)
    assert len(s1) == len(s2)
    for a, b in zip(s1, s2):
        assert_same_result(a, b)


class _Forever(NodeAlgorithm):
    def on_round(self, inbox):
        return None


class _SleepForever(NodeAlgorithm):
    """Declares itself purely reactive, then never receives anything."""

    def on_round(self, inbox):  # pragma: no cover - never woken on v2
        return None

    def wants_wake(self):
        return False


@pytest.mark.parametrize("algorithm", (_Forever, _SleepForever))
def test_round_limit_parity(algorithm):
    graph = path_graph(4)
    networks = [CongestNetwork(graph, engine=eng) for eng in ENGINES]
    # Compiled MPC runs the same loop; its limit check fires before a
    # window's shuffle, so no shuffle is metered for the refused round.
    expected_shuffles = {1: 17, 4: 5, "auto": 3}
    mpc = [
        MPCCongestNetwork(
            graph,
            options=RunOptions(compress=compress, workers=workers),
        )
        for compress in expected_shuffles
        for workers in (1, 2)
    ]
    errors = []
    for net in networks + mpc:
        with pytest.raises(RoundLimitError) as excinfo:
            net.run(algorithm, max_rounds=17)
        errors.append(str(excinfo.value))
    assert errors == [errors[0]] * len(errors)
    for net in mpc:
        shuffles = net.runtime.stats.shuffles
        assert shuffles == expected_shuffles[net.options.compress], (
            net.options.workers
        )


def test_engine_env_override(monkeypatch):
    graph = path_graph(3)
    monkeypatch.setenv("REPRO_ENGINE", "v1")
    assert CongestNetwork(graph).engine_name == "v1"
    monkeypatch.setenv("REPRO_ENGINE", "activity")
    with pytest.raises(ValueError):
        CongestNetwork(graph)
    monkeypatch.delenv("REPRO_ENGINE")
    assert CongestNetwork(graph).engine_name == "v2"
    # An explicit constructor choice beats the environment.
    monkeypatch.setenv("REPRO_ENGINE", "v2")
    assert CongestNetwork(graph, engine="v1").engine_name == "v1"


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        CongestNetwork(path_graph(3), engine="v3")


def test_engine_and_network_are_mutually_exclusive():
    graph = path_graph(5)
    net = CongestNetwork(graph)
    with pytest.raises(ValueError):
        approx_mvc_square(graph, 0.5, network=net, engine="v1")
