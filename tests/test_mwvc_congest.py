"""Tests for Theorem 7: weighted (1+eps)-approximate G^2-MWVC."""

from __future__ import annotations

import dataclasses

import networkx as nx
import pytest

from repro.congest.network import BULK_MIN_NODES, CongestNetwork
from repro.core.mvc_congest import approx_mvc_square
from repro.core.mwvc_congest import (
    WeightedPhaseOneAlgorithm,
    approx_mwvc_square,
)
from repro.exact.vertex_cover import minimum_weighted_vertex_cover
from repro.graphs.generators import build_graph, gnp_graph, random_weights
from repro.graphs.power import square
from repro.graphs.validation import cover_weight, is_vertex_cover
from repro.metrics.collector import deterministic_sha256


def _weighted(n: int, p: float, seed: int, high: int = 30) -> nx.Graph:
    return random_weights(gnp_graph(n, p, seed=seed), 1, high, seed=seed)


class TestFeasibility:
    @pytest.mark.parametrize("seed", range(4))
    def test_cover_is_feasible(self, seed):
        g = _weighted(15, 0.25, seed)
        result = approx_mwvc_square(g, 0.5, seed=seed)
        assert is_vertex_cover(square(g), result.cover)

    def test_uniform_weights(self):
        g = gnp_graph(14, 0.25, seed=3)  # all weight 1 by default
        result = approx_mwvc_square(g, 0.5)
        assert is_vertex_cover(square(g), result.cover)

    def test_zero_weights_taken_free(self):
        g = gnp_graph(12, 0.3, seed=5)
        weights = {v: 0 if v % 3 == 0 else 4 for v in g.nodes}
        result = approx_mwvc_square(g, 0.5, weights=weights)
        assert is_vertex_cover(square(g), result.cover)
        zero_vertices = {v for v in g.nodes if weights[v] == 0}
        assert zero_vertices <= result.cover

    def test_rejects_negative_weights(self):
        g = gnp_graph(8, 0.4, seed=1)
        weights = {v: -1 if v == 0 else 2 for v in g.nodes}
        with pytest.raises(ValueError):
            approx_mwvc_square(g, 0.5, weights=weights)

    def test_rejects_fractional_weights(self):
        # int() would truncate every 0.5 to 0 and take the whole path free.
        g = nx.path_graph(8)
        with pytest.raises(ValueError, match="vertex 0"):
            approx_mwvc_square(g, 0.5, weights={v: 0.5 for v in g.nodes})

    def test_rejects_fractional_weight_attribute(self):
        g = nx.path_graph(8)
        nx.set_node_attributes(g, 1, "weight")
        g.nodes[3]["weight"] = 1e-3
        with pytest.raises(ValueError, match="vertex 3"):
            approx_mwvc_square(g, 0.5)

    def test_rejects_string_weights(self):
        g = nx.path_graph(8)
        weights = {v: "3" if v == 5 else 3 for v in g.nodes}
        with pytest.raises(ValueError, match="vertex 5"):
            approx_mwvc_square(g, 0.5, weights=weights)

    def test_rejects_missing_weight(self):
        g = nx.path_graph(8)
        weights = {v: 2 for v in g.nodes if v != 6}
        with pytest.raises(ValueError, match="vertex 6"):
            approx_mwvc_square(g, 0.5, weights=weights)

    def test_rejects_disconnected(self):
        g = nx.Graph()
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        with pytest.raises(ValueError):
            approx_mwvc_square(g, 0.5)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            approx_mwvc_square(nx.path_graph(3), 0)


class TestApproximationFactor:
    @pytest.mark.parametrize("eps", [0.5, 0.34])
    @pytest.mark.parametrize("seed", range(3))
    def test_factor_bound(self, eps, seed):
        g = _weighted(13, 0.25, seed, high=20)
        sq = square(g)
        weights = {v: g.nodes[v]["weight"] for v in g.nodes}
        opt = sum(
            weights[v] for v in minimum_weighted_vertex_cover(sq, weights)
        )
        result = approx_mwvc_square(g, eps, seed=seed)
        got = cover_weight(g, result.cover)
        assert got <= (1 + eps) * opt + 1e-9

    def test_skewed_weights(self):
        # A heavy hub: the algorithm must not pay for it when avoidable.
        g = nx.star_graph(8)
        weights = {v: 1000 if v == 0 else 1 for v in g.nodes}
        result = approx_mwvc_square(g, 0.5, weights=weights)
        sq = square(g)
        assert is_vertex_cover(sq, result.cover)
        w = {v: weights[v] for v in g.nodes}
        opt = sum(w[v] for v in minimum_weighted_vertex_cover(sq, w))
        assert cover_weight(g, result.cover) <= 1.5 * opt

    def test_geometric_weight_classes(self):
        # Weights spanning many doubling classes exercise the N_i split.
        g = gnp_graph(16, 0.3, seed=7)
        weights = {v: 2 ** (v % 8) for v in g.nodes}
        result = approx_mwvc_square(g, 0.5, weights=weights)
        sq = square(g)
        assert is_vertex_cover(sq, result.cover)
        opt = sum(
            weights[v] for v in minimum_weighted_vertex_cover(sq, weights)
        )
        assert cover_weight(g, result.cover) <= 1.5 * opt + 1e-9


class TestStructure:
    def test_detail_partition(self):
        g = _weighted(14, 0.3, seed=9)
        result = approx_mwvc_square(g, 0.5, seed=9)
        s = result.detail["phase_one_cover"]
        u = result.detail["residual_vertices"]
        assert not s & u

    def test_rounds_reasonable(self):
        g = _weighted(20, 0.2, seed=10)
        result = approx_mwvc_square(g, 0.5, seed=10)
        n = g.number_of_nodes()
        assert result.stats.rounds <= 60 * n


class TestPhaseOne:
    def test_zero_iterations_still_weigh_tokens(self):
        # The finalize round alone must learn the neighbors' weights.
        g = nx.path_graph(5)
        network = CongestNetwork(g)
        network.reset_state()
        network.run(
            lambda view: WeightedPhaseOneAlgorithm(view, 0.5, iterations=0),
            inputs={v: 2 + v for v in g},
        )
        assert network.node_state[2]["tokens"] == [
            (2, 1, 3), (2, 3, 5), (2, 2, 4),
        ]


class TestStageLabels:
    def test_labels_match_algorithm_one(self):
        graph = build_graph("gnp", 30, seed=5)
        labels = {}
        for name, solve in [
            ("mwvc", approx_mwvc_square), ("mvc", approx_mvc_square),
        ]:
            events = []
            network = CongestNetwork(graph, seed=7, on_round=events.append)
            solve(graph, 0.5, network=network)
            labels[name] = list(dict.fromkeys(e.stage_label for e in events))
        assert labels["mwvc"] == labels["mvc"] == [
            "phase1", "bfs", "upcast", "broadcast",
        ]


class TestLedgerPin:
    """The whole MWVC ledger, pinned on both engines.

    The digest covers the sorted cover, every ``RunStats`` field and each
    round's engine-independent ``RoundEvent`` fields.  At n = 10 a word
    holds 4 bits, so the message tags' width shows in the ledger.  n = 240
    is above ``BULK_MIN_NODES``, so on engine v2 it also runs the bulk
    tree stages.
    """

    @pytest.mark.parametrize("engine", ["v1", "v2"])
    @pytest.mark.parametrize(
        "n, rounds, messages, expected",
        [
            (10, 49, 612,
             "4d95f1164816d6bbf07858174bf63714"
             "53c6b2e48cf2d058f18f485bb7bd4e23"),
            (30, 126, 6102,
             "e4bc1da465dea2c16e56cdeb6ec63cda"
             "08e0aa2cb073f5147f42cf0ab0ae27da"),
            (60, 198, 23151,
             "dedeb5ca9a25f237c058495acc7cb4e8"
             "7af64ca16b4d58f931d9d38cf099f557"),
            (240, 883, 298120,
             "ce9fc493850356fb32c80735e702eda0"
             "0db6212a8fa56505333e0f3e964ae866"),
        ],
        ids=["n10", "n30", "n60", "n240"],
    )
    def test_ledger_digest(self, engine, n, rounds, messages, expected):
        assert BULK_MIN_NODES <= 240
        graph = build_graph("gnp", n, seed=5)
        events = []
        network = CongestNetwork(
            graph, seed=7, engine=engine, on_round=events.append
        )
        result = approx_mwvc_square(
            graph,
            0.5,
            weights={v: 1 + (7 * v) % 9 for v in graph.nodes},
            network=network,
        )
        assert (result.stats.rounds, result.stats.messages) == (
            rounds, messages,
        )
        ledger = {
            "cover": sorted(result.cover),
            "stats": dataclasses.asdict(result.stats),
            "events": [
                (e.round_index, e.messages, e.words, e.cut_words)
                for e in events
            ],
        }
        assert deterministic_sha256(ledger) == expected
