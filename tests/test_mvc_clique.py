"""Tests for the CONGESTED CLIQUE algorithms (Corollary 10, Theorem 11)."""

from __future__ import annotations

import math

import networkx as nx
import pytest

from repro.congest.clique import CongestedCliqueNetwork
from repro.core.mvc_clique import (
    approx_mvc_square_clique_deterministic,
    approx_mvc_square_clique_randomized,
)
from repro.exact.vertex_cover import minimum_vertex_cover
from repro.graphs.generators import gnp_graph
from repro.graphs.power import square
from repro.graphs.validation import is_vertex_cover


class TestDeterministicClique:
    @pytest.mark.parametrize("seed", range(4))
    def test_feasible_and_bounded(self, seed):
        g = gnp_graph(16, 0.25, seed=seed)
        sq = square(g)
        opt = len(minimum_vertex_cover(sq))
        result = approx_mvc_square_clique_deterministic(g, 0.5, seed=seed)
        assert is_vertex_cover(sq, result.cover)
        assert len(result.cover) <= 1.5 * opt + 1e-9

    def test_upcast_faster_than_congest_pipeline(self):
        # Lemma 9: direct upcast takes O(1/eps) rounds, not O(n/eps).
        g = nx.path_graph(40)
        result = approx_mvc_square_clique_deterministic(g, 0.5)
        assert result.detail["upcast_rounds"] <= 10

    def test_trivial_mode(self):
        g = gnp_graph(10, 0.3, seed=2)
        result = approx_mvc_square_clique_deterministic(g, 3.0)
        assert result.cover == set(g.nodes)

    def test_rejects_disconnected_input_graph(self):
        g = nx.Graph()
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        with pytest.raises(ValueError):
            approx_mvc_square_clique_deterministic(g, 0.5)


class TestRandomizedClique:
    @pytest.mark.parametrize("seed", range(4))
    def test_feasible_and_bounded(self, seed):
        g = gnp_graph(16, 0.25, seed=seed + 20)
        sq = square(g)
        opt = len(minimum_vertex_cover(sq))
        result = approx_mvc_square_clique_randomized(g, 0.5, seed=seed)
        assert is_vertex_cover(sq, result.cover)
        assert len(result.cover) <= 1.5 * opt + 1e-9

    def test_phase_budget_logarithmic(self):
        g = gnp_graph(32, 0.2, seed=5)
        result = approx_mvc_square_clique_randomized(g, 0.5, seed=5)
        # Rounds are O(phases) + O(1/eps); phases are O(log n) w.h.p.
        budget = result.detail["phases"]
        assert budget <= 12 * math.log2(32) + 20
        assert result.stats.rounds <= 4 * budget + 40

    @pytest.mark.parametrize("factor", [math.nan, -10, math.inf])
    def test_rejects_invalid_phase_budget_factor(self, factor):
        # NaN used to fail in int(); -10 ran a negative phase budget.
        g = gnp_graph(12, 0.3, seed=7)
        with pytest.raises(ValueError, match=f"got {factor!r}"):
            approx_mvc_square_clique_randomized(
                g, 0.5, seed=7, phase_budget_factor=factor
            )

    def test_no_leftover_candidates(self):
        g = gnp_graph(24, 0.3, seed=6)
        result = approx_mvc_square_clique_randomized(g, 0.5, seed=6)
        assert result.detail["attempts"] >= 1

    def test_threshold_recorded(self):
        g = gnp_graph(12, 0.3, seed=7)
        result = approx_mvc_square_clique_randomized(g, 0.25, seed=7)
        assert result.detail["threshold"] == 8 / 0.25 + 2

    def test_dense_graph(self):
        g = gnp_graph(20, 0.6, seed=8)
        sq = square(g)
        result = approx_mvc_square_clique_randomized(g, 0.5, seed=8)
        assert is_vertex_cover(sq, result.cover)


class TestCliqueNetworkSemantics:
    def test_custom_network_reused(self):
        g = gnp_graph(12, 0.3, seed=9)
        net = CongestedCliqueNetwork(g, seed=9)
        result = approx_mvc_square_clique_deterministic(g, 0.5, network=net)
        assert is_vertex_cover(square(g), result.cover)

    def test_rounds_much_smaller_than_congest_for_star_like(self):
        # CONGEST needs Theta(n) to ship F through the tree; the clique
        # exits Phase I at quiescence and scatters verdicts in one round.
        g = gnp_graph(48, 0.15, seed=10)
        clique = approx_mvc_square_clique_randomized(g, 0.5, seed=10)
        assert clique.stats.rounds < 48 * 2

    def test_early_exit_beats_phase_budget(self):
        g = gnp_graph(64, 0.15, seed=11)
        result = approx_mvc_square_clique_randomized(g, 0.5, seed=11)
        # The budget is ~6 log n + 8 phases of 4 rounds; quiescence
        # detection should finish far earlier on easy instances.
        budget_rounds = 4 * result.detail["phases"]
        assert result.stats.rounds < budget_rounds
