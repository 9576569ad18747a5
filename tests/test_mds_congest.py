"""Tests for Theorem 28: O(log Delta)-approximate G^2-MDS in CONGEST."""

from __future__ import annotations

import math

import networkx as nx
import pytest

from repro.core.mds_congest import approx_mds_square
from repro.exact.dominating_set import minimum_dominating_set
from repro.graphs.generators import gnp_graph, random_geometric, random_tree
from repro.graphs.power import square
from repro.graphs.validation import is_dominating_set


class TestFeasibility:
    @pytest.mark.parametrize("seed", range(4))
    def test_dominating_random(self, seed):
        g = gnp_graph(16, 0.2, seed=seed)
        result = approx_mds_square(g, seed=seed)
        assert is_dominating_set(square(g), result.cover)

    def test_dominating_tree(self):
        g = random_tree(20, seed=3)
        result = approx_mds_square(g, seed=3)
        assert is_dominating_set(square(g), result.cover)

    def test_dominating_geometric(self):
        g = random_geometric(20, seed=4)
        result = approx_mds_square(g, seed=4)
        assert is_dominating_set(square(g), result.cover)

    def test_star_single_vertex(self):
        g = nx.star_graph(10)
        result = approx_mds_square(g, seed=5)
        assert is_dominating_set(square(g), result.cover)
        # Square of a star is complete: one vertex suffices and the
        # density rule finds it.
        assert len(result.cover) <= 2

    def test_single_node(self):
        g = nx.Graph()
        g.add_node("v")
        result = approx_mds_square(g)
        assert result.cover == {"v"}

    def test_rejects_disconnected(self):
        g = nx.Graph()
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        with pytest.raises(ValueError):
            approx_mds_square(g)


class TestQuality:
    @pytest.mark.parametrize("seed", range(3))
    def test_ratio_logarithmic(self, seed):
        g = gnp_graph(18, 0.2, seed=seed + 10)
        sq = square(g)
        opt = len(minimum_dominating_set(sq))
        result = approx_mds_square(g, seed=seed)
        delta = max(dict(g.degree).values())
        # The paper's guarantee is O(log Delta); assert a generous
        # concrete constant so the test is robust to randomness.
        bound = max(4.0, 8.0 * math.log(delta * delta + 2))
        assert len(result.cover) <= bound * opt

    def test_no_cleanup_needed_normally(self):
        g = gnp_graph(16, 0.25, seed=13)
        result = approx_mds_square(g, seed=13)
        assert result.detail["cleanup"] == set()

    def test_phase_count_polylog(self):
        g = gnp_graph(32, 0.15, seed=14)
        result = approx_mds_square(g, seed=14)
        n = g.number_of_nodes()
        assert result.detail["phases"] <= 10 * (math.log2(n) ** 2) + 20


class TestResourceUsage:
    def test_rounds_polylog_per_phase(self):
        g = gnp_graph(24, 0.2, seed=15)
        result = approx_mds_square(g, seed=15, samples=16)
        phases = result.detail["phases"]
        # Each phase: 2 estimations (2*16 rounds each) + O(1) + O(depth).
        per_phase = result.stats.rounds / phases
        assert per_phase <= 4 * 16 + 2 * g.number_of_nodes()

    def test_respects_word_limit(self):
        # strict=True by default: a congestion violation would raise.
        g = gnp_graph(20, 0.3, seed=16)
        result = approx_mds_square(g, seed=16)
        assert result.stats.max_words_per_edge_round <= 8

    def test_custom_samples(self):
        g = gnp_graph(12, 0.3, seed=17)
        result = approx_mds_square(g, seed=17, samples=8)
        assert result.detail["samples"] == 8
        assert is_dominating_set(square(g), result.cover)

    def test_max_phase_fallback_still_feasible(self):
        g = gnp_graph(14, 0.25, seed=18)
        result = approx_mds_square(g, seed=18, max_phases=1)
        # With one phase the fallback may trigger, but the output must
        # still dominate.
        assert is_dominating_set(square(g), result.cover)

    @pytest.mark.parametrize("max_phases", [0, -1, 2.5, True])
    def test_rejects_invalid_max_phases(self, max_phases):
        # 0 and -1 used to run one phase and force the rest in through
        # the cleanup; 2.5 ran three phases.
        g = gnp_graph(12, 0.3, seed=18)
        with pytest.raises(ValueError, match=f"got {max_phases!r}"):
            approx_mds_square(g, seed=18, max_phases=max_phases)


class TestDeterminism:
    def test_same_seed_same_result(self):
        g = gnp_graph(14, 0.25, seed=19)
        a = approx_mds_square(g, seed=4)
        b = approx_mds_square(g, seed=4)
        assert a.cover == b.cover
        assert a.stats.rounds == b.stats.rounds
