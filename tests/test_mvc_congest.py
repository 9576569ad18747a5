"""Tests for Algorithm 1 (Theorem 1): (1+eps)-approximate G^2-MVC."""

from __future__ import annotations

import math

import networkx as nx
import pytest

from repro.congest.network import CongestNetwork
from repro.core.mvc_congest import (
    approx_mvc_square,
    normalized_epsilon,
    residual_graph_from_tokens,
)
from repro.core.mvc_clique import (
    approx_mvc_square_clique_deterministic,
    approx_mvc_square_clique_randomized,
)
from repro.core.mwvc_congest import approx_mwvc_square
from repro.exact.vertex_cover import minimum_vertex_cover
from repro.graphs.generators import gnp_graph, random_tree
from repro.graphs.power import induced_square_subgraph, square
from repro.graphs.validation import is_vertex_cover


class TestEpsilonNormalization:
    def test_integer_reciprocal_kept(self):
        assert normalized_epsilon(0.5) == (2, 0.5)
        assert normalized_epsilon(0.25) == (4, 0.25)

    def test_rounded_down(self):
        l, eps = normalized_epsilon(0.3)
        assert l == 4
        assert eps == 0.25

    @pytest.mark.parametrize("epsilon", [0, -1, math.nan])
    def test_rejects_nonpositive(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            normalized_epsilon(epsilon)

    @pytest.mark.parametrize("epsilon", [0, -1, math.nan])
    @pytest.mark.parametrize(
        "solve",
        [
            approx_mvc_square,
            approx_mwvc_square,
            approx_mvc_square_clique_deterministic,
            approx_mvc_square_clique_randomized,
        ],
    )
    def test_cover_drivers_reject(self, solve, epsilon):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            solve(nx.path_graph(8), epsilon)


class TestFeasibility:
    @pytest.mark.parametrize("seed", range(5))
    def test_cover_is_feasible(self, seed):
        g = gnp_graph(18, 0.2, seed=seed)
        result = approx_mvc_square(g, 0.5, seed=seed)
        assert is_vertex_cover(square(g), result.cover)

    def test_cover_on_workloads(self, workload):
        result = approx_mvc_square(workload, 0.5)
        assert is_vertex_cover(square(workload), result.cover)

    def test_tree_cover(self):
        g = random_tree(25, seed=2)
        result = approx_mvc_square(g, 0.34)
        assert is_vertex_cover(square(g), result.cover)

    def test_single_node(self):
        g = nx.Graph()
        g.add_node(0)
        result = approx_mvc_square(g, 0.5)
        assert result.cover == set()

    def test_single_edge(self):
        result = approx_mvc_square(nx.path_graph(2), 0.5)
        assert is_vertex_cover(square(nx.path_graph(2)), result.cover)

    def test_disconnected_rejected(self):
        g = nx.Graph()
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        with pytest.raises(ValueError, match="connected"):
            approx_mvc_square(g, 0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            approx_mvc_square(nx.Graph(), 0.5)


class TestApproximationFactor:
    @pytest.mark.parametrize("eps", [1.0, 0.5, 0.34, 0.25])
    @pytest.mark.parametrize("seed", range(3))
    def test_factor_bound(self, eps, seed):
        g = gnp_graph(16, 0.22, seed=seed)
        sq = square(g)
        opt = len(minimum_vertex_cover(sq))
        result = approx_mvc_square(g, eps, seed=seed)
        assert len(result.cover) <= (1 + eps) * opt + 1e-9

    def test_trivial_mode_for_large_epsilon(self):
        g = gnp_graph(12, 0.3, seed=1)
        result = approx_mvc_square(g, 5.0)
        assert result.cover == set(g.nodes)
        assert result.stats.rounds == 0
        # All-vertices is a 2-approximation (Lemma 6), within 1 + eps.
        opt = len(minimum_vertex_cover(square(g)))
        assert len(result.cover) <= 2 * opt


class TestRoundComplexity:
    def test_rounds_scale_linearly(self):
        counts = {}
        for n in (20, 40, 80):
            g = nx.path_graph(n)
            result = approx_mvc_square(g, 0.5)
            counts[n] = result.stats.rounds
        # O(n / eps): doubling n should not much more than double rounds.
        assert counts[40] <= 3 * counts[20] + 10
        assert counts[80] <= 3 * counts[40] + 10

    def test_rounds_within_budget(self):
        g = gnp_graph(30, 0.15, seed=4)
        for eps in (0.5, 0.25):
            result = approx_mvc_square(g, eps)
            # Generous constant: phase I (4 iters) + pipeline + broadcast.
            assert result.stats.rounds <= 40 * 30 / eps

    def test_messages_are_word_limited(self):
        g = gnp_graph(20, 0.25, seed=6)
        net = CongestNetwork(g, word_limit=8, strict=True)
        approx_mvc_square(g, 0.5, network=net)  # raises on violation


class TestPhaseStructure:
    def test_phase_one_vertices_disjoint_from_residual(self):
        g = gnp_graph(22, 0.3, seed=8)
        result = approx_mvc_square(g, 0.5, seed=8)
        s = result.detail["phase_one_cover"]
        u = result.detail["residual_vertices"]
        assert not s & u
        assert s | u == set(g.nodes)

    def test_residual_degree_bound(self):
        # After Phase I every vertex has at most 1/eps neighbors in U.
        g = gnp_graph(24, 0.35, seed=9)
        result = approx_mvc_square(g, 0.5, seed=9)
        u = result.detail["residual_vertices"]
        l = result.detail["threshold"]
        for v in g.nodes:
            assert sum(1 for w in g.neighbors(v) if w in u) <= l

    def test_leader_solution_within_residual(self):
        g = gnp_graph(20, 0.25, seed=10)
        result = approx_mvc_square(g, 0.5, seed=10)
        assert result.detail["leader_solution"] <= result.detail[
            "residual_vertices"
        ]

    def test_custom_local_solver_used(self):
        calls = []

        def recording_solver(residual, red):
            calls.append(residual.number_of_nodes())
            return minimum_vertex_cover(residual)

        g = gnp_graph(15, 0.25, seed=11)
        result = approx_mvc_square(g, 0.5, local_solver=recording_solver)
        assert calls, "local solver must be invoked"
        assert is_vertex_cover(square(g), result.cover)

    def test_foreign_local_solution_rejected(self):
        def bad_solver(residual, red):
            return {("not", "a", "vertex")}

        g = gnp_graph(10, 0.3, seed=12)
        with pytest.raises(ValueError, match="foreign"):
            approx_mvc_square(g, 0.5, local_solver=bad_solver)


class TestLemma3Reconstruction:
    """The leader's H = G^2[U] reconstruction from F tokens alone."""

    @pytest.mark.parametrize("seed", range(4))
    def test_residual_matches_direct_square(self, seed):
        g = gnp_graph(18, 0.25, seed=seed)
        net = CongestNetwork(g, seed=seed)
        result = approx_mvc_square(g, 0.5, network=net, seed=seed)
        u_labels = result.detail["residual_vertices"]
        direct = induced_square_subgraph(g, u_labels)
        expected = {
            frozenset((net.id_of(a), net.id_of(b))) for a, b in direct.edges
        }
        # Rebuild from the same tokens the leader saw.
        tokens = []
        u_ids = {net.id_of(v) for v in u_labels}
        for v in g.nodes:
            vid = net.id_of(v)
            for w in g.neighbors(v):
                wid = net.id_of(w)
                if wid in u_ids:
                    tokens.append((vid, wid))
            if vid in u_ids:
                tokens.append((vid, vid))
        rebuilt = residual_graph_from_tokens(tokens)
        assert set(rebuilt.nodes) == u_ids
        assert {frozenset(e) for e in rebuilt.edges} == expected

    def test_empty_tokens(self):
        rebuilt = residual_graph_from_tokens([])
        assert rebuilt.number_of_nodes() == 0


class TestDeterminism:
    def test_same_seed_same_cover(self):
        g = gnp_graph(16, 0.25, seed=13)
        a = approx_mvc_square(g, 0.5, seed=1)
        b = approx_mvc_square(g, 0.5, seed=1)
        assert a.cover == b.cover
        assert a.stats.rounds == b.stats.rounds
