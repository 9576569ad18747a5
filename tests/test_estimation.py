"""Tests for Lemma 29: exponential-minimum 2-hop size estimation."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.congest.network import CongestNetwork
from repro.core.estimation import (
    default_samples,
    estimate_neighborhood_sizes,
    EstimationStage,
)
from repro.core.mds_congest import approx_mds_square
from repro.graphs.generators import gnp_graph
from repro.graphs.power import two_hop_neighbors


def _true_counts(graph, members):
    member_set = set(members)
    counts = {}
    for v in graph.nodes:
        closed = two_hop_neighbors(graph, v) | {v}
        counts[v] = len(closed & member_set)
    return counts


class TestEstimator:
    def test_zero_when_no_members(self):
        g = gnp_graph(12, 0.3, seed=1)
        net = CongestNetwork(g, seed=1)
        estimates, _ = estimate_neighborhood_sizes(net, members=[], samples=8)
        assert all(value == 0.0 for value in estimates.values())

    def test_exactly_one_member(self):
        g = nx.path_graph(7)
        net = CongestNetwork(g, seed=2)
        estimates, _ = estimate_neighborhood_sizes(net, members=[3], samples=64)
        # Node 3's closed 2-hop neighborhood contains the single member.
        assert estimates[3] > 0
        # Node 0 is three hops away: must see nothing.
        assert estimates[0] == 0.0

    def test_rounds_are_two_per_sample(self):
        g = gnp_graph(10, 0.3, seed=3)
        net = CongestNetwork(g, seed=3)
        _, result = estimate_neighborhood_sizes(
            net, members=list(g.nodes), samples=16
        )
        assert result.stats.rounds == 32

    @pytest.mark.parametrize("seed", range(3))
    def test_concentration_full_membership(self, seed):
        g = gnp_graph(24, 0.2, seed=seed)
        net = CongestNetwork(g, seed=seed)
        samples = 600  # heavy sampling => tight concentration
        estimates, _ = estimate_neighborhood_sizes(
            net, members=list(g.nodes), samples=samples
        )
        truth = _true_counts(g, g.nodes)
        for v in g.nodes:
            assert estimates[v] == pytest.approx(truth[v], rel=0.35)

    def test_concentration_partial_membership(self):
        g = gnp_graph(20, 0.25, seed=9)
        members = [v for v in g.nodes if v % 3 == 0]
        net = CongestNetwork(g, seed=9)
        estimates, _ = estimate_neighborhood_sizes(net, members, samples=600)
        truth = _true_counts(g, members)
        for v in g.nodes:
            if truth[v] == 0:
                assert estimates[v] == 0.0
            else:
                assert estimates[v] == pytest.approx(truth[v], rel=0.4)

    def test_unbiasedness_improves_with_samples(self):
        g = gnp_graph(16, 0.3, seed=11)
        truth = _true_counts(g, g.nodes)

        def mean_abs_rel_error(samples, seed):
            net = CongestNetwork(g, seed=seed)
            estimates, _ = estimate_neighborhood_sizes(
                net, members=list(g.nodes), samples=samples
            )
            errs = [
                abs(estimates[v] - truth[v]) / truth[v]
                for v in g.nodes
                if truth[v] > 0
            ]
            return sum(errs) / len(errs)

        coarse = mean_abs_rel_error(12, seed=0)
        fine = mean_abs_rel_error(480, seed=0)
        assert fine < coarse

    def test_default_samples_logarithmic(self):
        assert default_samples(2) >= 4
        assert default_samples(1024) == 8 * 10

    @pytest.mark.parametrize("samples", [0, 2.5, True])
    def test_rejects_zero_samples(self, samples):
        g = nx.path_graph(3)
        net = CongestNetwork(g)
        net.reset_state()
        with pytest.raises(ValueError, match=f"got {samples!r}"):
            net.run(lambda view: EstimationStage(view, samples=samples))

    def test_mds_rejects_fractional_samples(self):
        # 2.5 would run 3 samples and divide by 2.5, biasing every estimate.
        with pytest.raises(ValueError, match="samples must be a positive"):
            approx_mds_square(nx.path_graph(8), samples=2.5)
