"""Tests for the CONGEST simulator runtime."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.congest.algorithm import NodeAlgorithm
from repro.congest.clique import CongestedCliqueNetwork
from repro.congest.errors import CongestionError, ProtocolError, RoundLimitError
from repro.congest.network import CongestNetwork, RunStats


class Silent(NodeAlgorithm):
    def on_start(self):
        self.finish("done")
        return None

    def on_round(self, inbox):  # pragma: no cover - never reached
        raise AssertionError


class PingNeighbors(NodeAlgorithm):
    """Broadcast own id once; finish after hearing all neighbors."""

    def on_start(self):
        return self.broadcast((self.node.id,))

    def on_round(self, inbox):
        assert set(inbox) == set(self.node.neighbors)
        for sender, msg in inbox.items():
            assert msg == (sender,)
        self.finish(sorted(inbox))
        return None


class Oversized(NodeAlgorithm):
    def on_start(self):
        return self.broadcast(tuple(range(100)))

    def on_round(self, inbox):
        self.finish(None)
        return None


class WrongTarget(NodeAlgorithm):
    def on_start(self):
        return {self.node.id: (1,)}

    def on_round(self, inbox):  # pragma: no cover
        return None


class NonNeighborTarget(NodeAlgorithm):
    def on_start(self):
        far = (self.node.id + 2) % self.node.n
        return {far: (1,)}

    def on_round(self, inbox):
        self.finish(None)
        return None


class Forever(NodeAlgorithm):
    def on_round(self, inbox):
        return None


class TestBasicRuntime:
    def test_zero_round_algorithm(self):
        net = CongestNetwork(nx.path_graph(4))
        result = net.run(Silent)
        assert result.stats.rounds == 0
        assert all(v == "done" for v in result.outputs.values())

    def test_ping_exchange(self):
        g = nx.cycle_graph(6)
        net = CongestNetwork(g)
        result = net.run(PingNeighbors)
        assert result.stats.rounds == 1
        assert result.stats.messages == 2 * g.number_of_edges()

    def test_outputs_keyed_by_label(self):
        g = nx.Graph()
        g.add_edge("x", "y")
        net = CongestNetwork(g)
        result = net.run(PingNeighbors)
        assert set(result.outputs) == {"x", "y"}

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            CongestNetwork(nx.Graph())

    def test_round_limit(self):
        net = CongestNetwork(nx.path_graph(3))
        with pytest.raises(RoundLimitError):
            net.run(Forever, max_rounds=10)

    def test_inputs_delivered(self):
        class ReadInput(NodeAlgorithm):
            def on_start(self):
                self.finish(self.node.input)
                return None

            def on_round(self, inbox):  # pragma: no cover
                return None

        g = nx.path_graph(3)
        net = CongestNetwork(g)
        result = net.run(ReadInput, inputs={0: "a", 1: "b", 2: "c"})
        assert result.outputs == {0: "a", 1: "b", 2: "c"}

    def test_node_rng_deterministic(self):
        class Draw(NodeAlgorithm):
            def on_start(self):
                self.finish(self.node.rng.random())
                return None

            def on_round(self, inbox):  # pragma: no cover
                return None

        g = nx.path_graph(4)
        first = CongestNetwork(g, seed=7).run(Draw).outputs
        second = CongestNetwork(g, seed=7).run(Draw).outputs
        third = CongestNetwork(g, seed=8).run(Draw).outputs
        assert first == second
        assert first != third


class TestEnforcement:
    def test_congestion_error_on_oversize(self):
        net = CongestNetwork(nx.path_graph(3), word_limit=4, strict=True)
        with pytest.raises(CongestionError):
            net.run(Oversized)

    def test_lenient_mode_meters_anyway(self):
        net = CongestNetwork(nx.path_graph(3), word_limit=4, strict=False)
        result = net.run(Oversized)
        assert result.stats.max_words_per_edge_round > 4

    def test_self_message_rejected(self):
        net = CongestNetwork(nx.path_graph(3))
        with pytest.raises(ProtocolError):
            net.run(WrongTarget)

    def test_non_neighbor_rejected_in_congest(self):
        net = CongestNetwork(nx.path_graph(5))
        with pytest.raises(ProtocolError):
            net.run(NonNeighborTarget)

    def test_non_neighbor_allowed_in_clique(self):
        net = CongestedCliqueNetwork(nx.path_graph(5))
        result = net.run(NonNeighborTarget)
        assert result.stats.messages == 5


class TestMetering:
    def test_bits_accounting(self):
        g = nx.path_graph(2)
        net = CongestNetwork(g)
        result = net.run(PingNeighbors)
        assert result.stats.total_words == 2
        assert result.stats.total_bits == 2 * net.word_bits

    def test_cut_metering(self):
        g = nx.path_graph(4)
        net = CongestNetwork(g, cut=[(1, 2)])
        result = net.run(PingNeighbors)
        # Two directed messages across the single cut edge.
        assert result.stats.cut_words == 2

    def test_stats_addition(self):
        a = RunStats(rounds=2, messages=3, total_words=5, word_bits=4)
        b = RunStats(rounds=1, messages=1, total_words=2, word_bits=4)
        c = a + b
        assert c.rounds == 3
        assert c.messages == 4
        assert c.total_words == 7

    def test_stats_addition_rejects_mismatched_word_bits(self):
        # Summing word counts measured in different word sizes would
        # misreport total_bits; the old behavior silently took the max.
        a = RunStats(total_words=10, word_bits=4)
        b = RunStats(total_words=10, word_bits=6)
        with pytest.raises(ValueError):
            a + b

    def test_stats_addition_normalizes_zero_word_bits(self):
        # A default-constructed accumulator adopts the other side's word
        # size, in either order.
        real = RunStats(rounds=1, total_words=3, word_bits=5)
        assert (RunStats() + real).word_bits == 5
        assert (real + RunStats()).word_bits == 5
        assert (RunStats() + real).total_bits == 15

    def test_empty_stats_are_an_additive_identity(self):
        # Regression: an all-zero stats object must sum into a populated
        # one even when its word_bits disagrees — it carries no words to
        # misreport — adopting the populated side's word size either way.
        real = RunStats(
            rounds=2, messages=3, total_words=5, cut_words=1, word_bits=5
        )
        for empty in (RunStats(), RunStats(word_bits=8)):
            assert real + empty == real
            assert empty + real == real
        summed = sum([real, real], RunStats(word_bits=8))
        assert summed.rounds == 4
        assert summed.word_bits == 5
        assert summed.total_bits == 50


class TestAdjacency:
    def test_star_hub_membership(self):
        # Regression: _can_send used a linear scan over the sorted neighbor
        # tuple, making every hub send O(degree) on a star.  Adjacency is
        # now also kept as a frozenset for O(1) membership; semantics must
        # be unchanged.
        n = 64
        net = CongestNetwork(nx.star_graph(n - 1))
        hub = net.id_of(0)
        leaves = [net.id_of(v) for v in range(1, n)]
        assert all(net._can_send(hub, leaf) for leaf in leaves)
        assert all(net._can_send(leaf, hub) for leaf in leaves)
        assert not net._can_send(leaves[0], leaves[1])
        assert not net._can_send(hub, hub)

    def test_set_adjacency_matches_tuple_adjacency(self):
        net = CongestNetwork(nx.star_graph(40))
        for node_id in net.ids():
            neighbors = net.neighbors_of(node_id)
            assert neighbors == tuple(sorted(neighbors))
            assert isinstance(net._adjacency_sets[node_id], frozenset)
            assert net._adjacency_sets[node_id] == set(neighbors)

    def test_star_ping_exchange_counts(self):
        g = nx.star_graph(49)
        result = CongestNetwork(g).run(PingNeighbors)
        assert result.stats.messages == 2 * g.number_of_edges()


class TestStages:
    def test_state_carries_between_stages(self):
        class WriteStage(NodeAlgorithm):
            def on_start(self):
                self.node.state["mark"] = self.node.id * 10
                self.finish(None)
                return None

            def on_round(self, inbox):  # pragma: no cover
                return None

        class ReadStage(NodeAlgorithm):
            def on_start(self):
                self.finish(self.node.state["mark"])
                return None

            def on_round(self, inbox):  # pragma: no cover
                return None

        g = nx.path_graph(3)
        net = CongestNetwork(g)
        net.run(WriteStage, label="write")
        result = net.run(ReadStage, label="read")
        assert result.outputs == {0: 0, 1: 10, 2: 20}

    def test_stage_rounds_summed(self):
        g = nx.path_graph(3)
        net = CongestNetwork(g)
        total = RunStats(word_bits=net.word_bits)
        for _ in range(2):
            total = total + net.run(PingNeighbors).stats
        assert total.rounds == 2

    def test_id_label_mapping_roundtrip(self):
        g = nx.Graph()
        g.add_edge("alpha", "beta")
        g.add_edge("beta", ("tuple", 3))
        net = CongestNetwork(g)
        for node_id in net.ids():
            assert net.id_of(net.label_of(node_id)) == node_id

    def test_node_rng_built_on_first_use_with_the_seeded_stream(self):
        import random

        class Draw(NodeAlgorithm):
            def on_start(self):
                built = self.node._rng is not None
                self.finish((built, self.node.rng.random(), self.node.rng.random()))
                return None

            def on_round(self, inbox):  # pragma: no cover
                return None

        net = CongestNetwork(nx.path_graph(3), seed=7)
        result = net.run(Draw)
        for node_id, (built, first, second) in result.by_id.items():
            stream = random.Random(f"7/{node_id}")
            assert not built
            assert (first, second) == (stream.random(), stream.random())
