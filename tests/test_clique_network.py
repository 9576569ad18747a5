"""Engine parity and batched-outbox coverage on the CONGESTED CLIQUE.

``CongestedCliqueNetwork`` is a one-method ``_can_send`` override, which
is exactly why it needs dedicated coverage: the round kernel's batch
fast path validates untrusted targets through that override, while
trusted broadcasts still skip validation.  These tests pin v1 / v2 to
identical results off the base network.
"""

from __future__ import annotations

import pytest

from repro.congest.algorithm import NodeAlgorithm
from repro.congest.clique import CongestedCliqueNetwork
from repro.congest.errors import CongestionError, ProtocolError
from repro.graphs.generators import gnp_graph, path_graph

ENGINES = ("v1", "v2")


class AllToAllDict(NodeAlgorithm):
    """Every node sends its id to every other node via a dict outbox."""

    def on_start(self):
        return {
            target: (self.node.id,)
            for target in range(self.node.n)
            if target != self.node.id
        }

    def on_round(self, inbox):
        self.finish(sorted(msg[0] for msg in inbox.values()))
        return None


class AllToAllBatch(AllToAllDict):
    """Same protocol through an untrusted ``send_many`` batch."""

    def on_start(self):
        return self.send_many(
            (t for t in range(self.node.n) if t != self.node.id),
            (self.node.id,),
        )


class NeighborhoodBroadcast(NodeAlgorithm):
    """Trusted ``broadcast`` stays scoped to input-graph neighbors."""

    def on_start(self):
        return self.broadcast((7, self.node.id))

    def on_round(self, inbox):
        self.finish(sorted(inbox))
        return None


class BadTarget(NodeAlgorithm):
    def __init__(self, node, target):
        super().__init__(node)
        self.target = target

    def on_start(self):
        if self.node.id == 0:
            return {self.target: 1}
        return None

    def on_round(self, inbox):
        self.finish(None)
        return None


class Oversized(NodeAlgorithm):
    def on_start(self):
        if self.node.id == 0:
            return self.send_many(
                [self.node.n - 1], tuple(range(64))
            )
        return None

    def on_round(self, inbox):
        self.finish(None)
        return None


def _run(engine, factory, n=10, seed=3, **net_kwargs):
    net = CongestedCliqueNetwork(
        gnp_graph(n, 0.3, seed=seed), seed=seed, engine=engine, **net_kwargs
    )
    return net.run(factory, trace=True)


class TestEngineParity:
    @pytest.mark.parametrize("factory", [AllToAllDict, AllToAllBatch])
    def test_all_to_all_identical_across_engines(self, factory):
        reference = _run("v1", factory)
        for engine in ENGINES[1:]:
            got = _run(engine, factory)
            assert got.outputs == reference.outputs
            assert got.by_id == reference.by_id
            assert got.stats == reference.stats
            assert got.trace == reference.trace
        # every node heard from everyone: the clique really is complete.
        assert all(
            out == sorted(set(range(10)) - {node})
            for node, out in reference.by_id.items()
        )

    def test_batch_and_dict_forms_meter_identically(self):
        batch = _run("v2", AllToAllBatch)
        plain = _run("v2", AllToAllDict)
        assert batch.stats == plain.stats
        assert batch.outputs == plain.outputs

    def test_trusted_broadcast_is_graph_scoped(self):
        # On the clique a *broadcast* still goes to input-graph neighbors
        # only (NodeView.neighbors documents this); all engines agree.
        reference = _run("v1", NeighborhoodBroadcast)
        for engine in ENGINES[1:]:
            got = _run(engine, NeighborhoodBroadcast)
            assert got.outputs == reference.outputs
            assert got.stats == reference.stats
        graph = gnp_graph(10, 0.3, seed=3)
        assert reference.stats.messages == 2 * graph.number_of_edges()


class TestErrorParity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_self_address_rejected(self, engine):
        with pytest.raises(ProtocolError, match="addressed itself"):
            _run(engine, lambda v: BadTarget(v, 0))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_out_of_range_rejected(self, engine):
        with pytest.raises(ProtocolError, match="invalid target"):
            _run(engine, lambda v: BadTarget(v, 99))

    def test_error_messages_identical_across_engines(self):
        messages = set()
        for engine in ENGINES:
            with pytest.raises(ProtocolError) as info:
                _run(engine, lambda v: BadTarget(v, -1))
            messages.add(str(info.value))
        assert len(messages) == 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_oversized_batch_raises_congestion(self, engine):
        with pytest.raises(CongestionError) as info:
            _run(engine, Oversized)
        assert "words" in str(info.value)

    def test_oversized_congestion_messages_identical(self):
        messages = {
            str(
                pytest.raises(CongestionError, _run, engine, Oversized).value
            )
            for engine in ENGINES
        }
        assert len(messages) == 1


class TestNonNeighborTraffic:
    """The clique-defining behavior: distance is no obstacle."""

    class EndpointSwap(NodeAlgorithm):
        def on_start(self):
            n = self.node.n
            if self.node.id in (0, n - 1):
                return {n - 1 - self.node.id: (9, self.node.id)}
            return None

        def on_round(self, inbox):
            self.finish(dict(inbox))
            return None

    def test_path_endpoints_talk_directly(self):
        # On a path the endpoints are n-1 hops apart; on the clique they
        # exchange messages in one round, on every engine.
        reference = None
        for engine in ENGINES:
            net = CongestedCliqueNetwork(
                path_graph(8), seed=0, engine=engine
            )
            result = net.run(self.EndpointSwap)
            assert result.by_id[0] == {7: (9, 7)}
            assert result.by_id[7] == {0: (9, 0)}
            if reference is None:
                reference = result.stats
            else:
                assert result.stats == reference

    def test_non_neighbor_traffic_is_a_protocol_error_off_the_clique(self):
        from repro.congest.network import CongestNetwork

        net = CongestNetwork(path_graph(8), seed=0)
        with pytest.raises(ProtocolError, match="not adjacent"):
            net.run(self.EndpointSwap)
