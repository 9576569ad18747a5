"""Differential tests for the batched outbox fast path.

A :class:`~repro.congest.message.BatchOutbox` must be indistinguishable
from its expanded ``{target: payload}`` dictionary on every engine
(``v1``, ``v2``): same outputs, same
``RunStats`` word for word, same traces, and the same exceptions with the
same messages.  These tests pin that contract from every angle the
engines distinguish internally — trusted broadcasts, untrusted
``send_many`` targets, oversize payloads, invalid targets, duplicate
targets, self-loop graphs (rejected before any round), custom metering
subclasses and long untrusted batches.
"""

from __future__ import annotations

from enum import IntEnum
from functools import partial

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.congest.algorithm import NodeAlgorithm
from repro.congest.engine import RoundKernel
from repro.congest.errors import CongestionError, ProtocolError
from repro.congest.message import BatchOutbox, payload_words
from repro.congest.network import CongestNetwork
from repro.congest.scheduler import MailboxRing
from repro.graphs.generators import gnp_graph, path_graph, star_graph
from repro.graphs.instance import NotSimpleGraphError
from repro.mpc.compile_congest import MPCCongestNetwork

ENGINES = ("v1", "v2")


def run_everywhere(graph, factory, seed=0, trace=True, **net_kwargs):
    """Run ``factory`` under every engine configuration; return results."""
    return {
        engine: CongestNetwork(
            graph, seed=seed, engine=engine, **net_kwargs
        ).run(factory, trace=trace)
        for engine in ENGINES
    }


def assert_all_equal(results, trace=True):
    first = next(iter(results.values()))
    for engine, result in results.items():
        assert result.outputs == first.outputs, engine
        assert result.by_id == first.by_id, engine
        assert result.stats == first.stats, engine
        if trace:
            assert result.trace == first.trace, engine


def raise_everywhere(graph, factory, exc_type, seed=0, **net_kwargs):
    """Every engine must raise ``exc_type`` with the identical message."""
    messages = set()
    for engine in ENGINES:
        net = CongestNetwork(graph, seed=seed, engine=engine, **net_kwargs)
        with pytest.raises(exc_type) as excinfo:
            net.run(factory)
        messages.add(str(excinfo.value))
    assert len(messages) == 1, messages
    return messages.pop()


class TestBatchOutboxType:
    def test_broadcast_returns_trusted_batch(self):
        net = CongestNetwork(path_graph(4))

        class Probe(NodeAlgorithm):
            def on_start(self):
                outbox = self.broadcast(("x", 1))
                assert isinstance(outbox, BatchOutbox)
                assert outbox.trusted
                assert outbox.targets == self.node.neighbors
                self.finish(None)
                return outbox

            def on_round(self, inbox):
                self.finish(None)
                return None

        net.run(Probe)

    def test_send_many_is_untrusted_and_ordered(self):
        out = BatchOutbox((3, 1, 2), "p")
        assert not out.trusted
        assert list(out.items()) == [(3, "p"), (1, "p"), (2, "p")]
        assert len(out) == 3 and bool(out)
        assert not BatchOutbox((), "p")

    def test_items_matches_dict_expansion(self):
        out = BatchOutbox((0, 2), (7,))
        assert dict(out.items()) == {0: (7,), 2: (7,)}


class _BatchPing(NodeAlgorithm):
    """Broadcast own id (batched); finish after one round."""

    def on_start(self):
        return self.broadcast((self.node.id, 1))

    def on_round(self, inbox):
        self.finish(sorted(inbox))
        return None


class _DictPing(_BatchPing):
    """Identical protocol, dictionary outbox."""

    def on_start(self):
        return {nbr: (self.node.id, 1) for nbr in self.node.neighbors}


class _SendManyPing(_BatchPing):
    """Identical protocol, untrusted send_many over the same targets."""

    def on_start(self):
        return self.send_many(self.node.neighbors, (self.node.id, 1))


@pytest.mark.parametrize(
    "graph",
    [gnp_graph(15, 0.3, seed=2), star_graph(12), path_graph(9)],
    ids=["er", "star", "path"],
)
def test_batch_and_dict_outboxes_identical_everywhere(graph):
    by_form = {
        form: run_everywhere(graph, algo)
        for form, algo in [
            ("batch", _BatchPing),
            ("dict", _DictPing),
            ("send-many", _SendManyPing),
        ]
    }
    for results in by_form.values():
        assert_all_equal(results)
    # Across forms too: a batch is the dict, byte for byte.
    reference = by_form["batch"]["v1"]
    for form, results in by_form.items():
        for engine, result in results.items():
            assert result.stats == reference.stats, (form, engine)
            assert result.outputs == reference.outputs, (form, engine)
            assert result.trace == reference.trace, (form, engine)


class _OversizeBroadcast(NodeAlgorithm):
    def on_start(self):
        return self.broadcast(tuple(range(100)))

    def on_round(self, inbox):
        # Reached only in lenient mode (strict runs raise at round 0).
        self.finish(None)
        return None


class _SelfTarget(NodeAlgorithm):
    def on_start(self):
        return self.send_many((self.node.id,), (1,))

    def on_round(self, inbox):  # pragma: no cover - run raises first
        return None


class _InvalidTarget(NodeAlgorithm):
    def on_start(self):
        return self.send_many((self.node.n + 5,), (1,))

    def on_round(self, inbox):  # pragma: no cover - run raises first
        return None


class _NonNeighborTarget(NodeAlgorithm):
    def on_start(self):
        far = (self.node.id + 2) % self.node.n
        return self.send_many((far,), (1,))

    def on_round(self, inbox):
        self.finish(None)
        return None


class _OversizeBeforeInvalid(NodeAlgorithm):
    """First target valid + oversize payload + later invalid target.

    The reference loop meters the first message (raising on oversize)
    before it ever validates the second target, so every engine must
    raise ``CongestionError`` here, not ``ProtocolError``.
    """

    def on_start(self):
        if self.node.id == 0:
            return self.send_many(
                (self.node.neighbors[0], self.node.n + 5),
                tuple(range(100)),
            )
        return None

    def on_round(self, inbox):  # pragma: no cover - run raises first
        return None


class TestErrorParity:
    def test_oversize_batch_congestion_error(self):
        message = raise_everywhere(
            path_graph(4), _OversizeBroadcast, CongestionError
        )
        assert "words" in message

    def test_self_target_rejected(self):
        raise_everywhere(path_graph(4), _SelfTarget, ProtocolError)

    def test_out_of_range_target_rejected(self):
        raise_everywhere(path_graph(4), _InvalidTarget, ProtocolError)

    def test_non_neighbor_target_rejected(self):
        message = raise_everywhere(
            path_graph(6), _NonNeighborTarget, ProtocolError
        )
        assert "not adjacent" in message

    def test_oversize_wins_over_later_invalid_target(self):
        message = raise_everywhere(
            path_graph(4), _OversizeBeforeInvalid, CongestionError
        )
        assert "words" in message

    def test_lenient_mode_meters_oversize_batches(self):
        for engine in ENGINES:
            net = CongestNetwork(
                path_graph(4), word_limit=4, strict=False, engine=engine
            )
            result = net.run(_OversizeBroadcast, max_rounds=5)
            assert result.stats.max_words_per_edge_round > 4


def test_self_loop_graph_rejected_at_construction_everywhere():
    """A self-loop never reaches a round: every backend refuses the graph.

    Trusted broadcasts can therefore skip the self-target check; untrusted
    sends to self still raise "addressed itself" (``_SelfTarget`` above).
    """
    graph = path_graph(4)
    graph.add_edge(1, 1)
    builds = [partial(CongestNetwork, graph, engine=e) for e in ENGINES]
    builds.append(partial(MPCCongestNetwork, graph, alpha=1.0))
    for build in builds:
        with pytest.raises(NotSimpleGraphError) as excinfo:
            build()
        assert str(excinfo.value) == NotSimpleGraphError.message


class _DuplicateTargets(NodeAlgorithm):
    def on_start(self):
        if self.node.id == 0 and self.node.neighbors:
            nbr = self.node.neighbors[0]
            return self.send_many((nbr, nbr, nbr), (5,))
        return None

    def on_round(self, inbox):
        self.finish(dict(inbox))
        return None


def test_duplicate_targets_metered_per_occurrence_delivered_once():
    results = run_everywhere(path_graph(3), _DuplicateTargets)
    assert_all_equal(results)
    stats = results["v1"].stats
    assert stats.messages == 3  # each occurrence crosses the edge
    assert results["v1"].by_id[1] == {0: (5,)}  # one inbox slot


class TestLongBatchValidation:
    """Long untrusted batches validate in reference order, target by target."""

    hub_degree = 64

    def _star(self):
        return star_graph(self.hub_degree + 1)

    def test_large_send_many_batch_parity(self):
        class HubBlast(NodeAlgorithm):
            def on_start(self):
                if self.node.degree > 1:
                    return self.send_many(self.node.neighbors, (9,))
                return None

            def on_round(self, inbox):
                self.finish(len(inbox))
                return None

        results = run_everywhere(self._star(), HubBlast)
        assert_all_equal(results)

    def test_large_batch_with_one_bad_target_errors_identically(self):
        degree = self.hub_degree

        class HubBlastBad(NodeAlgorithm):
            def on_start(self):
                if self.node.degree > 1:
                    targets = list(self.node.neighbors)
                    targets[degree // 2] = self.node.n + 7
                    return self.send_many(targets, (9,))
                return None

            def on_round(self, inbox):  # pragma: no cover - run raises
                return None

        message = raise_everywhere(self._star(), HubBlastBad, ProtocolError)
        assert "invalid target" in message

    def test_numpy_scalar_targets_rejected_like_reference(self):
        """The reference loop rejects non-Python-int targets such as
        np.int64; the kernel's validator must raise on them too."""
        np = pytest.importorskip("numpy")

        class HubBlastNumpyInts(NodeAlgorithm):
            def on_start(self):
                if self.node.degree > 1:
                    targets = [
                        np.int64(t) if i else t
                        for i, t in enumerate(self.node.neighbors)
                    ]
                    return self.send_many(targets, (9,))
                return None

            def on_round(self, inbox):  # pragma: no cover - run raises
                return None

        message = raise_everywhere(
            self._star(), HubBlastNumpyInts, ProtocolError
        )
        assert "invalid target" in message


class TestMailboxRingBatch:
    def test_post_batch_equals_repeated_post(self):
        a, b = MailboxRing(5), MailboxRing(5)
        targets = (1, 3, 4, 3)
        for target in targets:
            a.post(0, target, "m")
        b.post_batch(0, targets, "m")
        assert a.back_dirty and b.back_dirty
        assert a.flip() == b.flip()
        assert a.front == b.front


# -- property tests: batch metering == per-message metering ----------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**20), max_value=2**20),
    st.floats(),
    st.text(max_size=6),
)
flat_tuples = st.tuples(scalars, scalars, scalars)
payloads = st.one_of(scalars, flat_tuples, st.tuples(scalars, flat_tuples))


class TestBatchMeteringProperty:
    @pytest.mark.parametrize("cut", [None, [(0, 1)]], ids=["no-cut", "cut"])
    @given(payload=payloads, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_batches_meter_word_for_word(self, cut, payload, data):
        """Batched and per-message metering agree on arbitrary payloads.

        One hub sends ``payload`` either to a drawn subset of its
        neighbors (untrusted ``send_many``) or to all of them (trusted
        ``broadcast``); the resulting RunStats (messages, words,
        max-per-edge, cut) must be identical to the dictionary outbox
        over the same targets, on both engines (v1, v2).
        """
        graph = star_graph(9)
        neighbors = tuple(range(1, 9))
        subset = tuple(
            data.draw(
                st.lists(
                    st.integers(min_value=1, max_value=8),
                    min_size=1,
                    max_size=8,
                    unique=True,
                )
            )
        )
        forms = {
            "send_many": (lambda alg: alg.send_many(subset, payload), subset),
            "dict": (lambda alg: {t: payload for t in subset}, subset),
            "broadcast": (lambda alg: alg.broadcast(payload), neighbors),
            "dict-all": (
                lambda alg: {t: payload for t in neighbors}, neighbors
            ),
        }

        def factory_for(send):
            class Hub(NodeAlgorithm):
                def on_start(self):
                    return send(self) if self.node.id == 0 else None

                def on_round(self, inbox):
                    self.finish(sorted(inbox))
                    return None

            return Hub

        stats = {}
        for form, (send, targets) in forms.items():
            results = run_everywhere(
                graph, factory_for(send), strict=False, cut=cut
            )
            assert_all_equal(results)
            stats[form] = results["v2"].stats
            assert stats[form].total_words == len(targets) * payload_words(
                payload, 4
            ), form
        assert stats["send_many"] == stats["dict"]
        assert stats["broadcast"] == stats["dict-all"]

    def test_equal_payloads_of_other_types_never_share_a_cost(self):
        """``(1,) == (1.0,) == (True,) == (member,)``, but their costs are
        per type: the value-keyed cost cache must not alias them within
        one run.  Per-round words must equal the reference loop's."""

        class Tag(IntEnum):
            ONE = 1

        sequence = ((1,), (1.0,), (True,), (Tag.ONE,))

        class HubSequence(NodeAlgorithm):
            def on_start(self):
                self.rounds = 0
                return self.broadcast(sequence[0]) if self.node.id == 0 else None

            def on_round(self, inbox):
                self.rounds += 1
                if self.rounds == len(sequence):
                    self.finish(None)
                    return None
                if self.node.id == 0:
                    return self.broadcast(sequence[self.rounds])
                return None

        results = run_everywhere(star_graph(9), HubSequence)
        assert_all_equal(results)
        words = [record.words for record in results["v2"].trace]
        assert words == [8, 16, 8, 8, 0]


def test_v2_broadcasts_bypass_the_batch_helpers(monkeypatch):
    """Engine v2 meters and delivers trusted broadcasts inline.

    A broadcast-only protocol must finish without ever reaching the
    untrusted-batch collector or the ring's batch poster, and still match
    the reference loop.
    """
    graph = gnp_graph(15, 0.3, seed=2)
    reference = CongestNetwork(graph, engine="v1").run(_BatchPing, trace=True)

    def boom(*args, **kwargs):
        raise AssertionError("trusted broadcast left the inline path")

    monkeypatch.setattr(MailboxRing, "post_batch", boom)
    monkeypatch.setattr(RoundKernel, "_collect_batch", boom)
    result = CongestNetwork(graph, engine="v2").run(_BatchPing, trace=True)
    assert result.stats == reference.stats
    assert result.trace == reference.trace
    assert result.outputs == reference.outputs


def test_v2_dict_engine_is_rejected():
    # The pre-batching v2-dict configuration is retired; only v1 and v2
    # remain selectable.
    for name in ("v2-dict", "v3-batched"):
        with pytest.raises(ValueError):
            CongestNetwork(path_graph(3), engine=name)


def test_v2_dict_env_selection(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "v2-dict")
    with pytest.raises(ValueError):
        CongestNetwork(path_graph(3))
    monkeypatch.setenv("REPRO_ENGINE", "batched")
    with pytest.raises(ValueError):
        CongestNetwork(path_graph(3))
