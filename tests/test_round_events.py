"""The per-round instrumentation hook: ``on_round`` RoundEvent streams.

Contract: events mirror the trace timeline (round index, messages, words)
and the per-round cut metering, on every engine; the ``awake`` field is
the one deliberately engine-dependent quantity (nodes actually invoked).
Events are observation only — running with a hook must not change any
result.
"""

from __future__ import annotations

import pytest

from repro.congest.network import CongestNetwork, RoundEvent
from repro.core.mds_congest import GlobalOrAlgorithm
from repro.core.mvc_congest import PhaseOneAlgorithm, approx_mvc_square
from repro.congest.primitives import BfsTreeAlgorithm
from repro.graphs.generators import gnp_graph, path_graph

ENGINES = ("v1", "v2")


def _phase_one(view):
    return PhaseOneAlgorithm(view, threshold=2, iterations=3)


class TestEventStream:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_events_mirror_the_trace(self, engine):
        events: list[RoundEvent] = []
        net = CongestNetwork(gnp_graph(16, 0.2, seed=3), seed=3, engine=engine)
        result = net.run(_phase_one, trace=True, on_round=events.append)
        assert len(events) == len(result.trace)
        for event, record in zip(events, result.trace):
            assert event.round_index == record.round_index
            assert event.messages == record.messages
            assert event.words == record.words
        assert sum(e.messages for e in events) == result.stats.messages
        assert sum(e.words for e in events) == result.stats.total_words

    def test_metered_fields_are_engine_independent(self):
        streams = {}
        for engine in ENGINES:
            events: list[RoundEvent] = []
            net = CongestNetwork(
                gnp_graph(16, 0.2, seed=3), seed=3, engine=engine
            )
            net.run(_phase_one, on_round=events.append)
            streams[engine] = [
                (e.round_index, e.messages, e.words, e.cut_words)
                for e in events
            ]
        assert streams["v1"] == streams["v2"]

    def test_awake_shows_activity_scheduling(self):
        # The convergecast-OR genuinely sleeps on v2: only the moving
        # frontier runs, so v2 invokes strictly fewer nodes than v1 even
        # though every metered field matches.
        def stages(net):
            net.reset_state()
            for node_id in net.ids():
                net.node_state[node_id]["in_U"] = node_id == 0
            events: list[RoundEvent] = []
            net.run(
                lambda v: BfsTreeAlgorithm(v, net.n - 1),
                on_round=events.append,
            )
            net.run(
                lambda v: GlobalOrAlgorithm(v, "in_U"),
                on_round=events.append,
            )
            return events

        v1_events = stages(CongestNetwork(path_graph(24), seed=1, engine="v1"))
        v2_events = stages(CongestNetwork(path_graph(24), seed=1, engine="v2"))
        assert [(e.messages, e.words) for e in v1_events] == [
            (e.messages, e.words) for e in v2_events
        ]
        assert sum(e.awake for e in v2_events) < sum(
            e.awake for e in v1_events
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_hook_does_not_change_results(self, engine):
        graph = gnp_graph(14, 0.25, seed=5)
        plain = CongestNetwork(graph, seed=5, engine=engine).run(_phase_one)
        hooked = CongestNetwork(graph, seed=5, engine=engine).run(
            _phase_one, on_round=lambda event: None
        )
        assert plain.outputs == hooked.outputs
        assert plain.stats == hooked.stats


class TestNetworkLevelHook:
    def test_constructor_hook_spans_all_stages(self):
        events: list[RoundEvent] = []
        graph = gnp_graph(14, 0.25, seed=2)
        net = CongestNetwork(graph, seed=2, on_round=events.append)
        result = approx_mvc_square(graph, 0.5, network=net)
        # one event per round of every stage, plus each stage's round 0.
        assert sum(e.messages for e in events) == result.stats.messages
        assert sum(e.words for e in events) == result.stats.total_words
        round_zero_count = sum(1 for e in events if e.round_index == 0)
        assert round_zero_count >= 4  # phase1, bfs, upcast, broadcast

    def test_run_level_hook_overrides_default(self):
        default_events: list[RoundEvent] = []
        override_events: list[RoundEvent] = []
        net = CongestNetwork(
            gnp_graph(12, 0.3, seed=1), seed=1, on_round=default_events.append
        )
        net.run(_phase_one, on_round=override_events.append)
        assert override_events
        assert not default_events
        net.run(_phase_one)
        assert default_events

    def test_cut_words_per_round(self):
        graph = path_graph(10)
        cut = [(4, 5)]
        events: list[RoundEvent] = []
        net = CongestNetwork(graph, seed=0, cut=cut, on_round=events.append)
        result = net.run(lambda v: BfsTreeAlgorithm(v, 0))
        assert sum(e.cut_words for e in events) == result.stats.cut_words
        assert result.stats.cut_words > 0
        # the BFS frontier crosses the cut edge exactly around one round.
        assert max(e.cut_words for e in events) > 0
