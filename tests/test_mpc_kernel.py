"""The shared round kernel on the MPC backend.

Engine v2 and the compiled MPC backend (serial and shard-parallel) run
every CONGEST round on the same :class:`~repro.congest.engine.RoundKernel`,
and the compiler carries each batch's metered word count into the window
planner, which sums every shuffle's loads without walking payloads
again.  These tests pin both halves: the per-round ``awake`` stream is
the same on every backend, and the carried costs reproduce, word for
word, the ledger that routing every shipped envelope through a reference
runtime — each payload walked with ``payload_words`` — gives.
"""

from __future__ import annotations

import pytest

from repro.congest.message import payload_words, word_bits_for
from repro.congest.network import CongestNetwork
from repro.core.mds_congest import approx_mds_square
from repro.core.mvc_congest import approx_mvc_square
from repro.graphs.generators import gnp_graph
from repro.mpc.compile_congest import MPCCongestNetwork
from repro.mpc.options import RunOptions
from repro.mpc.parallel import fork_available
from repro.mpc.runtime import MPCRuntime

GRID_WORKERS = (1, 2) if fork_available() else (1,)

GRID = [
    (compress, workers)
    for compress in (1, 4, "auto")
    for workers in GRID_WORKERS
]

SOLVERS = {
    "mvc": lambda graph, net: approx_mvc_square(graph, 0.5, network=net),
    "mds": lambda graph, net: approx_mds_square(graph, network=net, samples=4),
}


def _stream(events):
    return [
        (e.round_index, e.messages, e.words, e.cut_words, e.awake)
        for e in events
    ]


@pytest.mark.parametrize("problem", sorted(SOLVERS))
def test_awake_stream_identical_on_v2_and_mpc(problem):
    graph = gnp_graph(14, 0.25, seed=4)
    solve = SOLVERS[problem]
    ref_events = []
    ref = solve(
        graph,
        CongestNetwork(graph, seed=4, engine="v2", on_round=ref_events.append),
    )
    expected = _stream(ref_events)
    # Engine v1 invokes every live node, so the stream is not trivially
    # backend-independent.
    v1_events = []
    solve(graph, CongestNetwork(graph, seed=4, engine="v1", on_round=v1_events.append))
    assert sum(e.awake for e in v1_events) > sum(e.awake for e in ref_events)
    for compress, workers in GRID:
        events = []
        net = MPCCongestNetwork(
            graph, alpha=0.9, seed=4, on_round=events.append,
            options=RunOptions(compress, workers),
        )
        result = solve(graph, net)
        assert result.cover == ref.cover
        assert _stream(events) == expected, (compress, workers)


class _WindowRuntime(MPCRuntime):
    """A reference runtime whose routed shuffle carries a window length."""

    window = 1

    def shuffle(self, in_words, out_words, messages, active=None,
                congest_rounds=1):
        super().shuffle(
            in_words, out_words, messages, active=active,
            congest_rounds=self.window,
        )


def _watchers(net, radius):
    """Per node: every machine within ``radius`` hops, its host included."""
    if radius == 0:
        return [(host,) for host in net._host]
    return [
        tuple(
            mid for mid, dist in enumerate(net._hop_dist)
            if dist.get(u, radius + 1) <= radius
        )
        for u in range(net.n)
    ]


def _walked_outboxes(net, sends, window):
    """The envelopes a ``window``-round shuffle ships, as plain messages.

    Each foreign machine within ``window - 1`` hops of a node gets its
    state (id plus adjacency), and a copy of every pending message
    addressed to it; messages between co-hosted nodes stay local.
    """
    host = net._host
    watchers = _watchers(net, window - 1)
    outboxes = [[] for _ in range(net.num_machines)]
    for u in range(net.n):
        for mid in watchers[u]:
            if mid != host[u]:
                outboxes[host[u]].append((mid, (u,) + net._adjacency[u]))
    for sender, targets, payload, _words in sends:
        for target in targets:
            for mid in watchers[target]:
                if mid != host[sender]:
                    outboxes[host[sender]].append(
                        (mid, (sender, target, payload))
                    )
    return outboxes


@pytest.mark.parametrize("compress, workers", GRID)
def test_carried_costs_equal_walked_ledger(monkeypatch, compress, workers):
    """Every shuffle the compiler issues, re-metered by walking payloads."""
    walked: dict[int, _WindowRuntime] = {}
    entries = 0
    real_open = MPCCongestNetwork.open_window
    real_absorb = MPCRuntime.absorb_early_finish

    def reference_for(runtime):
        if id(runtime) not in walked:
            # The shuffle only reads machine budgets, so sharing them is safe.
            walked[id(runtime)] = _WindowRuntime(
                runtime.machines, runtime.word_bits
            )
        return walked[id(runtime)]

    def checked_open(self, sends, done):
        nonlocal entries
        window = real_open(self, sends, done)
        outboxes = _walked_outboxes(self, sends, window)
        entries += sum(map(len, outboxes))
        reference = reference_for(self.runtime)
        reference.window = window
        live = {self._host[nid] for nid in range(self.n) if nid not in done}
        reference.route(outboxes, active=len(live))
        return window

    def mirrored_absorb(self, unexecuted_rounds):
        real_absorb(reference_for(self), unexecuted_rounds)
        return real_absorb(self, unexecuted_rounds)

    monkeypatch.setattr(MPCCongestNetwork, "open_window", checked_open)
    monkeypatch.setattr(MPCRuntime, "absorb_early_finish", mirrored_absorb)

    graph = gnp_graph(16, 0.25, seed=7)
    cut = sorted(graph.edges)[::3]
    net = MPCCongestNetwork(
        graph, alpha=0.9, seed=7, cut=cut,
        options=RunOptions(compress, workers),
    )
    result = approx_mvc_square(graph, 0.5, network=net)
    ref = approx_mvc_square(graph, 0.5, network=CongestNetwork(graph, seed=7, cut=cut))
    assert result.stats == ref.stats
    assert result.stats.cut_words > 0
    assert entries > 0
    reference = walked[id(net.runtime)]
    assert net.runtime.stats == reference.stats
    assert net.runtime.trace == reference.trace
    if compress != 1:
        assert any(record.congest_rounds > 1 for record in net.runtime.trace)


def test_node_ids_cost_one_word():
    # The envelope-cost formula charges one word per node id: ids run
    # 0..n-1 and word_bits_for(n) bits hold n.
    for n in range(1, 5000):
        word_bits = word_bits_for(n)
        assert payload_words(0, word_bits) == 1
        assert payload_words(n - 1, word_bits) == 1


@pytest.mark.parametrize("workers", GRID_WORKERS)
def test_mpc_run_ignores_engine_override(monkeypatch, workers):
    """REPRO_ENGINE picks a CONGEST loop; compiled MPC always runs v2's."""
    graph = gnp_graph(14, 0.25, seed=4)

    def observed(engine):
        if engine is None:
            monkeypatch.delenv("REPRO_ENGINE", raising=False)
        else:
            monkeypatch.setenv("REPRO_ENGINE", engine)
        events = []
        net = MPCCongestNetwork(
            graph, alpha=0.9, seed=4, on_round=events.append,
            options=RunOptions(4, workers),
        )
        result = SOLVERS["mvc"](graph, net)
        return (
            result.cover, result.stats, _stream(events), net.mpc_summary()
        )

    unset = observed(None)
    assert observed("v1") == unset
    assert observed("no-such-engine") == unset
