"""The window planner against a brute-force walk of every envelope.

``MPCCongestNetwork._plan_window`` costs a compressed window from
per-radius watched-set tables and load identities, never building an
envelope.  The oracle here builds them all: for every candidate window
length ``k`` it ships each pending message and each node's state to every
machine a breadth-first search finds watching the target (except the
sender's host, respectively the node's host), sums the loads per machine
and applies the planner's rule — keep the last ``k`` whose loads fit every
machine's window budget, stop at the first that does not.  The planner
must return exactly that ``(k, in_words, out_words, messages)``.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.congest.message import payload_words
from repro.graphs.generators import gnp_graph
from repro.mpc.compile_congest import (
    AUTO_COMPRESS_CAP,
    MPCCongestNetwork,
    _ENVELOPE_HEAD,
)
from repro.mpc.options import RunOptions
from repro.mpc.runtime import ENVELOPE_WORDS

COMPRESS = (2, 3, 4, 5, 6, 7, 8, "auto")


def _watchers(net, radius):
    """Per node: the machines hosting a node within ``radius`` hops of it."""
    ids = nx.Graph()
    ids.add_nodes_from(range(net.n))
    ids.add_edges_from((u, v) for u in range(net.n) for v in net._adjacency[u])
    near = nx.single_source_shortest_path_length
    return [
        {net._host[v] for v in near(ids, u, cutoff=radius)}
        for u in range(net.n)
    ]


def _walk(net, sends, k):
    """Loads of a ``k``-round window, one envelope and state copy at a time.

    Returns ``(in_words, out_words, messages, state_over)``, the last
    saying whether the state copies alone overflow some machine.
    """
    host = net._host
    machines = net.num_machines
    in_words = [0] * machines
    out_words = [0] * machines
    messages = 0
    if k == 1:
        watchers = [{host[u]} for u in range(net.n)]
    else:
        watchers = _watchers(net, k - 1)
        for u in range(net.n):
            cost = ENVELOPE_WORDS + payload_words(
                (u,) + net._adjacency[u], net.word_bits
            )
            for mid in watchers[u] - {host[u]}:
                in_words[mid] += cost
                out_words[host[u]] += cost
                messages += 1
    budgets = [m.window_budget_words() for m in net.machines]
    state_over = any(
        max(w_in, w_out) > budget
        for w_in, w_out, budget in zip(in_words, out_words, budgets)
    )
    for sender, targets, _payload, words in sends:
        for target in targets:
            for mid in watchers[target] - {host[sender]}:
                in_words[mid] += _ENVELOPE_HEAD + words
                out_words[host[sender]] += _ENVELOPE_HEAD + words
                messages += 1
    return in_words, out_words, messages, state_over


def _fits(net, in_words, out_words):
    return all(
        max(w_in, w_out) <= m.window_budget_words()
        for w_in, w_out, m in zip(in_words, out_words, net.machines)
    )


def _oracle(net, sends, cap, skip):
    """The planner's rule over brute-force loads; also why it stopped."""
    in_words, out_words, messages, _ = _walk(net, sends, 1)
    best = (1, in_words, out_words, messages)
    stop = None
    for k in range(2, cap + 1) if not skip else ():
        in_words, out_words, messages, state_over = _walk(net, sends, k)
        if not _fits(net, in_words, out_words):
            stop = "state" if state_over else "messages"
            break
        best = (k, in_words, out_words, messages)
    return best, stop


def _random_sends(net, rng):
    """One round's metered batches: broadcasts, ``send_many`` and dicts.

    Each sender sends at most once and reaches each neighbor at most once,
    as the recording kernel guarantees; batches are in sender order.
    """
    sends = []
    for sender in range(net.n):
        neighbors = net._adjacency[sender]
        kind = rng.random()
        if not neighbors or kind < 0.3:
            continue
        words = rng.randint(1, 6)
        if kind < 0.6:
            targets = neighbors  # a trusted broadcast
        elif kind < 0.8:
            picked = rng.sample(neighbors, rng.randint(1, len(neighbors)))
            targets = tuple(picked)  # send_many, in the caller's order
        else:
            # A dict outbox meters one single-target batch per message.
            count = rng.randint(1, len(neighbors))
            for target in rng.sample(neighbors, count):
                sends.append((sender, (target,), None, words))
            continue
        sends.append((sender, targets, None, words))
    return sends


CASES = [
    (seed, alpha, compress)
    for seed in range(6)
    for alpha in (0.85, 1.0, 1.15)
    for compress in COMPRESS
]


def _case(seed, alpha, compress):
    """A random network of one case, and the stream its sends come from."""
    rng = random.Random(f"{seed}/{alpha}/{compress}")
    graph = gnp_graph(
        rng.randint(12, 26), rng.choice((0.1, 0.2, 0.3)), seed=seed
    )
    net = MPCCongestNetwork(
        graph, alpha=alpha, seed=seed, options=RunOptions(compress=compress)
    )
    return net, rng


@pytest.mark.parametrize("seed, alpha, compress", CASES)
def test_plan_equals_brute_force_walk(seed, alpha, compress):
    net, rng = _case(seed, alpha, compress)
    cap = AUTO_COMPRESS_CAP if compress == "auto" else compress
    for _window in range(4):
        sends = _random_sends(net, rng)
        estimator = net._estimator
        skip = estimator is not None and estimator.should_skip()
        expected, _stop = _oracle(net, sends, cap, skip)
        k, in_words, out_words, messages = net._plan_window(sends)
        assert (k, list(in_words), list(out_words), messages) == (
            expected[0], list(expected[1]), list(expected[2]), expected[3]
        )


def test_both_rejection_kinds_are_covered():
    """The cases above stop on the state loads alone and on messages alone."""
    stops = set()
    for seed, alpha, compress in CASES:
        if compress == "auto":
            continue
        net, rng = _case(seed, alpha, compress)
        for _window in range(4):
            sends = _random_sends(net, rng)
            stops.add(_oracle(net, sends, compress, False)[1])
    assert {"state", "messages"} <= stops


class _CountedSends(list):
    """A send list that counts how often the planner walks it."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


@pytest.mark.parametrize("compress, walks", ((3, 1), ("auto", 3)))
def test_state_rejection_skips_the_message_walk(compress, walks):
    """A candidate whose state loads alone overflow is rejected unwalked.

    Past the ``k = 1`` loads (one walk) the planner must stop on the
    static state table — except at ``k = 2`` in auto mode, whose load
    fraction the estimator observes in full (two more walks).
    """
    graph = gnp_graph(24, 0.3, seed=1)
    net = MPCCongestNetwork(
        graph, alpha=0.9, seed=1, options=RunOptions(compress=compress)
    )
    assert net._frontier_at(1).state_over
    sends = _CountedSends(
        (u, net._adjacency[u], None, 1) for u in range(net.n)
    )
    k, *_loads = net._plan_window(sends)
    assert k == 1
    assert sends.walks == walks
