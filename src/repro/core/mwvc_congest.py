"""Theorem 7: (1+eps)-approximate weighted G^2-MVC in CONGEST.

Two changes relative to Algorithm 1 (paper Section 3.2):

1. cardinality candidacy is replaced by the weight condition (7):
   a node ``c`` may take a *weight class* ``N_i(c) cap R`` into the cover
   when ``w*_i(c) <= W_i(c) * eps / (1 + eps)``, where ``N_i(c)`` collects
   the neighbors whose weight lies in ``[w_min(c) * 2^i, w_min(c) *
   2^(i+1))``, ``w*_i`` is the heaviest remaining vertex of the class and
   ``W_i`` the class's remaining total weight.  The condition makes the
   class affordable: its weight is within ``(1+eps)`` of what any optimum
   pays on the clique ``G^2[N_i(c) cap R]``.

2. zero-weight vertices join the cover for free up front (paper's w.l.o.g.).

The winner announcement carries the weight window ``[lo, hi)`` so neighbors
can decide membership locally; windows are O(log n)-bit integers.  Phase II
is unchanged except tokens carry weights.  After Phase I every class
retains fewer than ``2(1+eps)/eps`` vertices (Lemma 8), so per-node token
counts stay ``O(log(n)/eps)``.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

import networkx as nx

from repro.congest.algorithm import Inbox, NodeAlgorithm, NodeView, Outbox
from repro.congest.network import CongestNetwork, RunStats
from repro.congest.primitives import (
    BroadcastAlgorithm,
    ConvergecastAlgorithm,
    broadcast_bulk,
    build_bfs_tree,
    convergecast_bulk,
)
from repro.contract import is_deterministic_int
from repro.core.mvc_congest import (
    normalized_epsilon,
    residual_graph_from_tokens,
)
from repro.core.results import DistributedCoverResult, square_solver_network
from repro.graphs.validation import WEIGHT
from repro.exact.vertex_cover import minimum_weighted_vertex_cover

_TAG_STATUS = 20
_TAG_CAND = 21
_TAG_RELAY = 22
_TAG_WIN = 23


class WeightedPhaseOneAlgorithm(NodeAlgorithm):
    """Weight-class based Phase I (Section 3.2).

    ``node.input`` must be the node's positive integer weight.  Zero-weight
    vertices are assumed to have been taken into the cover already and
    participate only as relays (``in_R`` false from the start).
    """

    def __init__(self, node: NodeView, epsilon: float, iterations: int) -> None:
        super().__init__(node)
        if node.input is None or node.input < 0:
            raise ValueError("weighted Phase I requires nonnegative node weights")
        self.epsilon = epsilon
        self.iterations = iterations
        self.weight = int(node.input)
        self.in_R = self.weight > 0
        self.in_S = self.weight == 0
        self.iteration = 0
        self.step = 0
        self.neighbor_weight: dict[int, int] = {}
        self.r_neighbors: set[int] = set()
        self.is_candidate = False
        self.chosen_window: tuple[int, int] | None = None
        self.local_max = -1
        self.final_status = False

    # -- weight classes ------------------------------------------------------

    def _candidate_window(self) -> tuple[int, int] | None:
        """Smallest weight class satisfying condition (7), if any."""
        active = [
            u for u in sorted(self.r_neighbors)
            if self.neighbor_weight[u] > 0
        ]
        if not active:
            return None
        # Class boundaries anchor at the lightest *remaining* neighbor
        # weight (zero-weight vertices joined the cover up front, so every
        # anchor is positive and the doubling sweep terminates).
        w_min = min(self.neighbor_weight[u] for u in active)
        factor = self.epsilon / (1.0 + self.epsilon)
        lo = w_min
        # Classes [w_min 2^i, w_min 2^(i+1)) sweep all O(log n)-bit weights.
        max_weight = max(self.neighbor_weight[u] for u in active)
        while lo <= max_weight:
            hi = lo * 2
            members = [
                u for u in active if lo <= self.neighbor_weight[u] < hi
            ]
            if members:
                total = sum(self.neighbor_weight[u] for u in members)
                heaviest = max(self.neighbor_weight[u] for u in members)
                if heaviest <= total * factor:
                    return lo, hi
            lo = hi
        return None

    def _finalize(self, inbox: Inbox) -> None:
        u_neighbors = sorted(
            sender for sender, msg in inbox.items() if msg[1] == 1
        )
        me = self.node.id
        tokens = [(me, u, self.neighbor_weight[u]) for u in u_neighbors]
        if self.in_R:
            tokens.append((me, me, self.weight))
        self.node.state["in_S"] = self.in_S
        self.node.state["in_R"] = self.in_R
        self.node.state["tokens"] = tokens
        self.finish({"in_S": self.in_S, "in_R": self.in_R})

    # -- protocol --------------------------------------------------------------

    def on_start(self) -> Outbox:
        if self.iterations == 0:
            self.final_status = True
        return self.broadcast((_TAG_STATUS, 1 if self.in_R else 0, self.weight))

    def on_round(self, inbox: Inbox) -> Outbox:
        if self.final_status:
            self._finalize(inbox)
            return None
        if self.step == 0:
            self.r_neighbors = set()
            for sender, msg in inbox.items():
                self.neighbor_weight[sender] = msg[2]
                if msg[1] == 1:
                    self.r_neighbors.add(sender)
            self.chosen_window = self._candidate_window()
            self.is_candidate = self.chosen_window is not None
            self.step = 1
            if self.is_candidate:
                return self.broadcast((_TAG_CAND,))
            return None
        if self.step == 1:
            local_max = max(inbox, default=-1)
            if self.is_candidate and self.node.id > local_max:
                local_max = self.node.id
            self.local_max = local_max
            self.step = 2
            return self.broadcast((_TAG_RELAY, local_max))
        if self.step == 2:
            two_hop_max = self.local_max
            for msg in inbox.values():
                if msg[1] > two_hop_max:
                    two_hop_max = msg[1]
            self.step = 3
            if self.is_candidate and self.node.id >= two_hop_max:
                lo, hi = self.chosen_window
                return self.broadcast((_TAG_WIN, lo, hi))
            return None
        # step == 3: winners announced weight windows.
        if self.in_R:
            for msg in inbox.values():
                if msg[0] == _TAG_WIN and msg[1] <= self.weight < msg[2]:
                    self.in_R = False
                    self.in_S = True
                    break
        self.iteration += 1
        self.step = 0
        if self.iteration >= self.iterations:
            self.final_status = True
        return self.broadcast((_TAG_STATUS, 1 if self.in_R else 0, self.weight))

    def wants_wake(self) -> bool:
        # Same guaranteed-traffic cadence as the unweighted Phase I: STATUS
        # and RELAY are broadcast by every live neighbor in lockstep, so
        # steps 0/2 and the finalize round are traffic-woken; steps 1 and 3
        # send regardless of inbox and must self-wake, as must isolated
        # nodes.
        return self.step in (1, 3) or not self.node.neighbors


def _weights_table(graph: nx.Graph, weights: Mapping[Any, int] | None) -> dict:
    """Every vertex's weight, from ``weights`` or the ``weight`` attribute.

    Weights are taken as given, never coerced: a float, bool or string
    weight (which ``int()`` would truncate or parse) and a vertex missing
    from ``weights`` raise ``ValueError`` naming the vertex.
    """
    table = {}
    for v in graph.nodes:
        if weights is None:
            w = graph.nodes[v].get(WEIGHT, 1)
        elif v in weights:
            w = weights[v]
        else:
            raise ValueError(f"weights has no entry for vertex {v!r}")
        if not is_deterministic_int(w) or w < 0:
            raise ValueError(
                f"weight of vertex {v!r} must be a nonnegative integer, "
                f"got {w!r}"
            )
        table[v] = w
    return table


def approx_mwvc_square(
    graph: nx.Graph,
    epsilon: float,
    weights: Mapping[Any, int] | None = None,
    network: CongestNetwork | None = None,
    seed: int = 0,
    engine: str | None = None,
) -> DistributedCoverResult:
    """Theorem 7 end to end: (1+eps)-approximate MWVC of ``G^2``.

    Weights default to the ``weight`` node attribute (missing = 1) and must
    be nonnegative integers (O(log n)-bit in the model).  ``engine`` picks
    the runtime for a freshly built network; incompatible with ``network``.
    ``graph`` must be connected, simple and undirected; other inputs raise
    the typed errors of :mod:`repro.graphs.instance`.
    """
    normalized_epsilon(epsilon)  # rejects epsilon <= 0
    network = square_solver_network(graph, network, seed, engine)
    table = _weights_table(graph, weights)
    inputs = dict(table)

    n = network.n
    iterations = n // 2 + 1
    network.reset_state()
    total = RunStats(word_bits=network.word_bits)

    phase_one = network.run(
        lambda view: WeightedPhaseOneAlgorithm(view, epsilon, iterations),
        inputs=inputs,
    )
    total = total + phase_one.stats

    leader = n - 1
    bfs = build_bfs_tree(network)
    total = total + bfs.stats

    gather = network.run(ConvergecastAlgorithm, bulk=convergecast_bulk)
    total = total + gather.stats
    tokens = gather.by_id[leader]

    residual = residual_graph_from_tokens((v, u) for v, u, _ in tokens)
    token_weights = {u: w for _, u, w in tokens}

    r_star = minimum_weighted_vertex_cover(
        residual, weights={v: token_weights[v] for v in residual.nodes}
    )

    network.node_state[leader]["bcast_tokens"] = [(v,) for v in sorted(r_star)]
    spread = network.run(BroadcastAlgorithm, bulk=broadcast_bulk)
    total = total + spread.stats

    s_vertices = {v for v, out in phase_one.by_id.items() if out["in_S"]}
    cover_ids = s_vertices | set(r_star)
    cover = {network.label_of(v) for v in cover_ids}
    return DistributedCoverResult(
        cover=cover,
        stats=total,
        detail={
            "mode": "congest-weighted",
            "iterations": iterations,
            "phase_one_cover": {network.label_of(v) for v in s_vertices},
            "residual_vertices": {network.label_of(v) for v in residual.nodes},
            "leader_solution": {network.label_of(v) for v in r_star},
        },
    )
