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
can decide membership locally; windows are O(log n)-bit integers.  After
Phase I every class retains fewer than ``2(1+eps)/eps`` vertices (Lemma 8),
so per-node token counts stay ``O(log(n)/eps)``.

:class:`WeightedPhaseOneAlgorithm` is Algorithm 1's
:class:`~repro.core.mvc_congest.PhaseOneAlgorithm` with only these
overridden: the message tags (20-23, its own), the STATUS payload (which
adds the weight), reading the statuses (which records the neighbors'
weights), the candidacy test and WIN payload (condition (7) and the
window; a winner stays a candidate for its other classes), the join test
(``lo <= weight < hi``), the tokens (which carry the weight, through
``weight_of``) and the initial ``in_R``/``in_S`` (change 2).  Phase II is
:func:`~repro.core.mvc_congest.run_phase_two` with the leader solving MWVC
exactly on the weighted residual instance.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

import networkx as nx

from repro.congest.algorithm import Inbox, NodeView
from repro.congest.network import CongestNetwork
from repro.contract import is_deterministic_int
from repro.core.mvc_congest import (
    PhaseOneAlgorithm,
    normalized_epsilon,
    residual_graph_from_tokens,
    run_phase_two,
)
from repro.core.results import DistributedCoverResult, square_solver_network
from repro.graphs.validation import WEIGHT
from repro.exact.vertex_cover import minimum_weighted_vertex_cover


class WeightedPhaseOneAlgorithm(PhaseOneAlgorithm):
    """Weight-class based Phase I (Section 3.2).

    ``node.input`` must be the node's nonnegative integer weight.
    Zero-weight vertices are assumed to have been taken into the cover
    already and participate only as relays (``in_R`` false from the start).
    """

    tag_status, tag_cand, tag_relay, tag_win = 20, 21, 22, 23

    def __init__(self, node: NodeView, epsilon: float, iterations: int) -> None:
        if node.input is None or node.input < 0:
            raise ValueError("weighted Phase I requires nonnegative node weights")
        self.weight = int(node.input)
        super().__init__(
            node, epsilon / (1.0 + epsilon), iterations, in_R=self.weight > 0
        )
        self.weight_of = {node.id: self.weight}

    def _status(self) -> tuple:
        return (self.tag_status, 1 if self.in_R else 0, self.weight)

    def _read_statuses(self, inbox: Inbox) -> set[int]:
        for sender, msg in inbox.items():
            self.weight_of[sender] = msg[2]
        return super()._read_statuses(inbox)

    def _win_payload(self) -> tuple | None:
        """Announce the smallest weight class meeting condition (7), if
        any; the winner stays a candidate for its other classes."""
        weight_of = self.weight_of
        active = [u for u in sorted(self.r_neighbors) if weight_of[u] > 0]
        if not active:
            return None
        # Class boundaries anchor at the lightest *remaining* neighbor
        # weight (zero-weight vertices joined the cover up front, so every
        # anchor is positive and the doubling sweep terminates).
        lo = min(weight_of[u] for u in active)
        # Classes [lo 2^i, lo 2^(i+1)) sweep all O(log n)-bit weights.
        max_weight = max(weight_of[u] for u in active)
        while lo <= max_weight:
            hi = lo * 2
            members = [weight_of[u] for u in active if lo <= weight_of[u] < hi]
            if members and max(members) <= sum(members) * self.threshold:
                return (self.tag_win, lo, hi)
            lo = hi
        return None

    def _joins(self, inbox: Inbox) -> bool:
        return any(
            msg[0] == self.tag_win and msg[1] <= self.weight < msg[2]
            for msg in inbox.values()
        )


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
    normalized_epsilon(epsilon)  # rejects epsilon <= 0 and NaN
    network = square_solver_network(graph, network, seed, engine)
    table = _weights_table(graph, weights)

    iterations = network.n // 2 + 1
    network.reset_state()
    phase_one = network.run(
        lambda view: WeightedPhaseOneAlgorithm(view, epsilon, iterations),
        inputs=table,
        label="phase1",
    )

    def solve(tokens: list[tuple[int, int, int]]) -> tuple[set[int], nx.Graph]:
        residual = residual_graph_from_tokens((v, u) for v, u, _ in tokens)
        weight = {u: w for _, u, w in tokens}
        r_star = minimum_weighted_vertex_cover(
            residual, weights={v: weight[v] for v in residual.nodes}
        )
        return r_star, residual

    return run_phase_two(
        network, phase_one, solve, mode="congest-weighted", iterations=iterations
    )
