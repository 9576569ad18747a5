"""CONGESTED CLIQUE algorithms for G^2-MVC (Section 3.3).

* :func:`approx_mvc_square_clique_deterministic` — Corollary 10: Phase I of
  Algorithm 1 unchanged, but the leader learns ``F`` directly (each node
  ships its <= 1/eps tokens straight to the leader, Lemma 9) and sends each
  node its personal verdict in one round.  O(eps n + 1/eps) rounds.

* :func:`approx_mvc_square_clique_randomized` — Theorem 11: Phase I is
  replaced by the randomized voting scheme.  A node is a candidate while
  more than ``8/eps + 2`` of its neighbors remain uncovered; candidates
  draw ranks in ``[n^4]``, every remaining vertex votes for its best-ranked
  candidate neighbor, and a candidate receiving at least ``d_R(c)/8`` votes
  adds its remaining neighborhood to the cover.  The potential
  ``sum_c d_R(c)`` drops by a constant factor per phase in expectation
  (Claim 1), giving O(log n) phases w.h.p., then Phase II as above:
  O(log n + 1/eps) rounds total.
"""

from __future__ import annotations

import math
from typing import Any

import networkx as nx

from repro.congest.algorithm import Inbox, NodeAlgorithm, NodeView, Outbox
from repro.congest.clique import CongestedCliqueNetwork
from repro.congest.network import RunResult
from repro.core.mvc_congest import (
    LocalSolver,
    PhaseOneAlgorithm,
    _default_local_solver,
    _trivial_cover_result,
    normalized_epsilon,
    red_edges_from_tokens,
    residual_graph_from_tokens,
)
from repro.core.results import DistributedCoverResult, square_solver_network

_TAG_TOKEN = 30
_TAG_DONE = 31
_TAG_VERDICT = 32
_TAG_STATUS = 33
_TAG_CAND = 34
_TAG_VOTE = 35
_TAG_WIN = 36


class DirectUpcastAlgorithm(NodeAlgorithm):
    """Every node ships its tokens straight to the leader (Lemma 9).

    Tokens come from ``node.state['tokens']``; the leader finishes with the
    full list.  Takes ``max_tokens_per_node + 1`` rounds.
    """

    def __init__(self, node: NodeView, leader: int) -> None:
        super().__init__(node)
        self.leader = leader
        self.queue = list(node.state.get("tokens", ()))
        self.collected: list[tuple[int, ...]] = (
            list(self.queue) if node.id == leader else []
        )
        self.waiting = node.n - 1

    def _step(self, inbox: Inbox) -> Outbox:
        if self.node.id == self.leader:
            for msg in inbox.values():
                if msg[0] == _TAG_TOKEN:
                    self.collected.append(tuple(msg[1:]))
            self.waiting -= sum(
                1 for msg in inbox.values() if msg[0] == _TAG_DONE
            )
            if self.waiting <= 0:
                self.finish(self.collected)
            return None
        if self.queue:
            return {self.leader: (_TAG_TOKEN, *self.queue.pop())}
        self.finish(None)
        return {self.leader: (_TAG_DONE,)}

    def on_start(self) -> Outbox:
        if self.node.n == 1:
            self.finish(self.collected)
            return None
        return self._step({})

    def on_round(self, inbox: Inbox) -> Outbox:
        return self._step(inbox)


class VerdictScatterAlgorithm(NodeAlgorithm):
    """The leader tells every node whether it is in the cover: one round."""

    def __init__(self, node: NodeView, leader: int, cover_ids: set[int] | None):
        super().__init__(node)
        self.leader = leader
        self.cover_ids = cover_ids  # only the leader holds a real set

    def on_start(self) -> Outbox:
        if self.node.id != self.leader:
            return None
        assert self.cover_ids is not None
        self.finish(self.node.id in self.cover_ids)
        return {
            other: (_TAG_VERDICT, 1 if other in self.cover_ids else 0)
            for other in range(self.node.n)
            if other != self.node.id
        }

    def on_round(self, inbox: Inbox) -> Outbox:
        msg = inbox.get(self.leader)
        if msg is not None and msg[0] == _TAG_VERDICT:
            self.finish(bool(msg[1]))
        return None


class RandomizedVotingPhaseOne(NodeAlgorithm):
    """Theorem 11's Phase I: randomized voting in O(log n) phases.

    Each phase costs four rounds: status exchange, candidate ranks, votes,
    winner announcements.  The phase budget is ``phases``; by the potential
    argument O(log n) phases suffice w.h.p., and the driver verifies the
    candidate set actually emptied (re-running with a larger budget on the
    rare failure).
    """

    def __init__(self, node: NodeView, threshold: float, phases: int) -> None:
        super().__init__(node)
        self.threshold = threshold
        self.phases = phases
        self.phase = 0
        self.step = 0
        self.in_R = True
        self.in_C = True
        self.in_S = False
        self.r_neighbors: set[int] = set()
        self.is_candidate = False
        self.rank: tuple[int, int] | None = None
        self.candidate_ranks: dict[int, int] = {}
        self.final_status = False
        self.leftover_candidate = False

    def _finalize(self) -> None:
        me = self.node.id
        tokens = [(me, u) for u in sorted(self.r_neighbors)]
        if self.in_R:
            tokens.append((me, me))
        self.node.state["in_S"] = self.in_S
        self.node.state["in_R"] = self.in_R
        self.node.state["tokens"] = tokens
        self.finish(
            {
                "in_S": self.in_S,
                "in_R": self.in_R,
                "leftover_candidate": self.leftover_candidate,
            }
        )

    def on_start(self) -> Outbox:
        if self.phases == 0:
            self.final_status = True
        return self.broadcast((_TAG_STATUS, 1 if self.in_R else 0))

    def on_round(self, inbox: Inbox) -> Outbox:
        if self.final_status:
            self.r_neighbors = {
                sender for sender, msg in inbox.items() if msg[1] == 1
            }
            self._finalize()
            return None
        if self.step == 0:
            self.r_neighbors = {
                sender for sender, msg in inbox.items() if msg[1] == 1
            }
            if self.in_C and len(self.r_neighbors) <= self.threshold:
                self.in_C = False
            self.is_candidate = self.in_C and len(self.r_neighbors) > self.threshold
            self.step = 1
            if self.is_candidate:
                # Announce candidacy to *everyone* (this is the clique):
                # all nodes then agree on whether any candidate survives
                # and can leave Phase I together as soon as none does.
                value = self.node.rng.randrange(self.node.n ** 4)
                self.rank = (value, self.node.id)
                return {
                    other: (_TAG_CAND, value)
                    for other in range(self.node.n)
                    if other != self.node.id
                }
            return None
        if self.step == 1:
            announcements = {
                sender: msg[1]
                for sender, msg in inbox.items()
                if msg[0] == _TAG_CAND
            }
            if not announcements and not self.is_candidate:
                # Globally quiescent: every node observes zero candidates.
                self._finalize()
                return None
            neighbors = set(self.node.neighbors)
            self.candidate_ranks = {
                sender: value
                for sender, value in announcements.items()
                if sender in neighbors
            }
            self.step = 2
            if self.in_R and self.candidate_ranks:
                best = max(
                    self.candidate_ranks,
                    key=lambda c: (self.candidate_ranks[c], c),
                )
                return {best: (_TAG_VOTE,)}
            return None
        if self.step == 2:
            self.step = 3
            if self.is_candidate:
                votes = sum(
                    1 for msg in inbox.values() if msg[0] == _TAG_VOTE
                )
                if votes >= len(self.r_neighbors) / 8.0:
                    self.in_C = False
                    return self.broadcast((_TAG_WIN,))
            return None
        # step 3: winners announced.
        if self.in_R and any(msg[0] == _TAG_WIN for msg in inbox.values()):
            self.in_R = False
            self.in_S = True
        self.phase += 1
        self.step = 0
        if self.phase >= self.phases:
            self.final_status = True
            self.leftover_candidate = self.in_C
        return self.broadcast((_TAG_STATUS, 1 if self.in_R else 0))


def _phase_two_clique(
    network: CongestedCliqueNetwork,
    local_solver: LocalSolver,
    phase_one: RunResult,
    **detail: Any,
) -> DistributedCoverResult:
    """Shared Phase II: direct upcast to the leader, solve, scatter verdicts.

    The cover is Phase I's ``S`` plus the leader's residual solution;
    ``detail`` extends the result's Phase II detail.
    """
    leader = network.n - 1
    gather = network.run(lambda view: DirectUpcastAlgorithm(view, leader))
    tokens = gather.by_id[leader]
    residual = residual_graph_from_tokens(tokens)
    red = red_edges_from_tokens(tokens)
    r_star = set(local_solver(residual, red))
    scatter = network.run(
        lambda view: VerdictScatterAlgorithm(
            view, leader, r_star if view.id == leader else None
        )
    )
    s_vertices = {v for v, out in phase_one.by_id.items() if out["in_S"]}
    return DistributedCoverResult(
        cover={network.label_of(v) for v in (s_vertices | r_star)},
        stats=phase_one.stats + (gather.stats + scatter.stats),
        detail={
            "residual_vertices": set(residual.nodes),
            "leader_solution": set(r_star),
            "upcast_rounds": gather.stats.rounds,
            **detail,
        },
    )


def approx_mvc_square_clique_deterministic(
    graph: nx.Graph,
    epsilon: float,
    network: CongestedCliqueNetwork | None = None,
    local_solver: LocalSolver | None = None,
    seed: int = 0,
    engine: str | None = None,
) -> DistributedCoverResult:
    """Corollary 10: deterministic (1+eps)-approximation in O(eps n + 1/eps).

    ``graph`` must be connected, simple and undirected; other inputs raise
    the typed errors of :mod:`repro.graphs.instance`.
    """
    network = square_solver_network(
        graph, network, seed, engine, CongestedCliqueNetwork
    )
    if local_solver is None:
        local_solver = _default_local_solver
    if epsilon > 1:
        return _trivial_cover_result(graph, network.word_bits)

    n = network.n
    l, _ = normalized_epsilon(epsilon)
    iterations = n // (l + 1) + 1
    network.reset_state()

    phase_one = network.run(
        lambda view: PhaseOneAlgorithm(view, threshold=l, iterations=iterations)
    )
    return _phase_two_clique(
        network, local_solver, phase_one,
        mode="clique-deterministic", iterations=iterations,
    )


def approx_mvc_square_clique_randomized(
    graph: nx.Graph,
    epsilon: float,
    network: CongestedCliqueNetwork | None = None,
    local_solver: LocalSolver | None = None,
    seed: int = 0,
    phase_budget_factor: float = 6.0,
    engine: str | None = None,
) -> DistributedCoverResult:
    """Theorem 11: randomized (1+eps)-approximation in O(log n + 1/eps).

    The voting phase budget is ``phase_budget_factor * log2(n) + 8``; if
    candidates survive (probability vanishing in n), the budget doubles and
    Phase I reruns — preserving both correctness and the w.h.p. round bound.
    ``phase_budget_factor`` must be a finite number >= 0.  ``graph`` must
    be connected, simple and undirected; other inputs raise the typed
    errors of :mod:`repro.graphs.instance`.
    """
    network = square_solver_network(
        graph, network, seed, engine, CongestedCliqueNetwork
    )
    if not (math.isfinite(phase_budget_factor) and phase_budget_factor >= 0):
        raise ValueError(
            f"phase_budget_factor must be a finite number >= 0, "
            f"got {phase_budget_factor!r}"
        )
    if local_solver is None:
        local_solver = _default_local_solver
    if epsilon > 1:
        return _trivial_cover_result(graph, network.word_bits)

    normalized_epsilon(epsilon)  # rejects epsilon <= 0 and NaN
    n = network.n
    threshold = 8.0 / epsilon + 2.0
    phases = int(phase_budget_factor * math.log2(max(n, 2))) + 8

    attempts = 0
    while True:
        attempts += 1
        network.reset_state()
        network.seed = seed + attempts - 1
        phase_one = network.run(
            lambda view: RandomizedVotingPhaseOne(view, threshold, phases)
        )
        leftovers = [
            label
            for label, out in phase_one.outputs.items()
            if out["leftover_candidate"]
        ]
        if not leftovers:
            break
        phases *= 2
        if attempts > 8:
            raise RuntimeError("voting phase failed to converge")

    return _phase_two_clique(
        network, local_solver, phase_one,
        mode="clique-randomized", phases=phases, attempts=attempts,
        threshold=threshold,
    )
