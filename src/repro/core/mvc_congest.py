"""Algorithm 1: deterministic (1+eps)-approximate G^2-MVC in CONGEST.

Reproduces Theorem 1 of the paper.  The algorithm runs in O(n/eps) rounds:

* **Phase I** (:class:`PhaseOneAlgorithm`): repeatedly, any node ``c`` that
  still has more than ``1/eps`` neighbors outside the cover adds its whole
  neighborhood to the cover.  ``N(c) cap R`` induces a clique in ``G^2``, so
  the optimum pays at least ``|N(c) cap R| - 1`` where we pay
  ``|N(c) cap R|`` — Lemma 5's (1+eps) accounting.  Symmetry is broken by
  maximum identifier among candidates within two hops (as the paper
  prescribes), which our implementation realizes in four communication
  rounds per iteration: status exchange, candidate announcement, 2-hop max
  relay, winner announcement.  Each iteration with a surviving candidate
  has a winner removing more than ``1/eps`` vertices, so
  ``floor(eps * n) + 1`` iterations always suffice.

* **Phase II** (:func:`run_phase_two`, shared with Theorem 7): the leader
  (maximum id — identifiers are common knowledge) builds a BFS tree, every
  node pipelines its at most ``1/eps`` incident edges of ``F = {{u, v} in
  E : u in U}`` upwards (Lemma 2), the leader reconstructs ``H = G^2[U]``
  from ``F`` alone (Lemma 3), solves MVC on ``H`` locally (CONGEST allows
  unbounded local computation) and pipelines the solution back down.

Every bit of the above crosses a metered simulator edge; the returned
statistics are honest CONGEST costs.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from itertools import chain
from typing import Any

import networkx as nx

from repro.congest.algorithm import Inbox, NodeAlgorithm, NodeView, Outbox
from repro.congest.message import payload_words
from repro.congest.network import CongestNetwork, RunResult, RunStats
from repro.congest.primitives import (
    BroadcastAlgorithm,
    ConvergecastAlgorithm,
    broadcast_bulk,
    build_bfs_tree,
    convergecast_bulk,
)
from repro.core.results import DistributedCoverResult, square_solver_network
from repro.exact.vertex_cover import minimum_vertex_cover

_TAG_STATUS = 10
_TAG_CAND = 11
_TAG_RELAY = 12
_TAG_WIN = 13

LocalSolver = Callable[[nx.Graph, set[frozenset[int]]], set[int]]


def normalized_epsilon(epsilon: float) -> tuple[int, float]:
    """Return ``(l, eps')`` with ``eps' = 1/l`` and ``l = ceil(1/eps)``.

    Lemma 5 requires ``1/eps`` to be an integer; Theorem 1's proof rounds
    ``eps`` down to ``1/ceil(1/eps)``.  Rejects ``eps <= 0`` and NaN.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    l = max(1, math.ceil(1.0 / epsilon))
    return l, 1.0 / l


class PhaseOneAlgorithm(NodeAlgorithm):
    """Phase I of Algorithm 1 (and of its weighted/clique variants).

    Runs ``iterations`` rounds of the candidate/winner protocol with
    candidacy threshold ``|N(c) cap R| > threshold``.  On completion each
    node records in its stage state:

    * ``in_S`` — whether the node joined the cover during Phase I,
    * ``in_R`` — whether it is still uncovered (``U = V minus S``),
    * ``u_neighbors`` — its neighbors inside ``U``,
    * ``tokens`` — the convergecast tokens encoding its incident ``F``
      edges (pairs ``(v, u)``) plus the self-marker ``(v, v)`` if
      ``v in U``.

    A node built with ``in_R=False`` starts in the cover.  Variants change
    the protocol only through the message tags, :meth:`_status`,
    :meth:`_read_statuses`, :meth:`_win_payload`, :meth:`_joins` and
    :attr:`weight_of`.
    """

    tag_status, tag_cand, tag_relay, tag_win = (
        _TAG_STATUS, _TAG_CAND, _TAG_RELAY, _TAG_WIN
    )
    #: Known vertex weights; when set, each token ``(v, u)`` carries
    #: ``weight_of[u]`` as a third entry.
    weight_of: dict[int, int] | None = None

    def __init__(
        self, node: NodeView, threshold: float, iterations: int,
        in_R: bool = True,
    ) -> None:
        super().__init__(node)
        self.threshold = threshold
        self.iterations = iterations
        self.iteration = 0
        self.step = 0  # 0=sent status, 1=sent cand, 2=sent relay, 3=sent win
        self.in_R = in_R
        self.in_C = True
        self.in_S = not in_R
        self.r_neighbors: set[int] = set()
        #: This iteration's WIN payload; None while not a candidate.
        self.win: tuple | None = None
        self.local_max = -1
        self.final_status = False
        #: Iteration at which this node joined S (None if it never did).
        #: Model-level and engine-independent, so drivers may derive
        #: deterministic convergence curves from it.
        self.join_iteration: int | None = None

    # -- variant hooks -----------------------------------------------------

    def _status(self) -> tuple:
        return (self.tag_status, 1 if self.in_R else 0)

    def _read_statuses(self, inbox: Inbox) -> set[int]:
        """The neighbors whose STATUS says they are still in ``R``."""
        return {sender for sender, msg in inbox.items() if msg[1] == 1}

    def _win_payload(self) -> tuple | None:
        """The WIN message this node announces if it wins, or None if it
        is no candidate; a winner leaves the candidate set ``C``."""
        if self.in_C and len(self.r_neighbors) > self.threshold:
            return (self.tag_win,)
        return None

    def _joins(self, inbox: Inbox) -> bool:
        """Whether the WIN announcements in ``inbox`` take this node."""
        return any(msg[0] == self.tag_win for msg in inbox.values())

    def _finalize(self, inbox: Inbox) -> None:
        u_neighbors = sorted(self._read_statuses(inbox))
        self.finish(
            _finish_phase_one(
                self.node.state, self.node.id, u_neighbors, self.in_S,
                self.in_R, self.join_iteration, self.weight_of,
            )
        )

    # -- protocol ----------------------------------------------------------

    def on_start(self) -> Outbox:
        if self.iterations == 0:
            self.final_status = True
        return self.broadcast(self._status())

    def on_round(self, inbox: Inbox) -> Outbox:
        if self.final_status:
            self._finalize(inbox)
            return None
        if self.step == 0:
            # Statuses arrived; announce candidacy.
            self.r_neighbors = self._read_statuses(inbox)
            self.win = self._win_payload()
            self.step = 1
            if self.win is not None:
                return self.broadcast((self.tag_cand,))
            return None
        if self.step == 1:
            # Candidate announcements arrived; relay the 1-hop max.
            local_max = max(inbox, default=-1)
            if self.win is not None and self.node.id > local_max:
                local_max = self.node.id
            self.local_max = local_max
            self.step = 2
            return self.broadcast((self.tag_relay, local_max))
        if self.step == 2:
            # 2-hop maxima arrived; winners announce.
            two_hop_max = self.local_max
            for msg in inbox.values():
                if msg[1] > two_hop_max:
                    two_hop_max = msg[1]
            self.step = 3
            if self.win is not None and self.node.id >= two_hop_max:
                self.in_C = False  # the winner leaves the candidate set
                return self.broadcast(self.win)
            return None
        # step == 3: winner announcements arrived; neighbors join the cover.
        if self.in_R and self._joins(inbox):
            self.in_R = False
            self.in_S = True
            self.join_iteration = self.iteration
        self.iteration += 1
        self.step = 0
        if self.iteration >= self.iterations:
            self.final_status = True
        return self.broadcast(self._status())

    def wants_wake(self) -> bool:
        # Guaranteed-traffic cadence (see NodeAlgorithm.wants_wake): every
        # live neighbor broadcasts STATUS at each cycle start and RELAY at
        # step 1, and all nodes advance in lockstep, so the invocations
        # that *process* those broadcasts (steps 0 and 2, and the final
        # finalize round) are always traffic-woken.  Steps 1 and 3 must
        # self-wake: the node broadcasts RELAY/STATUS there even when its
        # own inbox was empty (no candidate or no winner nearby).  An
        # isolated node never receives traffic and must always self-wake.
        return self.step in (1, 3) or not self.node.neighbors


def _finish_phase_one(
    state: dict,
    me: int,
    u_neighbors: list[int],
    in_S: bool,
    in_R: bool,
    join_iteration: int | None,
    weight_of: dict[int, int] | None = None,
) -> dict[str, Any]:
    """Write a finished Phase I node's stage state; return its output."""
    tokens = [(me, u) for u in u_neighbors]
    if in_R:
        tokens.append((me, me))
    if weight_of is not None:
        tokens = [token + (weight_of[token[1]],) for token in tokens]
    state["in_S"] = in_S
    state["in_R"] = in_R
    state["u_neighbors"] = u_neighbors
    state["tokens"] = tokens
    return {"in_S": in_S, "in_R": in_R, "join_iteration": join_iteration}


def phase_one_bulk(
    network: CongestNetwork, threshold: int, iterations: int
) -> Iterator[tuple]:
    """:class:`PhaseOneAlgorithm`'s bulk form: its rounds as numpy arrays.

    Each protocol step is a semiring product with the adjacency matrix,
    run as a row reduction over the network's CSR arrays: status-1
    neighbor counts, then the 1-hop and 2-hop maxima, then "any winner
    next door".  Every send is a broadcast, so a node broadcasting ``w``
    words meters ``degree * w`` words.  Yields each round's ``(messages,
    words, max_words, cut_words, awake, outputs)`` for
    :class:`~repro.congest.engine.BulkRounds` from the returned generator,
    all ``n`` nodes awake in every round (v2 invokes each, by traffic or
    self-wake, until the last); the last round writes every node's stage
    state and output as :meth:`PhaseOneAlgorithm._finalize` does.  Needs
    ``iterations >= 0``; raises ``ImportError`` at once without numpy.
    """
    import numpy as np

    n = network.n
    adjacency = network._adjacency
    word_bits = network.word_bits
    limit = network.word_limit if network.strict else math.inf
    cut = network._cut
    degree = np.fromiter(map(len, adjacency), np.int64, n)
    has_neighbors = degree > 0
    starts = np.zeros(n, np.int64)
    np.cumsum(degree[:-1], out=starts[1:])
    indices = np.fromiter(chain.from_iterable(adjacency), np.int64)
    cut_degree = np.zeros(n, np.int64)
    if cut:
        for v, neighbors in enumerate(adjacency):
            cut_degree[v] = sum(frozenset((v, u)) in cut for u in neighbors)
    ids = np.arange(n)

    def cost(payload: tuple) -> int:
        return payload_words(payload, word_bits)

    in_r_words, out_r_words = cost((_TAG_STATUS, 1)), cost((_TAG_STATUS, 0))
    cand_words = cost((_TAG_CAND,))
    win_words = cost((_TAG_WIN,))
    relay_words = np.array([cost((_TAG_RELAY, m)) for m in range(-1, n)])

    def over_neighbors(ufunc, values, empty):
        # ``ufunc`` over each node's neighbors' ``values``; ``empty`` (the
        # identity on these values) pads the last row and replaces the
        # slot reduceat gives a node without neighbors.
        rows = ufunc.reduceat(np.append(values[indices], empty), starts)
        return np.where(has_neighbors, rows, empty)

    def meter(words) -> tuple:
        # ``words``: each node's broadcast cost this round, 0 if silent.
        heaviest = int(words.max(initial=0, where=has_neighbors))
        if heaviest > limit:
            v = int(np.flatnonzero(has_neighbors & (words > limit))[0])
            raise network._oversize(v, adjacency[v][0], int(words[v]))
        return (
            int(degree[words > 0].sum()),
            int(degree @ words),
            heaviest,
            int(cut_degree @ words),
            n,
            {},
        )

    def rounds() -> Iterator[tuple]:
        in_R = np.ones(n, bool)
        in_C = np.ones(n, bool)
        joined = np.full(n, -1, np.int64)
        yield meter(np.where(in_R, in_r_words, out_r_words))
        for iteration in range(iterations):
            r_neighbors = over_neighbors(np.add, in_R, 0)
            candidate = in_C & (r_neighbors > threshold)
            yield meter(np.where(candidate, cand_words, 0))
            own = np.where(candidate, ids, -1)
            local_max = np.maximum(over_neighbors(np.maximum, own, -1), own)
            yield meter(relay_words[local_max + 1])
            two_hop_max = np.maximum(
                local_max, over_neighbors(np.maximum, local_max, -1)
            )
            winner = candidate & (ids >= two_hop_max)
            in_C &= ~winner
            yield meter(np.where(winner, win_words, 0))
            joins = in_R & (over_neighbors(np.add, winner, 0) > 0)
            in_R &= ~joins
            joined[joins] = iteration
            yield meter(np.where(in_R, in_r_words, out_r_words))
        in_r = in_R.tolist()
        join_iteration = [None if i < 0 else i for i in joined.tolist()]
        outputs = {
            v: _finish_phase_one(
                network.node_state[v],
                v,
                [u for u in neighbors if in_r[u]],
                not in_r[v],
                in_r[v],
                join_iteration[v],
            )
            for v, neighbors in enumerate(adjacency)
        }
        yield 0, 0, 0, 0, n, outputs

    return rounds()


def residual_graph_from_tokens(tokens: Iterable[tuple[int, int]]) -> nx.Graph:
    """Reconstruct ``H = G^2[U]`` from the leader's tokens (Lemma 3).

    Tokens are pairs ``(v, u)`` meaning "``{v, u}`` is an edge of ``G`` and
    ``u in U``", plus self-markers ``(v, v)`` meaning ``v in U``.  Following
    the paper: ``F' = F cup F'_1`` where ``F'_1`` joins two ``U``-vertices
    with a common ``F``-neighbor.
    """
    members: set[int] = set()
    adjacency: dict[int, set[int]] = {}
    for v, u in tokens:
        members.add(u)
        if v != u:
            adjacency.setdefault(v, set()).add(u)
            adjacency.setdefault(u, set()).add(v)
    residual = nx.Graph()
    residual.add_nodes_from(members)
    for v, partners in adjacency.items():
        in_u = [p for p in partners if p in members]
        if v in members:
            residual.add_edges_from((v, p) for p in in_u)
        # Two U-vertices sharing the F-neighbor v are G^2-adjacent.
        for i, a in enumerate(in_u):
            for b in in_u[i + 1:]:
                residual.add_edge(a, b)
    return residual


def red_edges_from_tokens(
    tokens: Iterable[tuple[int, int]]
) -> set[frozenset[int]]:
    """The ``F`` edges with both endpoints in ``U`` (the 'red' edges of H)."""
    members = {u for _, u in tokens}
    return {
        frozenset((v, u))
        for v, u in tokens
        if v != u and v in members and u in members
    }


def _default_local_solver(
    residual: nx.Graph, red: set[frozenset[int]]
) -> set[int]:
    return minimum_vertex_cover(residual)


def _trivial_cover_result(graph: nx.Graph, word_bits: int) -> DistributedCoverResult:
    """eps > 1: all vertices form a 2 <= (1+eps) approximation (Lemma 6)."""
    return DistributedCoverResult(
        cover=set(graph.nodes),
        stats=RunStats(word_bits=word_bits),
        detail={"mode": "trivial", "iterations": 0},
    )


def approx_mvc_square(
    graph: nx.Graph,
    epsilon: float,
    network: CongestNetwork | None = None,
    local_solver: LocalSolver | None = None,
    seed: int = 0,
    engine: str | None = None,
) -> DistributedCoverResult:
    """Run Algorithm 1 end to end on the CONGEST simulator.

    Parameters
    ----------
    graph:
        Connected communication network ``G``; the returned set covers
        ``G^2``.  Other inputs raise the typed errors of
        :mod:`repro.graphs.instance`.
    epsilon:
        Approximation slack; the cover is at most ``(1+eps) * OPT(G^2)``.
    network:
        Optionally a pre-built network (e.g. with a metered cut or custom
        word limit); defaults to a fresh :class:`CongestNetwork`.
    local_solver:
        How the leader solves the residual instance ``H = G^2[U]``.
        Defaults to exact branch and bound; Corollary 17 plugs in the
        centralized 5/3-approximation instead.
    engine:
        Execution engine for a freshly built network (``"v1"``/``"v2"``);
        incompatible with passing ``network``.
    """
    network = square_solver_network(graph, network, seed, engine)
    if local_solver is None:
        local_solver = _default_local_solver
    if epsilon > 1:
        return _trivial_cover_result(graph, network.word_bits)

    n = network.n
    l, _eps_prime = normalized_epsilon(epsilon)
    iterations = n // (l + 1) + 1
    network.reset_state()

    phase_one = network.run(
        partial(PhaseOneAlgorithm, threshold=l, iterations=iterations),
        label="phase1",
        bulk=partial(phase_one_bulk, threshold=l, iterations=iterations),
    )

    def solve(tokens: list[tuple[int, int]]) -> tuple[set[int], nx.Graph]:
        residual = residual_graph_from_tokens(tokens)
        r_star = set(local_solver(residual, red_edges_from_tokens(tokens)))
        unknown = r_star - set(residual.nodes)
        if unknown:
            raise ValueError(
                f"local solver returned foreign vertices: {unknown}"
            )
        return r_star, residual

    result = run_phase_two(
        network, phase_one, solve,
        mode="congest", iterations=iterations, threshold=l,
    )

    collector = getattr(network, "collector", None)
    if collector is not None:
        # Deterministic convergence curves from the join stamps: cover
        # growth per Phase I iteration (closed by the final cover once
        # the leader's residual solution lands) and the shrinking
        # uncovered set |R|.  Derived from model state, never engine
        # scheduling, so the curves are engine- and backend-invariant.
        joins = sorted(
            out["join_iteration"]
            for out in phase_one.outputs.values()
            if out["in_S"]
        )
        cover_curve = []
        joined = 0
        for i in range(iterations):
            while joined < len(joins) and joins[joined] <= i:
                joined += 1
            cover_curve.append(joined)
        collector.record_convergence(
            "cover_size", cover_curve + [len(result.cover)]
        )
        collector.record_convergence(
            "uncovered_nodes", [n - c for c in cover_curve]
        )
    return result


def run_phase_two(
    network: CongestNetwork,
    phase_one: RunResult,
    solve: Callable[[list[tuple]], tuple[set[int], nx.Graph]],
    **detail: Any,
) -> DistributedCoverResult:
    """Phase II after ``phase_one``, shared by Theorems 1 and 7.

    Builds the BFS tree, convergecasts every node's tokens to the leader
    (maximum id), which runs ``solve(tokens) -> (r_star, residual)``, and
    broadcasts ``r_star``.  The cover is Phase I's ``S`` plus ``r_star``;
    its ``detail`` is ``detail`` followed by the Phase I cover, the residual
    vertices, the leader's solution and each stage's rounds.
    """
    leader = network.n - 1
    bfs = build_bfs_tree(network, label="bfs")
    gather = network.run(
        ConvergecastAlgorithm, label="upcast", bulk=convergecast_bulk
    )
    r_star, residual = solve(gather.by_id[leader])
    network.node_state[leader]["bcast_tokens"] = [(v,) for v in sorted(r_star)]
    spread = network.run(
        BroadcastAlgorithm, label="broadcast", bulk=broadcast_bulk
    )

    stages = {"phase1": phase_one, "bfs": bfs, "upcast": gather,
              "broadcast": spread}
    total = RunStats(word_bits=network.word_bits)
    for stage in stages.values():
        total = total + stage.stats
    s_vertices = {v for v, out in phase_one.by_id.items() if out["in_S"]}
    label_of = network.label_of
    return DistributedCoverResult(
        cover={label_of(v) for v in s_vertices | r_star},
        stats=total,
        detail={
            **detail,
            "phase_one_cover": {label_of(v) for v in s_vertices},
            "residual_vertices": {label_of(v) for v in residual.nodes},
            "leader_solution": {label_of(v) for v in r_star},
            "phase_rounds": {
                name: stage.stats.rounds for name, stage in stages.items()
            },
        },
    )
