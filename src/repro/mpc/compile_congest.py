"""CONGEST-to-MPC round compilation: run any ``NodeAlgorithm`` on machines.

The classical simulation argument — one CONGEST round compiles to O(1) MPC
rounds once every vertex's incident messages fit on its host machine —
made executable.  :class:`MPCCongestNetwork` partitions the vertices of a
graph across low-space machines (budget ``S = ceil(n^alpha)`` words) and
executes any existing :class:`~repro.congest.algorithm.NodeAlgorithm`
**unchanged**, routing each CONGEST round through exactly one metered
shuffle of :class:`~repro.mpc.runtime.MPCRuntime`: a message between
co-hosted vertices stays machine-local, everything else becomes an
``(sender, target, payload)`` envelope to the target's host.

With ``compress=k > 1`` the compiler additionally performs **round
compression** — the "simulation with speedup" of the low-space MPC
literature, made executable.  When per-machine memory allows, ``k``
consecutive CONGEST rounds batch into *one* shuffle: each machine
prefetches the ``k``-hop-relevant frontier for its hosted vertices
(graph-exponentiation-style neighbor state — id plus adjacency per node
within ``k - 1`` hops — plus every boundary message addressed into that
neighborhood), then replays the ``k`` rounds locally with no further
communication.  The window length is chosen *adaptively*: the largest
``k' <= k`` whose prefetched frontier fits every machine's window budget
(:meth:`~repro.mpc.machine.Machine.window_budget_words`, the O(S) bound
with the explicit ``io_factor`` constant), falling back to the classical
``k' = 1`` compilation rather than raising.  Compression changes only
the MPC ledger — ``MPCRunStats.shuffles`` drops below
``MPCRunStats.congest_rounds`` — never the CONGEST ledger: outputs,
``RunStats``, traces and the per-round event stream stay word-for-word
identical to engine v2 at every ``k`` (the parity harness asserts it).

Two ledgers are kept at once, and that is the point:

* the **CONGEST ledger** — a compiled run is engine v2's run: the same
  setup and result (``CongestNetwork``'s), the same activity-scheduled
  loop (:func:`~repro.congest.engine.drive`) and the same
  :class:`~repro.congest.engine.RoundKernel` rounds, so ``RunResult``
  outputs, ``RunStats``, traces and the per-round ``RoundEvent`` stream —
  ``awake`` included — are word-for-word identical to engine v2 on the
  same graph and seed (the *parity claim*, asserted by
  :func:`solve_with_parity` against a live engine-v2 shadow network).
  The compiler supplies only the loop's window step: plan the window,
  shuffle or prefetch before its first round, close it after its last;
* the **MPC ledger** — the runtime meters shuffle words, per-machine
  send/receive loads and budget violations, which is where ``alpha``
  bites: smaller budgets mean more machines, more cross traffic and
  eventually :class:`~repro.mpc.machine.MemoryBudgetExceeded`.

Each message is metered once and each window is costed once.  The kernel
hands back every round's sends as ``(sender, targets, payload, words)``
batches, and that word count is carried downstream: an envelope costs
``ENVELOPE_WORDS`` plus one word per node id (ids are below ``n``, so one
word at ``word_bits_for(n)``) plus the carried payload cost, while
prefetched node-state payloads use the per-node costs tabled once per
network.  The window planner sums those costs per machine for the window
it picks and the runtime's shuffle meters the sums as they are; no
envelope is ever built.  Shard workers return the same metered batches.

The MPC analogues anchoring this adapter: deterministic low-space ruling
sets compile CONGEST-style local steps the same way ([PaiP22]_,
arXiv:2205.12686), and the component-stability framework ([CzumajDP21]_,
arXiv:2106.01880) is exactly about which such simulations are legitimate
in sublinear space.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from operator import itemgetter
from typing import Any, NamedTuple

import networkx as nx

from repro.congest.engine import RoundKernel, SentBatch, drive
from repro.congest.message import payload_words
from repro.congest.network import (
    AlgorithmFactory,
    BulkStage,
    CongestNetwork,
    RoundEvent,
    RoundRecord,
    RunResult,
    RunStats,
)
from repro.mpc import parallel as _parallel
from repro.mpc.machine import Machine, memory_budget
from repro.mpc.options import RunOptions
from repro.mpc.partition import partition_vertices
from repro.mpc.runtime import ENVELOPE_WORDS, MPCRuntime

#: Window cap used by ``compress="auto"``: the planner probes windows up
#: to this length and the peak-hold estimator throttles the probing when
#: frontiers are persistently far over budget.
AUTO_COMPRESS_CAP = 8

#: Words of a shuffled envelope besides its payload: the routing header
#: plus the sender and target ids, one word each (ids are below ``n``).
_ENVELOPE_HEAD = ENVELOPE_WORDS + 2


class _Frontier(NamedTuple):
    """The graph-static frontier of one window radius (``_frontier_at``)."""

    watched: tuple[tuple[int, ...], ...]  # per machine: the nodes it watches
    fan: list[int]  # per node: the machines watching it, minus its host
    state_in: list[int]  # per machine: state words received
    state_out: list[int]  # per machine: state words sent
    state_copies: int  # node-state copies shipped
    state_over: bool  # whether state alone exceeds a window budget


class ParityError(AssertionError):
    """The compiled run diverged from the engine-v2 shadow run."""


def _tee(first, second):
    """Combine two ``on_round`` hooks, either of which may be None."""
    if first is None or second is None:
        return second if first is None else first

    def fanout(event):
        first(event)
        second(event)

    return fanout


class MPCCongestNetwork(CongestNetwork):
    """A CONGEST network whose rounds execute on low-space MPC machines.

    Drop-in for :class:`CongestNetwork` everywhere a solver accepts
    ``network=``: identifier mapping, metering state, per-node randomness,
    state handling and the run setup are inherited, and the rounds run on
    engine v2's loop whatever ``REPRO_ENGINE`` says, so results match the
    CONGEST engines exactly; only the MPC ledger is added, by this class's
    window step (:meth:`open_window` / :meth:`close_window`).
    Construction validates the graph as an
    :class:`~repro.graphs.instance.Instance` (an empty or non-simple graph
    raises its typed error before anything is partitioned), then
    partitions vertices and their adjacency lists across machines and
    charges each machine's storage — a too-small ``alpha`` fails here,
    before any round runs.

    ``options`` (:class:`~repro.mpc.options.RunOptions`; by default
    ``RunOptions()``: no compression, one shard, no faults) sets the
    compression window, the shard-worker count and the fault plan.  A
    fault plan gets one injector for the network's lifetime.
    """

    engine_name = "mpc"

    def __init__(
        self,
        graph: nx.Graph,
        alpha: float = 0.8,
        word_limit: int = 8,
        strict: bool = True,
        seed: int = 0,
        cut: Iterable[tuple[Any, Any]] | None = None,
        on_round: Callable[[RoundEvent], None] | None = None,
        options: RunOptions | None = None,
    ) -> None:
        super().__init__(
            graph,
            word_limit=word_limit,
            strict=strict,
            seed=seed,
            cut=cut,
            on_round=on_round,
        )
        if options is None:
            options = RunOptions()
        self.options = options
        self._estimator = None
        if options.compress == "auto":
            from repro.metrics.adaptive import PeakHoldEstimator

            self._max_compress = AUTO_COMPRESS_CAP
            self._estimator = PeakHoldEstimator()
        else:
            self._max_compress = options.compress
        self.alpha = alpha
        self.budget_words = memory_budget(self.n, alpha)
        self.assignment = partition_vertices(
            self.instance, self.budget_words, seed=seed
        )
        self._host = self.assignment.machine_of
        self.machines = [
            Machine(mid, self.budget_words) for mid in range(self.num_machines)
        ]
        for machine, load in zip(self.machines, self.assignment.loads):
            machine.charge(load, what="its vertices and their adjacency")
        self.runtime = MPCRuntime(self.machines, self.word_bits)
        self.runtime.fault_injector = options.fault_injector()
        # Frontier tables for round compression, built lazily on the first
        # compressed window (all graph-static, so one build serves every
        # run on this network).
        self._hop_dist: list[dict[int, int]] | None = None
        self._state_costs: list[int] | None = None
        # radius -> the planner's frontier table (see _frontier_at).
        self._frontier: dict[int, _Frontier] = {}
        #: Window-planner work counters: ``windows_planned`` counts full
        #: candidate scans, ``state_radii_built`` counts (once-per-radius)
        #: static frontier-load builds — the latter stays bounded by the
        #: window cap no matter how many windows are planned.
        self.planner_stats = {"windows_planned": 0, "state_radii_built": 0}

    @property
    def num_machines(self) -> int:
        return self.assignment.num_machines

    def partition_digest(self) -> str:
        """Cross-process-stable fingerprint of the vertex partition."""
        return self.assignment.digest()

    def mpc_summary(self) -> dict[str, Any]:
        """JSON-ready MPC ledger for sweep payloads and benchmarks."""
        summary = {
            "model": "mpc",
            "alpha": self.alpha,
            "compress": self.options.compress,
            "budget_words": self.budget_words,
            "machines": self.num_machines,
            "partition_digest": self.partition_digest(),
            "shuffle": self.runtime.stats.to_json(),
        }
        if self._estimator is not None:
            auto = self._estimator.to_json()
            auto["cap"] = self._max_compress
            summary["auto"] = auto
        return summary

    # -- compiled execution -------------------------------------------------

    def run(
        self,
        factory: AlgorithmFactory,
        inputs: Mapping[Any, Any] | None = None,
        max_rounds: int | None = None,
        trace: bool = False,
        on_round: Callable[[RoundEvent], None] | None = None,
        label: str | None = None,
        bulk: BulkStage | None = None,
    ) -> RunResult:
        """Execute one CONGEST algorithm, at most one shuffle per round.

        The run's setup and result are :class:`CongestNetwork`'s and its
        rounds run on engine v2's loop and round kernel; what the compiler
        adds is the MPC ledger for the sends each round leaves behind.
        At ``compress=1`` (or whenever a larger window does not fit) each
        round's sends cross one :meth:`MPCRuntime.shuffle`; with
        ``compress=k`` the adaptive window planner batches up to ``k``
        rounds behind a single prefetch shuffle and replays them
        machine-locally.  Either way the CONGEST-side metering
        (``stats``, traces, round events) comes from the same kernel
        rounds, so the parity contract is independent of the window
        length.  A stage's ``bulk`` form never runs here: the ledger
        needs each round's sends, so ``factory``'s handlers always do.
        """
        return self._run(
            self._compiled_rounds, factory, inputs, max_rounds, trace,
            on_round, label,
        )

    def _compiled_rounds(
        self, algorithms: list[Any], stats: RunStats, *loop: Any
    ) -> None:
        """The rounds of :meth:`run`, with this network as the window step.

        The algorithms are built in the parent, so any construction-time
        randomness draws from the same per-node streams whichever executor
        runs the rounds: one in-process recording kernel, or — with more
        than one shard worker — shard workers each driving a kernel over
        their machines' vertices.  Every shuffle is metered here, between
        rounds, in both cases.
        """
        # The shuffle barrier and the fault plane observe through the
        # runtime's recorder, after the fact; neither reads the clock.
        self.runtime.tracer = self.tracer
        workers = self.options.shard_workers(self.num_machines)
        shards = self._node_shards(workers) if workers > 1 else []
        if len(shards) > 1:
            with _ShardedRounds(self, algorithms, stats, shards) as rounds:
                drive(rounds, self.n, stats, *loop, window=self)
        else:
            kernel = RoundKernel(self, algorithms, stats, record=True)
            drive(kernel, self.n, stats, *loop, window=self)

    def open_window(self, sends: list[SentBatch], done: set[int]) -> int:
        """Meter the last round's sends; return the window's length.

        :meth:`_plan_window` picks the length ``k`` and sums the loads of
        the one shuffle that opens the window — the classical one-round
        shuffle at ``k = 1``, a ``k``-round prefetch otherwise, whose
        rounds then replay with no further shuffle — and those sums cross
        :meth:`MPCRuntime.shuffle` as they are.  ``done`` holds the
        finished node ids.
        """
        host = self._host
        live_machines = len(
            {host[nid] for nid in range(self.n) if nid not in done}
        )
        window, in_words, out_words, messages = self._plan_window(sends)
        if window > 1 and self.tracer is not None:
            self.tracer.begin("window", cat="mpc", k=window)
        self.runtime.shuffle(
            in_words, out_words, messages, active=live_machines,
            congest_rounds=window,
        )
        return window

    def close_window(self, window: int, executed: int) -> None:
        """End a window: give back the rounds it never replayed."""
        if window > 1:
            self.runtime.absorb_early_finish(window - executed)
            if self.tracer is not None:
                self.tracer.end(executed=executed)

    def _node_shards(self, workers: int) -> list[tuple[int, ...]]:
        """Group hosted node ids by shard: machines round-robin to workers.

        Grouping by machine (not by node) keeps a machine's whole vertex
        set on one shard worker, mirroring the model: a shard executes the
        local computation of *machines*, the parent executes the shuffles.
        Empty shards (machines with no vertices) are dropped.
        """
        shards = []
        for machine_ids in _parallel.plan_shards(self.num_machines, workers):
            members = set(machine_ids)
            nodes = tuple(
                nid for nid in range(self.n) if self._host[nid] in members
            )
            if nodes:
                shards.append(nodes)
        return shards

    # -- round compression --------------------------------------------------

    def _ensure_frontier_tables(self) -> None:
        """Hop distances and state-payload costs, built once per network.

        ``_hop_dist[mid]`` maps node id -> hop distance from machine
        ``mid``'s hosted vertex set, computed to the maximum window length
        minus one hop by multi-source BFS; nodes further away are absent.
        The state payload of node ``u`` is its id plus its adjacency tuple
        — exactly the words hosting ``u`` costs — which is what a machine
        prefetches to replay ``u`` locally during a compressed window.
        """
        if self._hop_dist is not None:
            return
        max_radius = self._max_compress - 1
        hop_dist: list[dict[int, int]] = []
        for mid in range(self.num_machines):
            dist = {
                u: 0 for u, host in enumerate(self._host) if host == mid
            }
            frontier = list(dist)
            for d in range(1, max_radius + 1):
                grown: list[int] = []
                for u in frontier:
                    for v in self._adjacency[u]:
                        if v not in dist:
                            dist[v] = d
                            grown.append(v)
                frontier = grown
                if not frontier:
                    break
            hop_dist.append(dist)
        self._hop_dist = hop_dist
        self._state_costs = [
            ENVELOPE_WORDS
            + payload_words((u,) + self._adjacency[u], self.word_bits)
            for u in range(self.n)
        ]

    def _frontier_at(self, radius: int) -> _Frontier:
        """The graph-static half of a window of ``radius + 1`` rounds.

        Machine ``mid`` watches node ``u`` at radius ``r`` when ``u`` lies
        within ``r`` hops of a vertex ``mid`` hosts — then the window
        obliges ``mid`` to prefetch ``u``'s state and every message
        addressed to ``u``.  The table lists each machine's watched nodes
        (radius 0: the nodes it hosts), each node's watcher count beyond
        its host, and the state loads: every foreign node's id plus
        adjacency, shipped once to each watcher.  None of it depends on
        the pending messages, so each radius is built once, cached for the
        network's lifetime and shared by every window planned afterwards;
        ``planner_stats["state_radii_built"]`` pins the build count.
        """
        cached = self._frontier.get(radius)
        if cached is not None:
            return cached
        self._ensure_frontier_tables()
        host = self._host
        costs = self._state_costs
        watched = tuple(
            tuple(u for u, d in dist.items() if d <= radius)
            for dist in self._hop_dist
        )
        fan = [-1] * self.n
        state_in = []
        for mid, nodes in enumerate(watched):
            load = 0
            for u in nodes:
                fan[u] += 1
                if host[u] != mid:
                    load += costs[u]
            state_in.append(load)
        state_out = [0] * self.num_machines
        for u, extra in enumerate(fan):
            state_out[host[u]] += costs[u] * extra
        budgets = [m.window_budget_words() for m in self.machines]
        cached = self._frontier[radius] = _Frontier(
            watched, fan, state_in, state_out, sum(fan),
            any(
                w_in > budget or w_out > budget
                for w_in, w_out, budget in zip(state_in, state_out, budgets)
            ),
        )
        if radius:
            self.planner_stats["state_radii_built"] += 1
        return cached

    def _plan_window(
        self, sends: list[SentBatch]
    ) -> tuple[int, list[int], list[int], int]:
        """Choose this window's length ``k`` and cost its opening shuffle.

        Returns ``(k, in_words, out_words, messages)``: the window length
        and the per-machine loads and message count of the one shuffle
        that carries it.  This is the only place the frontier-cost rule
        lives.  A pending message ships as an envelope of
        ``_ENVELOPE_HEAD`` words plus the word count the kernel carried
        (no payload is walked here) to every machine watching its target
        at radius ``k - 1``, except the sender's host; the state payload
        of each node ships at its tabled cost to every foreign machine
        within ``k - 1`` hops.  Messages are deliberately *replicated* to
        every watching machine: that fan-out is the real word cost of
        graph exponentiation.

        ``k = 1`` is the classical one-round shuffle, the only one costed
        at ``compress=1`` or while the auto estimator skips planning.
        Otherwise each candidate up to the window cap (``compress``, or
        ``AUTO_COMPRESS_CAP`` for ``compress="auto"``) is costed from the
        radius-``k - 1`` table of :meth:`_frontier_at`.  Every send goes to
        a neighbor, so from radius 1 on the sender's host watches every
        target: a machine's message in-load is the incoming cost of its
        watched nodes minus what its own senders sent, and the sender's
        host ships each message once per other watcher of the target.  The
        planner keeps the last candidate whose loads fit both sides of
        every machine's :meth:`~repro.mpc.machine.Machine.window_budget_words`;
        frontiers grow with ``k``, so it stops at the first that does not —
        before walking any message when the state loads alone are over —
        and when even ``k = 2`` does not fit it degrades to ``k = 1``
        instead of raising.  In auto mode the peak-hold estimator observes
        the ``k = 2`` load fraction of each planned window (so ``k = 2`` is
        always costed in full) and short-circuits planning to ``k = 1``
        while the held peak says even the smallest window is hopeless.
        """
        host = self._host
        msg_in = [0] * self.num_machines
        msg_out = [0] * self.num_machines
        copies = 0
        for sender, targets, _payload, words in sends:
            sender_host = host[sender]
            cost = _ENVELOPE_HEAD + words
            shipped = 0
            for target in targets:
                target_host = host[target]
                if target_host != sender_host:
                    msg_in[target_host] += cost
                    shipped += 1
            if shipped:
                msg_out[sender_host] += shipped * cost
                copies += shipped
        best = (1, msg_in, msg_out, copies)
        if self._max_compress <= 1:
            return best
        estimator = self._estimator
        if estimator is not None and estimator.should_skip():
            estimator.window_skipped()
            return best
        self.planner_stats["windows_planned"] += 1
        budgets = [m.window_budget_words() for m in self.machines]
        incoming: list[int] | None = None
        for k in range(2, self._max_compress + 1):
            frontier = self._frontier_at(k - 1)
            if frontier.state_over and (estimator is None or k > 2):
                break
            if incoming is None:
                incoming = [0] * self.n
                sent = [0] * self.num_machines
                for sender, targets, _payload, words in sends:
                    cost = _ENVELOPE_HEAD + words
                    for target in targets:
                        incoming[target] += cost
                    sent[host[sender]] += cost * len(targets)
                weight = incoming.__getitem__
            in_words = [
                state + sum(map(weight, nodes)) - own
                for state, nodes, own in zip(
                    frontier.state_in, frontier.watched, sent
                )
            ]
            out_words = list(frontier.state_out)
            fan = frontier.fan.__getitem__
            copies = frontier.state_copies
            for sender, targets, _payload, words in sends:
                shipped = sum(map(fan, targets))
                out_words[host[sender]] += (_ENVELOPE_HEAD + words) * shipped
                copies += shipped
            if estimator is not None and k == 2:
                estimator.observe(
                    max(
                        max(w_in, w_out) / budget
                        for w_in, w_out, budget in zip(
                            in_words, out_words, budgets
                        )
                    )
                )
            if any(
                w_in > budget or w_out > budget
                for w_in, w_out, budget in zip(in_words, out_words, budgets)
            ):
                break
            best = (k, in_words, out_words, copies)
        if estimator is not None:
            estimator.record_choice(best[0])
        return best


class _ShardedRounds:
    """Compiled rounds on a shard pool, one kernel per shard.

    Offers a recording kernel's ``start``/``step``/``sends``/``finished``
    surface.  Shard 0's kernel runs in this process, every other shard's
    in a fork-inherited worker.  Each barrier hands every shard the
    previous round's sends of all shards, merged into sender order, and
    collects each shard's metered sends, statistics delta, invocation
    count and newly finished nodes; a window-opening round's window step
    runs here while the forked shards compute.  Counter stats are summed
    and ``max_words_per_edge_round`` max-combined, so the CONGEST and MPC
    ledgers are byte-identical to the serial path's; only wall-clock time
    changes.
    """

    def __init__(
        self,
        net: MPCCongestNetwork,
        algorithms: Sequence[Any],
        stats: RunStats,
        node_shards: list[tuple[int, ...]],
    ) -> None:
        self._net = net
        self._algorithms = algorithms
        self._stats = stats
        self._pool = _parallel.ForkShardPool(
            [_CompiledShard(net, algorithms, shard) for shard in node_shards],
            tracer=net.tracer,
        )
        self.sends: list[SentBatch] = []
        self.finished: list[int] = []

    def __enter__(self) -> "_ShardedRounds":
        return self

    def __exit__(self, exc_type: Any, *_exc_info: Any) -> None:
        try:
            if exc_type is None:
                for frag in self._pool.step_all(("finalize", None)):
                    self._net.node_state.update(frag["state"])
        finally:
            self._pool.close()

    def start(self) -> None:
        self._absorb(self._pool.step_all(("start", None)))

    def step(self, overlap: Callable[[], Any] | None = None) -> int:
        tasks = [("round", self.sends)] * self._pool.shards
        return self._absorb(self._pool.step(tasks, overlap))

    def _absorb(self, frags: list[dict[str, Any]]) -> int:
        _parallel.raise_shard_error(frags)
        stats = self._stats
        sends: list[SentBatch] = []
        awake = 0
        self.finished = []
        for frag in frags:
            sends += frag["sends"]
            messages, words, max_words, cut = frag["stats"]
            stats.messages += messages
            stats.total_words += words
            if max_words > stats.max_words_per_edge_round:
                stats.max_words_per_edge_round = max_words
            stats.cut_words += cut
            awake += frag["awake"]
            for nid, output in frag["finished"]:
                # The parent's copies of the forked shards' algorithms
                # learn their outputs here (shard 0's already have them),
                # so the run's result can be read off them.
                self.finished.append(nid)
                self._algorithms[nid].finish(output)
        sends.sort(key=itemgetter(0))
        self.sends = sends
        return awake


class _CompiledShard:
    """Shard handler for compiled runs: one kernel over a slice of nodes.

    Drives a :class:`~repro.congest.engine.RoundKernel` over its node
    ids: as shard 0 on the caller's network and algorithms, in a forked
    worker on a fork-inherited copy of both.  ``("start", None)`` runs
    their ``on_start``; ``("round", sends)`` delivers the previous round's
    merged sends to its nodes and runs one kernel round.  Both return the
    shard's metered sends, its stats delta, its invocation count and its
    newly finished ``(node id, output)`` pairs.  ``("finalize", None)`` ships the shard's
    node state dicts back so the parent network looks post-run to drivers
    that read ``network.node_state`` directly.
    """

    def __init__(
        self,
        net: MPCCongestNetwork,
        algorithms: Sequence[Any],
        node_ids: tuple[int, ...],
    ) -> None:
        self._net = net
        self._algs = [algorithms[nid] for nid in node_ids]
        self._kernel = RoundKernel(
            net, algorithms, RunStats(word_bits=net.word_bits),
            node_ids=node_ids, record=True,
        )

    def __call__(self, task: Any) -> Any:
        kind, payload = task
        net = self._net
        if kind == "finalize":
            return {
                "state": {
                    alg.node.id: net.node_state[alg.node.id]
                    for alg in self._algs
                },
                "error": None,
            }
        kernel = self._kernel
        stats = kernel.stats = RunStats(word_bits=net.word_bits)
        awake = 0
        error: tuple[int, str, str, str] | None = None
        try:
            if kind == "start":
                kernel.start()
            else:
                kernel.deliver(payload)
                awake = kernel.step()
        except Exception as exc:
            error = _parallel.describe_error(kernel.failed_node, exc)
        algorithms = kernel.algorithms
        return {
            "sends": kernel.sends,
            "stats": (
                stats.messages,
                stats.total_words,
                stats.max_words_per_edge_round,
                stats.cut_words,
            ),
            "awake": awake,
            "finished": [
                (nid, algorithms[nid].output) for nid in kernel.finished
            ],
            "error": error,
        }


# -- parity harness ---------------------------------------------------------


def _event_key(event: RoundEvent) -> tuple[int, int, int, int, int]:
    # Both sides run engine v2's round kernel, so even ``awake`` — the
    # count of invoked nodes, which engine v1 would not match — agrees.
    return (
        event.round_index, event.messages, event.words, event.cut_words,
        event.awake,
    )


def solve_with_parity(
    solver: Callable[..., Any],
    graph: nx.Graph,
    alpha: float,
    seed: int = 0,
    options: RunOptions | None = None,
    collector: Any | None = None,
    tracer: Any = None,
) -> tuple[Any, MPCCongestNetwork, dict[str, Any]]:
    """Run ``solver`` on the MPC backend and on an engine-v2 shadow.

    ``solver(network=...)`` must accept a prebuilt network (all the
    ``repro.core`` drivers do) and return an object with ``cover`` and
    ``stats`` attributes.  Both networks share the graph and seed, so the
    runs must agree on the solution, on every ``RunStats`` field and on
    the per-round ``RoundEvent`` stream (messages/words/cut words/awake,
    round by round, across all stages) — any divergence raises
    :class:`ParityError`.  The MPC side runs with ``options``; its
    ``compress`` window only changes the MPC ledger (how many shuffles
    carry those rounds), so the parity claim is asserted unchanged at
    every ``k`` (``"auto"`` included).  A metrics
    ``collector`` observes the MPC side's round and shuffle streams
    alongside the parity check.  Returns ``(mpc_result, mpc_network,
    report)``.
    """
    ref_events: list[RoundEvent] = []
    mpc_events: list[RoundEvent] = []
    ref_net = CongestNetwork(
        graph, seed=seed, engine="v2", on_round=ref_events.append
    )
    ref_result = solver(network=ref_net)
    mpc_net = _observed_network(
        graph, alpha, seed, options, collector, tracer,
        on_round=mpc_events.append,
    )
    mpc_result = solver(network=mpc_net)

    if mpc_result.cover != ref_result.cover:
        raise ParityError(
            f"MPC and engine-v2 solutions differ: "
            f"{sorted(map(repr, mpc_result.cover))[:5]}... vs "
            f"{sorted(map(repr, ref_result.cover))[:5]}..."
        )
    if mpc_result.stats != ref_result.stats:
        raise ParityError(
            f"MPC and engine-v2 RunStats differ: {mpc_result.stats} vs "
            f"{ref_result.stats}"
        )
    if len(mpc_events) != len(ref_events):
        raise ParityError(
            f"round event streams differ in length: {len(mpc_events)} MPC "
            f"rounds vs {len(ref_events)} engine-v2 rounds"
        )
    for mpc_event, ref_event in zip(mpc_events, ref_events):
        if _event_key(mpc_event) != _event_key(ref_event):
            raise ParityError(
                f"per-round metering diverged at round "
                f"{ref_event.round_index}: MPC {_event_key(mpc_event)} vs "
                f"engine v2 {_event_key(ref_event)}"
            )
    report = {
        "parity": True,
        "rounds_compared": len(ref_events),
        "congest_words": ref_result.stats.total_words,
    }
    return mpc_result, mpc_net, report


def run_stage_parity(
    graph: nx.Graph,
    stages: Iterable[AlgorithmFactory],
    alpha: float,
    seed: int = 0,
    prepare: Callable[[CongestNetwork], None] | None = None,
    options: RunOptions | None = None,
) -> dict[str, Any]:
    """Stage-level parity check for bare ``NodeAlgorithm`` factories.

    Runs each factory back to back on an MPC network (run with
    ``options``) and an engine-v2 network (same graph, same seed), with
    ``prepare(network)`` seeding any required per-node state on each side
    first.  Asserts per-stage outputs, stats and traces are identical — at
    any ``compress`` window, since compression never touches the CONGEST
    ledger; returns a summary dict (stage count, rounds, the MPC ledger).
    """
    stages = list(stages)
    ref_net = CongestNetwork(graph, seed=seed, engine="v2")
    mpc_net = MPCCongestNetwork(graph, alpha=alpha, seed=seed, options=options)
    for net in (ref_net, mpc_net):
        net.reset_state()
        if prepare is not None:
            prepare(net)
    rounds = 0
    for index, factory in enumerate(stages):
        ref = ref_net.run(factory, trace=True)
        mpc = mpc_net.run(factory, trace=True)
        for field in ("outputs", "by_id", "stats", "trace"):
            if getattr(ref, field) != getattr(mpc, field):
                raise ParityError(
                    f"stage {index} field {field!r} differs between the "
                    f"MPC compilation and engine v2"
                )
        rounds += ref.stats.rounds
    return {
        "parity": True,
        "stages": len(stages),
        "congest_rounds": rounds,
        "mpc": mpc_net.mpc_summary(),
    }


def _observed_network(
    graph: nx.Graph,
    alpha: float,
    seed: int,
    options: RunOptions | None,
    collector: Any | None,
    tracer: Any,
    on_round: Callable[[RoundEvent], None] | None = None,
) -> MPCCongestNetwork:
    """An MPC network observed by ``on_round``, a collector and a tracer.

    The metrics collector is attached to the round and shuffle streams
    and sees each round event after ``on_round``.
    """
    net = MPCCongestNetwork(graph, alpha=alpha, seed=seed, options=options)
    if collector is not None:
        collector.attach(net)
    net.on_round = _tee(on_round, net.on_round)
    net.tracer = tracer
    return net


def _solve_on_mpc(
    solver: Callable[..., Any],
    graph: nx.Graph,
    alpha: float,
    seed: int,
    check_parity: bool,
    options: RunOptions,
    collector: Any | None,
    tracer: Any,
):
    """Shared scaffolding of the compiled solver entry points.

    Runs ``solver(network=...)`` on a fresh MPC network — with the live
    engine-v2 shadow when ``check_parity`` — and returns the result
    together with the machine-side ledger payload (including the parity
    report when one was produced).  A metrics ``collector`` is hooked
    into the MPC network's round and shuffle streams and handed the
    final MPC ledger.
    """
    if check_parity:
        result, net, report = solve_with_parity(
            solver, graph, alpha, seed, options, collector, tracer
        )
    else:
        net = _observed_network(
            graph, alpha, seed, options, collector, tracer
        )
        result = solver(network=net)
        report = {"parity": False}
    # The sweep/CLI payload is mpc_summary() verbatim — the worker count
    # never enters it, so payload digests stay byte-identical across
    # worker counts; the metrics collector gets the shard workers the run
    # used as a variant-section extra (timing-adjacent provenance, like
    # jobs for the sweep).
    payload = net.mpc_summary()
    payload.update(report)
    if collector is not None:
        collector.record_mpc(
            {
                **net.mpc_summary(),
                "workers": options.shard_workers(net.num_machines),
            }
        )
    return result, payload


def solve_mvc_mpc(
    graph: nx.Graph,
    epsilon: float,
    alpha: float,
    seed: int = 0,
    check_parity: bool = False,
    compress: int | str = 1,
    collector: Any | None = None,
    workers: int = 1,
    faults: Any = None,
    tracer: Any = None,
):
    """Algorithm 1 ((1+eps)-MVC of G^2) compiled onto the MPC backend.

    ``compress``, ``workers`` and ``faults`` are validated on entry as one
    :class:`~repro.mpc.options.RunOptions` (a fault spec is parsed with
    ``seed``).  ``check_parity`` adds the engine-v2 shadow run of
    :func:`solve_with_parity`; ``collector`` and ``tracer`` observe the
    MPC run.  Returns ``(DistributedCoverResult, mpc_payload)`` where the
    payload is the machine-side ledger (plus the parity report when
    requested).
    ``graph`` must be connected, simple and undirected; other inputs raise
    the typed errors of :mod:`repro.graphs.instance`.
    """
    from repro.core.mvc_congest import approx_mvc_square

    options = RunOptions(compress, workers, faults, seed=seed)

    def solver(network):
        return approx_mvc_square(graph, epsilon, network=network)

    return _solve_on_mpc(
        solver, graph, alpha, seed, check_parity, options, collector, tracer
    )


def solve_mds_mpc(
    graph: nx.Graph,
    alpha: float,
    seed: int = 0,
    samples: int | None = None,
    check_parity: bool = False,
    compress: int | str = 1,
    collector: Any | None = None,
    workers: int = 1,
    faults: Any = None,
    tracer: Any = None,
):
    """Theorem 28 (O(log Delta)-MDS of G^2) compiled onto the MPC backend.

    Takes, returns and rejects what :func:`solve_mvc_mpc` does, with the
    estimator's ``samples`` in place of ``epsilon``.
    """
    from repro.core.mds_congest import approx_mds_square

    options = RunOptions(compress, workers, faults, seed=seed)

    def solver(network):
        return approx_mds_square(graph, network=network, samples=samples)

    return _solve_on_mpc(
        solver, graph, alpha, seed, check_parity, options, collector, tracer
    )
