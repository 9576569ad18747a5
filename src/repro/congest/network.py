"""The synchronous CONGEST runtime.

``CongestNetwork.run`` executes one node algorithm per vertex of the input
graph in synchronous rounds, delivering messages between rounds, metering
round/message/bit usage and enforcing the per-edge bandwidth bound.

``run`` builds each run's views, algorithms, statistics and result once
and hands the rounds to a loop in :mod:`repro.congest.engine`: the
reference loop (engine ``v1``) or the activity-scheduled loop (engine
``v2``, the default), whose round kernel only wakes nodes with pending
traffic or an explicit self-wake and meters batched outboxes in O(1).  The
compiled MPC backend runs the same activity-scheduled loop.  Select an
engine per network with the ``engine=`` constructor argument or globally
with the ``REPRO_ENGINE`` environment variable; both must behave
identically (see ``tests/test_engine_parity.py`` and
``tests/test_batch_outbox.py``).

Paper algorithms are sequences of phases whose round complexities add: a
solver calls ``run`` once per stage on the same network (``label=`` names
the stage), with per-node ``state`` dictionaries carrying intermediate
results from one stage to the next.
"""

from __future__ import annotations

import contextlib
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from typing import Any

import networkx as nx

from repro.congest.algorithm import NodeAlgorithm, NodeView
from repro.congest.engine import (
    BulkRounds,
    RoundKernel,
    drive,
    reference_rounds,
    resolve_engine_name,
)
from repro.congest.errors import CongestionError, ProtocolError
from repro.congest.message import BatchOutbox, payload_words
from repro.graphs.instance import Instance

AlgorithmFactory = Callable[[NodeView], NodeAlgorithm]
#: A stage's bulk form: ``bulk(network)`` -> the per-round generator that
#: :class:`~repro.congest.engine.BulkRounds` steps.
BulkStage = Callable[["CongestNetwork"], Iterator[tuple]]

#: Fewest nodes at which a stage's bulk form replaces its handlers.
#: Below it, a process's first bulk stage costs more (numpy's ~0.14 s
#: import and the CSR set-up) than the handlers it replaces; DESIGN.md,
#: "Bulk stages", has the measured crossover, and why the numpy-free
#: tree forms keep the same floor.
BULK_MIN_NODES = 224

#: Default cap on simulated rounds, as a multiple of n^2 (quadratic round
#: counts are the worst case the paper discusses).
DEFAULT_ROUND_FACTOR = 20


def combine_word_bits(left: Any, right: Any, what: str, across: str) -> int:
    """Resolve the word size of ``left + right`` for stats aggregates.

    Word counts measured in different word sizes are not commensurable —
    silently taking the max would misreport ``total_bits`` for the
    smaller-word side — so mixing two *populated* aggregates raises.  An
    all-zero side (``is_empty()``) is exempt: it is an additive identity
    whatever word size it was constructed with, so ``sum(...,
    Stats())`` works over any homogeneous collection and adopts the
    populated side's word size.  Shared by :class:`RunStats` and
    :class:`repro.mpc.runtime.MPCRunStats`.
    """
    if (
        left.word_bits
        and right.word_bits
        and left.word_bits != right.word_bits
        and not (left.is_empty() or right.is_empty())
    ):
        raise ValueError(
            f"cannot add {what} with different word sizes "
            f"({left.word_bits} vs {right.word_bits} bits); convert to "
            f"bits before aggregating across {across}"
        )
    if left.is_empty() and right.word_bits:
        return right.word_bits
    if right.is_empty() and left.word_bits:
        return left.word_bits
    return left.word_bits or right.word_bits


@dataclass
class RunStats:
    """Resource usage of one (or several, summed) simulator runs."""

    rounds: int = 0
    messages: int = 0
    total_words: int = 0
    max_words_per_edge_round: int = 0
    cut_words: int = 0
    word_bits: int = 0

    @property
    def total_bits(self) -> int:
        return self.total_words * self.word_bits

    @property
    def cut_bits(self) -> int:
        return self.cut_words * self.word_bits

    def is_empty(self) -> bool:
        """True when every counter is zero (word size aside)."""
        return not (
            self.rounds
            or self.messages
            or self.total_words
            or self.max_words_per_edge_round
            or self.cut_words
        )

    def __add__(self, other: "RunStats") -> "RunStats":
        word_bits = combine_word_bits(self, other, "RunStats", "networks")
        return RunStats(
            rounds=self.rounds + other.rounds,
            messages=self.messages + other.messages,
            total_words=self.total_words + other.total_words,
            max_words_per_edge_round=max(
                self.max_words_per_edge_round, other.max_words_per_edge_round
            ),
            cut_words=self.cut_words + other.cut_words,
            word_bits=word_bits,
        )


@dataclass
class RoundRecord:
    """Per-round traffic, recorded when ``run(..., trace=True)``."""

    round_index: int
    messages: int
    words: int
    active_nodes: int


@dataclass
class RoundEvent:
    """One engine round, delivered to an ``on_round`` callback as it ends.

    The structured form of the trace timeline: consumers (benchmarks, the
    MPC round-compiler's parity check) receive events while the run is in
    flight instead of re-deriving per-round quantities from summed
    ``RunStats`` afterwards.  ``round_index``, ``messages``, ``words`` and
    ``cut_words`` are engine-independent (the v1/v2 parity contract covers
    them); ``awake`` counts the nodes actually *invoked* this round, which
    is where the engines legitimately differ — v1 invokes every live node,
    v2 only traffic- or self-woken ones — so it is exactly the quantity an
    activity-scheduling experiment wants to see.

    ``stage_label`` attributes the event to the solver stage that
    produced it: the ``label=`` passed to ``run``, or ``None`` for an
    unlabelled run.  It is not part of the engine parity surface (it is
    attribution, not metering).
    """

    round_index: int
    messages: int
    words: int
    awake: int
    cut_words: int = 0
    stage_label: str | None = None


@dataclass
class RunResult:
    """Outputs and resource usage of a completed run."""

    outputs: dict[Any, Any]
    stats: RunStats
    by_id: dict[int, Any] = field(default_factory=dict)
    trace: list[RoundRecord] | None = None


class CongestNetwork:
    """A CONGEST communication network over a :class:`networkx.Graph`.

    Parameters
    ----------
    graph:
        The communication graph ``G``, validated and canonicalized as one
        :class:`~repro.graphs.instance.Instance` (``self.instance``): it
        must be non-empty, simple and undirected, but may be
        disconnected.  Nodes may have arbitrary hashable labels; the
        network assigns integer identifiers ``0..n-1`` in a deterministic
        (sorted-by-repr) order.
    word_limit:
        Maximum words per message (a word is ``ceil(log2(n+1))`` bits);
        models the O(log n)-bit bound.
    strict:
        If True, oversized messages raise :class:`CongestionError`;
        otherwise they are metered but allowed (useful for measuring *how
        much* congestion a naive algorithm would create).
    seed:
        Seed for per-node private randomness.
    cut:
        Optional iterable of label pairs; traffic crossing these edges is
        metered separately (the Alice-Bob cut of Theorem 19).
    engine:
        Which loop runs the rounds: ``"v1"`` (reference) or ``"v2"``
        (activity-scheduled, default).  ``None`` defers to the
        ``REPRO_ENGINE`` environment variable, then the package default.
    on_round:
        Optional default :class:`RoundEvent` callback applied to every
        ``run`` on this network (a per-``run`` ``on_round=`` argument
        overrides it for that run).  Lets multi-stage drivers instrument
        all their stages by constructing the network once.
    """

    #: Canonical name of the loop running this network's rounds: resolved
    #: per network from ``engine=`` unless a backend class fixes it.
    engine_name: str | None = None

    def __init__(
        self,
        graph: nx.Graph,
        word_limit: int = 8,
        strict: bool = True,
        seed: int = 0,
        cut: Iterable[tuple[Any, Any]] | None = None,
        engine: str | None = None,
        on_round: Callable[["RoundEvent"], None] | None = None,
    ) -> None:
        instance = Instance(graph)
        self.instance = instance
        self.graph = graph
        self.n = instance.n
        self.word_bits = instance.word_bits
        self.word_limit = word_limit
        self.strict = strict
        self.seed = seed
        self.on_round = on_round
        #: Optional :class:`repro.trace.TraceRecorder`; purely an observer
        #: (spans + counters around/inside :meth:`run`), never touches
        #: metering or scheduling.  Set by the CLI / drivers after
        #: construction.
        self.tracer = None
        #: Optional :class:`repro.metrics.MetricsCollector` back-reference,
        #: set by ``MetricsCollector.attach`` so solvers can publish
        #: deterministic convergence series.
        self.collector = None

        self._label_of = instance.labels
        self._id_of = instance.id_of
        self._adjacency = instance.adjacency
        # Set form of the adjacency for O(1) membership in _can_send; the
        # sorted tuples remain the public NodeView.neighbors order.
        self._adjacency_sets = tuple(map(frozenset, instance.adjacency))
        self._cut: set[frozenset[int]] = set()
        if cut is not None:
            for u, v in cut:
                self._cut.add(frozenset((self._id_of[u], self._id_of[v])))
        self.node_state: dict[int, dict] = {i: {} for i in range(self.n)}
        self.engine_name = self.engine_name or resolve_engine_name(engine)
        # Metering state of the round kernel, fixed for the network's
        # lifetime and shared by every run on it.
        #: payload value -> word cost (word size is fixed per network, so
        #: keys need not include it).
        self._words_cache: dict[Any, int] = {}

    # -- identifier mapping ------------------------------------------------

    def id_of(self, label: Any) -> int:
        """Integer identifier of a graph label."""
        return self._id_of[label]

    def label_of(self, node_id: int) -> Any:
        """Graph label of an integer identifier."""
        return self._label_of[node_id]

    def ids(self) -> range:
        return range(self.n)

    def neighbors_of(self, node_id: int) -> tuple[int, ...]:
        return self._adjacency[node_id]

    def reset_state(self) -> None:
        """Clear the per-node stage-to-stage state dictionaries."""
        self.node_state = {i: {} for i in range(self.n)}

    # -- runtime -----------------------------------------------------------

    def _can_send(self, sender: int, target: int) -> bool:
        """Whether ``sender`` may address ``target`` this round."""
        return target in self._adjacency_sets[sender]

    def _check_send(self, sender: int, target: Any) -> None:
        """Raise the :class:`ProtocolError` of an invalid send, if any.

        The rules in reference order: a send to itself, to an invalid id,
        then to a node ``sender`` may not address.
        """
        if target == sender:
            raise ProtocolError(f"node {sender} addressed itself")
        if not isinstance(target, int) or not 0 <= target < self.n:
            raise ProtocolError(
                f"node {sender} addressed invalid target {target!r}"
            )
        if not self._can_send(sender, target):
            raise ProtocolError(
                f"node {self.label_of(sender)!r} is not adjacent to "
                f"{self.label_of(target)!r} in the communication graph"
            )

    def _oversize(
        self, sender: int, target: int, words: int
    ) -> CongestionError:
        """The :class:`CongestionError` of a ``words``-word message."""
        return CongestionError(
            f"message {self.label_of(sender)!r} -> {self.label_of(target)!r} "
            f"is {words} words but the per-edge budget is {self.word_limit} "
            f"words of {self.word_bits} bits"
        )

    def _make_views(self, inputs: Mapping[Any, Any] | None) -> list[NodeView]:
        views = []
        for node_id in range(self.n):
            label = self._label_of[node_id]
            node_input = None if inputs is None else inputs.get(label)
            views.append(
                NodeView(
                    node_id=node_id,
                    label=label,
                    neighbors=self._adjacency[node_id],
                    n=self.n,
                    node_input=node_input,
                    state=self.node_state[node_id],
                    seed=self.seed,
                )
            )
        return views

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
        """Run one algorithm instance per node until all finish.

        Returns a :class:`RunResult` whose ``outputs`` are keyed by original
        graph labels.  Raises :class:`RoundLimitError` if the algorithm does
        not terminate within ``max_rounds`` (default ``20 * n**2 + 1000``).
        With ``trace=True`` the result carries a per-round traffic timeline
        (round 0 records the ``on_start`` sends).  ``on_round`` receives a
        :class:`RoundEvent` as each round ends (round 0 included),
        overriding the network-level default callback for this run.
        ``label`` stamps every emitted event's ``stage_label`` so hook
        consumers (the metrics collector) can attribute rounds to a named
        solver stage; it does not affect execution or metering.

        The rounds run on the loop chosen at construction time (see
        :mod:`repro.congest.engine`); every engine produces identical
        results.

        ``bulk`` is the stage's optional bulk form, which must reproduce
        ``factory``'s handlers exactly: ``bulk(network)`` imports what it
        needs and returns the generator a
        :class:`~repro.congest.engine.BulkRounds` steps, computing every
        node's rounds at once (no algorithm is built).  It runs only on
        engine v2 over a plain :class:`CongestNetwork` of at least
        :data:`BULK_MIN_NODES` nodes, and an ``ImportError`` from it falls
        back to the handlers (see ``DESIGN.md``, "Bulk stages").
        """
        return self._run(
            self._engine_rounds, factory, inputs, max_rounds, trace,
            on_round, label, bulk,
        )

    def _run(
        self,
        rounds: Callable[..., None],
        factory: AlgorithmFactory,
        inputs: Mapping[Any, Any] | None,
        max_rounds: int | None,
        trace: bool,
        on_round: Callable[[RoundEvent], None] | None,
        label: str | None,
        bulk: BulkStage | None = None,
    ) -> RunResult:
        """One run's setup and result around a backend's ``rounds`` loop.

        ``rounds(algorithms, stats, max_rounds, timeline, hook, label)``
        executes the rounds, leaving every algorithm finished; a ``bulk``
        stage runs on :func:`drive` in its place.  With a
        tracer the run is spanned and every round event also samples a
        ``congest.round`` counter; timing happens only here, so traced
        runs stay byte-identical.
        """
        # Per-run callback wins; otherwise the network-level default.
        hook = on_round if on_round is not None else self.on_round
        span: Any = contextlib.nullcontext()
        tracer = self.tracer
        if tracer is not None:
            inner = hook

            def hook(event: RoundEvent) -> None:
                tracer.counter(
                    "congest.round",
                    {
                        "messages": event.messages,
                        "words": event.words,
                        "awake": event.awake,
                    },
                )
                if inner is not None:
                    inner(event)

            span = tracer.span(
                label or "run", cat="stage", engine=self.engine_name, n=self.n
            )
        with span:
            if max_rounds is None:
                max_rounds = DEFAULT_ROUND_FACTOR * self.n * self.n + 1000
            stats = RunStats(word_bits=self.word_bits)
            timeline: list[RoundRecord] | None = [] if trace else None
            loop = (max_rounds, timeline, hook, label)
            bulk_rounds = self._bulk_rounds(bulk)
            if bulk_rounds is None:
                algorithms = [factory(view) for view in self._make_views(inputs)]
                rounds(algorithms, stats, *loop)
                by_id = {alg.node.id: alg.output for alg in algorithms}
            else:
                stage = BulkRounds(bulk_rounds, stats)
                drive(stage, self.n, stats, *loop)
                # Nodes finish in any order; the handlers' by_id is by id.
                by_id = dict(sorted(stage.outputs.items()))
        return RunResult(
            outputs={self._label_of[nid]: out for nid, out in by_id.items()},
            stats=stats,
            by_id=by_id,
            trace=timeline,
        )

    def _bulk_rounds(self, bulk: BulkStage | None) -> Iterator[tuple] | None:
        """``bulk(self)`` where this network runs bulk forms, else ``None``.

        Engine v1 is the reference and backends meter each round's sends
        themselves, so only engine v2 on a plain network qualifies; below
        :data:`BULK_MIN_NODES` the handlers are faster.
        """
        if (
            bulk is None
            or type(self) is not CongestNetwork
            or self.engine_name != "v2"
            or self.n < BULK_MIN_NODES
        ):
            return None
        try:
            return bulk(self)
        except ImportError:  # numpy-free install: the handlers run
            return None

    def _engine_rounds(
        self, algorithms: list[NodeAlgorithm], stats: RunStats, *loop: Any
    ) -> None:
        """Engine v1's reference loop or engine v2's activity-scheduled one."""
        if self.engine_name == "v1":
            reference_rounds(self, algorithms, stats, *loop)
        else:
            drive(RoundKernel(self, algorithms, stats), self.n, stats, *loop)

    def _collect(
        self,
        alg: NodeAlgorithm,
        outbox: Mapping[int, Any] | BatchOutbox | None,
        pending: dict[int, dict[int, Any]],
        stats: RunStats,
    ) -> None:
        # The reference collector: one validation + one metering step per
        # (sender, target) pair.  A BatchOutbox is expanded through its
        # per-message ``items()`` view, so batches and dictionaries take
        # the identical loop here — this is the semantics the round
        # kernel's batch fast path must reproduce word for word.
        if not outbox:
            return
        sender = alg.node.id
        for target, payload in outbox.items():
            self._check_send(sender, target)
            words = payload_words(payload, self.word_bits)
            if words > self.word_limit and self.strict:
                raise self._oversize(sender, target, words)
            stats.messages += 1
            stats.total_words += words
            stats.max_words_per_edge_round = max(
                stats.max_words_per_edge_round, words
            )
            if self._cut and frozenset((sender, target)) in self._cut:
                stats.cut_words += words
            pending[target][sender] = payload
