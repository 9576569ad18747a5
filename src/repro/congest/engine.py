"""The two round loops behind ``CongestNetwork.run``.

* :func:`reference_rounds` (engine ``v1``) — the original loop: every live
  node is invoked every round, inbox dictionaries are rebuilt from scratch
  and quiescence is detected by scanning all algorithms.  Kept verbatim as
  the per-message differential-testing oracle; batched outboxes are
  expanded through their per-message ``items()`` view.
* :func:`drive` — the activity-scheduled loop of engine ``v2`` and of the
  compiled MPC backend (serial and shard-parallel), which adds only its
  window step.  Each round is one :class:`RoundKernel` step: only nodes
  with pending inbox traffic or an explicit self-wake
  (:meth:`~repro.congest.algorithm.NodeAlgorithm.wants_wake`) are invoked,
  inbox buffers are reused via :class:`~repro.congest.scheduler.MailboxRing`,
  metering caches :func:`~repro.congest.message.payload_words` per payload
  value on the network, and a :class:`~repro.congest.message.BatchOutbox`
  is metered with one word-cost computation, one strictness check and an
  O(1) statistics update.  Trusted broadcasts are metered and delivered
  inline in the kernel's invocation loop; ``MailboxRing.post_batch`` only
  serves untrusted ``send_many`` batches (targets validated in reference
  order, one pure-Python check each) and shard delivery.  A recording
  kernel also returns each round's sends already metered, as
  ``(sender, targets, payload, words)`` batches.
* :class:`BulkRounds` — a stage's bulk form (whole-network rounds, see
  ``CongestNetwork.run(bulk=...)``) in the shape :func:`drive` steps, so
  engine v2 runs it through the same loop, limits and round events.

The wants_wake / self-wake protocol
-----------------------------------
Engine v2 invokes a node in round ``r`` iff at least one of:

1. the node has pending inbox traffic delivered for round ``r``, or
2. the node's :meth:`~repro.congest.algorithm.NodeAlgorithm.wants_wake`
   returned true when the engine last ran it (after ``on_start`` or after
   its previous ``on_round``).

``wants_wake`` is re-queried *after every invocation*, so a wake request is
good for exactly one round — a node that wants to run every round must keep
returning true.  The base-class default returns true, which makes every
algorithm behave exactly as under v1 unless it opts into sleeping; only
algorithms whose silent rounds are genuinely idle (no timers, no
round-counting) may override it to false.  A sleeping node is woken by
incoming traffic regardless of its ``wants_wake`` answer.  If every live
node sleeps and no traffic is in flight, nothing can ever happen again:
the kernel's rounds are empty, and :func:`drive` runs them to
``max_rounds`` like the reference loop (same trace, same error).

The v1/v2 parity contract
-------------------------
Both engines must produce identical outputs, statistics and
traces on every run — same ``RunResult.outputs``/``by_id``, same
``RunStats`` field by field, same per-round ``RoundRecord`` timeline, and
the same exceptions at the same rounds.  The ingredients:

* nodes run in ascending id order each round (v2 sorts its runnable set);
* messages are metered at send time in both engines, including traffic
  addressed to already-finished nodes (metered, never delivered);
* per-node randomness is derived from ``(seed, node_id)`` only, never from
  invocation counts;
* ``wants_wake`` may change *when* a node is invoked but never *what* the
  run computes — a correct override only skips rounds the node would have
  ignored anyway, or rounds in which guaranteed inbound traffic wakes the
  node regardless (see the two patterns on
  :meth:`~repro.congest.algorithm.NodeAlgorithm.wants_wake`).

The contract extends to batches: a ``BatchOutbox`` must be
indistinguishable from its expanded dictionary form on every engine —
message/word counts, ``max_words_per_edge_round``, cut metering,
exception types and exception messages all equal, word for word.  The
fast path achieves this because a batch carries one payload whose cost is
target-independent: ``k`` messages of ``w`` words meter as ``k*w`` in one
update, the strictness check fires (against the batch's first target,
which is the first message the reference loop would have metered) before
any statistics are touched, and untrusted targets are validated in
reference order so the first offending target raises the same
``ProtocolError`` text (each rule is written once, in
``CongestNetwork._check_send``).

``tests/test_engine_parity.py`` and ``tests/test_batch_outbox.py`` enforce
the contract differentially, and ``benchmarks/bench_solver_engines.py``
re-checks it at benchmark scale via the sweep runner's per-cell engine
selection.

Per-round instrumentation: both loops deliver a structured
:class:`~repro.congest.network.RoundEvent` (round index, messages, words,
cut words, awake-node count) to an ``on_round`` callback — per run or as a
network-level default — as each round ends.  Events never affect
execution; the v1/v2 parity contract covers every field except
``awake``, which deliberately exposes how many nodes each engine actually
invoked.  Every backend that runs :func:`drive` (engine v2 and compiled
MPC at any window length and worker count) invokes exactly the same
nodes, so among those ``awake`` is part of the parity surface too.

Engine selection: the ``engine=`` constructor argument of
:class:`~repro.congest.network.CongestNetwork` wins; otherwise the
``REPRO_ENGINE`` environment variable; otherwise :data:`DEFAULT_ENGINE`.
Only ``"v1"`` and ``"v2"`` are accepted; the MPC backend ignores both.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Iterable, Iterator, Mapping
from typing import TYPE_CHECKING, Any

from repro.congest.errors import RoundLimitError
from repro.congest.message import BatchOutbox, payload_words
from repro.congest.scheduler import ActivityScheduler, MailboxRing

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.congest.algorithm import NodeAlgorithm
    from repro.congest.network import CongestNetwork, RoundRecord, RunStats

#: Environment variable overriding the engine for networks constructed
#: without an explicit ``engine=`` argument.
ENGINE_ENV_VAR = "REPRO_ENGINE"

#: Engine used when neither the constructor nor the environment chooses.
DEFAULT_ENGINE = "v2"

#: The selectable engines: the reference loop and the activity-scheduled one.
ENGINES = ("v1", "v2")

#: Payload types whose word cost :func:`_word_cost` caches by value.
_CACHEABLE = frozenset((type(None), int, str, bool))

#: Safety valve: drop the word-cost cache if a pathological workload
#: keeps minting distinct payload values.
_CACHE_LIMIT = 1 << 16


def resolve_engine_name(name: str | None = None) -> str:
    """Canonical engine name from an explicit choice or the environment."""
    if name is None:
        name = os.environ.get(ENGINE_ENV_VAR) or DEFAULT_ENGINE
    canonical = str(name).strip().lower()
    if canonical not in ENGINES:
        raise ValueError(
            f"unknown engine {name!r}; choose one of {list(ENGINES)}"
        )
    return canonical


def emit_round_event(
    hook, round_index: int, messages: int, words: int, awake: int,
    cut_words: int, label: str | None = None, timeline=None, alive: int = 0,
) -> None:
    """Deliver one RoundEvent to ``hook`` (no-op without hook and timeline).

    The single construction point for both loops, so the event shape
    cannot drift between backends.  ``label`` is the run-level stage
    label, stamped as ``RoundEvent.stage_label``.  With a ``timeline``
    list the round's ``RoundRecord`` (``alive`` unfinished nodes) is
    appended to it first.
    """
    if hook is None and timeline is None:
        return
    from repro.congest.network import RoundEvent, RoundRecord

    if timeline is not None:
        timeline.append(RoundRecord(round_index, messages, words, alive))
    if hook is not None:
        hook(
            RoundEvent(
                round_index=round_index,
                messages=messages,
                words=words,
                awake=awake,
                cut_words=cut_words,
                stage_label=label,
            )
        )


def reference_rounds(
    network: "CongestNetwork",
    algorithms: list["NodeAlgorithm"],
    stats: "RunStats",
    max_rounds: int,
    timeline: list["RoundRecord"] | None,
    hook,
    label: str | None,
) -> None:
    """Engine v1: the reference every-node-every-round loop."""
    from repro.congest.network import RoundRecord

    pending: dict[int, dict[int, Any]] = {i: {} for i in range(network.n)}
    for alg in algorithms:
        network._collect(alg, alg.on_start(), pending, stats)
    if timeline is not None:
        timeline.append(
            RoundRecord(
                round_index=0,
                messages=stats.messages,
                words=stats.total_words,
                active_nodes=sum(1 for a in algorithms if not a.done),
            )
        )
    emit_round_event(
        hook, 0, stats.messages, stats.total_words, len(algorithms),
        stats.cut_words, label,
    )

    while not all(alg.done for alg in algorithms):
        if stats.rounds >= max_rounds:
            raise RoundLimitError(
                f"no termination within {max_rounds} rounds "
                f"({sum(1 for a in algorithms if not a.done)} nodes alive)"
            )
        stats.rounds += 1
        before_messages = stats.messages
        before_words = stats.total_words
        before_cut = stats.cut_words
        awake = 0
        inboxes, pending = pending, {i: {} for i in range(network.n)}
        for alg in algorithms:
            if alg.done:
                continue
            awake += 1
            outbox = alg.on_round(inboxes[alg.node.id])
            # A node may send a final outbox in the round it finishes.
            network._collect(alg, outbox, pending, stats)
        if timeline is not None:
            timeline.append(
                RoundRecord(
                    round_index=stats.rounds,
                    messages=stats.messages - before_messages,
                    words=stats.total_words - before_words,
                    active_nodes=sum(1 for a in algorithms if not a.done),
                )
            )
        emit_round_event(
            hook, stats.rounds, stats.messages - before_messages,
            stats.total_words - before_words, awake,
            stats.cut_words - before_cut, label,
        )


def drive(
    rounds,
    n: int,
    stats: "RunStats",
    max_rounds: int,
    timeline: list["RoundRecord"] | None,
    hook,
    label: str | None,
    window=None,
) -> None:
    """The activity-scheduled loop: rounds until all ``n`` nodes finish.

    ``rounds`` is a :class:`RoundKernel` or the MPC backend's shard pool —
    anything with ``start``/``step``/``sends``/``finished``.  Without a
    ``window`` this is engine v2.  The MPC backend passes itself: each
    window's first round hands ``rounds.step`` the window step, run before
    the round (a shard pool overlaps it with its workers' round):
    ``window.open_window(sends, done)`` meters the last round's sends
    through a shuffle or a prefetch and returns how many rounds the window
    replays; once they ran (or every node finished),
    ``window.close_window(length, executed)`` ends it.
    """
    done: set[int] = set()
    rounds.start()
    done.update(rounds.finished)
    emit_round_event(
        hook, 0, stats.messages, stats.total_words, n, stats.cut_words,
        label, timeline, n - len(done),
    )
    length = remaining = 0

    def opener() -> None:
        nonlocal length, remaining
        length = remaining = window.open_window(rounds.sends, done)

    while len(done) < n:
        if stats.rounds >= max_rounds:
            raise RoundLimitError(
                f"no termination within {max_rounds} rounds "
                f"({n - len(done)} nodes alive)"
            )
        stats.rounds += 1
        before_messages = stats.messages
        before_words = stats.total_words
        before_cut = stats.cut_words
        awake = rounds.step(None if remaining or window is None else opener)
        done.update(rounds.finished)
        emit_round_event(
            hook, stats.rounds, stats.messages - before_messages,
            stats.total_words - before_words, awake,
            stats.cut_words - before_cut, label, timeline, n - len(done),
        )
        if window is not None:
            remaining -= 1
            if not remaining or len(done) == n:
                window.close_window(length, length - remaining)


def _word_cost(cache: dict[Any, int], payload: Any, word_bits: int) -> int:
    """``payload_words`` through the network's value-keyed cost cache.

    Value-keyed caching is only sound when equal values imply equal costs.
    Floats break that (``1 == 1.0`` but an int costs one word, a float
    two), so only scalars of the exact types in :data:`_CACHEABLE` and
    flat tuples of them are cached; everything else is recomputed.
    """
    kind = type(payload)
    if kind in _CACHEABLE or (
        kind is tuple and all(map(_CACHEABLE.__contains__, map(type, payload)))
    ):
        words = cache.get(payload)
        if words is None:
            if len(cache) >= _CACHE_LIMIT:
                cache.clear()
            words = cache[payload] = payload_words(payload, word_bits)
        return words
    return payload_words(payload, word_bits)


#: A metered send: ``(sender, targets, payload, words)`` — one payload of
#: ``words`` words addressed to every id in ``targets``.
SentBatch = tuple[int, tuple[int, ...], Any, int]


class RoundKernel:
    """One activity-scheduled CONGEST round over a node set, metered once.

    Engine v2 drives one kernel over the whole network, the serial MPC
    compiler one recording kernel, and each MPC shard worker one kernel
    over its own nodes.  A kernel owns the run's wake set, inbox buffers
    and statistics, and meters through the network's word-cost cache,
    one :func:`payload_words` per :class:`BatchOutbox`.

    With ``record`` each :meth:`start` / :meth:`step` leaves the round's
    sends in :attr:`sends` as :data:`SentBatch` tuples, in sender order,
    each (sender, target) pair once — the messages the round delivers.
    A whole-network kernel posts its sends into its own ring as it meters
    them; a shard kernel posts nothing itself and is handed every shard's
    sends, its own included, through :meth:`deliver`.
    """

    def __init__(
        self,
        network: "CongestNetwork",
        algorithms: list["NodeAlgorithm"],
        stats: "RunStats",
        node_ids: tuple[int, ...] | None = None,
        record: bool = False,
    ) -> None:
        self.network = network
        self.algorithms = algorithms
        self.stats = stats
        self.node_ids = range(network.n) if node_ids is None else node_ids
        self.ring = MailboxRing(network.n)
        self.scheduler = ActivityScheduler()
        self._post = node_ids is None
        self._owned = owned = frozenset(node_ids or ())
        #: Per sender, the neighbors this kernel owns (shard kernels).
        self._owned_targets = [
            tuple(target for target in neighbors if target in owned)
            for neighbors in (network._adjacency if owned else ())
        ]
        self._record = record
        #: This round's metered sends (recording kernels only).
        self.sends: list[SentBatch] | None = [] if self._record else None
        #: Nodes that finished during this round, in invocation order.
        self.finished: list[int] = []
        #: The node executing when the last round raised, if any.
        self.failed_node: int | None = None

    def start(self) -> None:
        """Round 0: every node's ``on_start``, in ascending id order."""
        self._invoke(self.node_ids, None)

    def step(self, overlap: Callable[[], Any] | None = None) -> int:
        """Run ``overlap``, then one round; return its invocation count."""
        if overlap is not None:
            overlap()
        traffic = self.ring.flip()
        return self._invoke(self.scheduler.runnable(traffic), self.ring.front)

    def _invoke(
        self, node_ids: Iterable[int], inboxes: list[dict[int, Any]] | None
    ) -> int:
        """Run ``on_start`` (no ``inboxes``) or ``on_round`` per node.

        A trusted broadcast, the bulk of all solver traffic, is metered and
        delivered inline: one cached word cost, the strictness check
        against its first target, one statistics update, one buffer write
        per neighbor.  Its targets are the sender's adjacency, so none
        needs validating.  Other outboxes go through :meth:`_collect`.
        """
        self.finished = finished = []
        sends = self.sends = [] if self._record else None
        algorithms = self.algorithms
        stats = self.stats
        network = self.network
        word_bits = network.word_bits
        limit = network.word_limit if network.strict else math.inf
        cut = network._cut
        cache = network._words_cache
        cache_get = cache.get
        cacheable = _CACHEABLE.__contains__
        ring = self.ring
        back = ring.back if self._post else None
        dirty_update = ring.back_dirty.update
        wake = self.scheduler.wake.add
        collect = self._collect
        awake = 0
        node_id = None
        try:
            for node_id in node_ids:
                alg = algorithms[node_id]
                if inboxes is None:
                    outbox = alg.on_start()
                elif alg.done:
                    # Late traffic addressed to a finished node: metered at
                    # send time (as in v1), never delivered.
                    continue
                else:
                    awake += 1
                    outbox = alg.on_round(inboxes[node_id])
                if type(outbox) is BatchOutbox and outbox.trusted:
                    targets = outbox.targets
                    if targets:
                        payload = outbox.payload
                        # _word_cost, with its cache hit inlined.
                        kind = type(payload)
                        if kind in _CACHEABLE or kind is tuple and all(
                            map(cacheable, map(type, payload))
                        ):
                            words = cache_get(payload)
                        else:
                            words = None
                        if words is None:
                            words = _word_cost(cache, payload, word_bits)
                        if words > limit:
                            raise network._oversize(node_id, targets[0], words)
                        count = len(targets)
                        stats.messages += count
                        stats.total_words += count * words
                        if words > stats.max_words_per_edge_round:
                            stats.max_words_per_edge_round = words
                        if cut:
                            self._meter_cut(node_id, targets, words)
                        if back is not None:
                            for target in targets:
                                back[target][node_id] = payload
                            dirty_update(targets)
                        if sends is not None:
                            sends.append((node_id, targets, payload, words))
                elif outbox:
                    collect(node_id, outbox)
                if alg.done:
                    finished.append(node_id)
                elif alg.wants_wake():
                    wake(node_id)
        except BaseException:
            self.failed_node = node_id
            raise
        return awake

    def deliver(self, batches: list[SentBatch]) -> None:
        """Queue a round's sends for this kernel's nodes (shard kernels).

        ``batches`` must be in sender order — the order the whole-network
        kernel posts in — so every inbox sees ascending sender ids.  A
        broadcast (targets equal to the sender's adjacency) takes its
        owned targets from the kernel's per-sender table.
        """
        owned = self._owned
        owned_targets = self._owned_targets
        adjacency = self.network._adjacency
        post_batch = self.ring.post_batch
        for sender, targets, payload, _words in batches:
            if targets == adjacency[sender]:
                mine = owned_targets[sender]
            else:
                mine = [target for target in targets if target in owned]
            if mine:
                post_batch(sender, mine, payload)

    def _meter_cut(
        self, sender: int, targets: tuple[int, ...], words: int
    ) -> None:
        cut = self.network._cut
        for target in targets:
            if frozenset((sender, target)) in cut:
                self.stats.cut_words += words

    def _collect(
        self, sender: int, outbox: Mapping[int, Any] | BatchOutbox
    ) -> None:
        # The metering below is the cached form of the reference loop's
        # (CongestNetwork._collect); _can_send stays a virtual call.
        if type(outbox) is BatchOutbox:
            self._collect_batch(sender, outbox)
            return
        network = self.network
        stats = self.stats
        n = network.n
        word_bits = network.word_bits
        limit = network.word_limit if network.strict else math.inf
        cut = network._cut
        cache = network._words_cache
        ring = self.ring
        post = self._post
        sends = self.sends
        # Broadcasts reuse one payload object for every neighbor; a
        # single-slot identity memo skips even the cache lookup for them.
        # The memo holds the payload alive, so its identity cannot be
        # recycled within the loop.
        prev_payload: Any = object()
        prev_words = 0
        can_send = network._can_send
        for target, payload in outbox.items():
            if target == sender or not (
                isinstance(target, int)
                and 0 <= target < n
                and can_send(sender, target)
            ):
                network._check_send(sender, target)
            if payload is not prev_payload:
                prev_payload = payload
                prev_words = _word_cost(cache, payload, word_bits)
            words = prev_words
            if words > limit:
                raise network._oversize(sender, target, words)
            stats.messages += 1
            stats.total_words += words
            if words > stats.max_words_per_edge_round:
                stats.max_words_per_edge_round = words
            if cut and frozenset((sender, target)) in cut:
                stats.cut_words += words
            if post:
                ring.post(sender, target, payload)
            if sends is not None:
                sends.append((sender, (target,), payload, words))

    # -- untrusted batches -------------------------------------------------

    def _collect_batch(self, sender: int, outbox: BatchOutbox) -> None:
        """Meter and deliver an untrusted (``send_many``) batch.

        Must be indistinguishable from running the per-message loop over
        ``outbox.items()`` — including which exception fires first.  The
        reference order for a batch ``[t0, t1, ...]`` is: validate ``t0``,
        meter the payload (strictness check), then validate ``t1...`` —
        because the per-message loop meters ``t0`` (raising on oversize)
        before it ever looks at ``t1``.  Statistics are only touched once
        every check has passed, which matches the reference loop whenever
        it raises (a run that raises never reports stats).
        """
        network = self.network
        targets = outbox.targets
        payload = outbox.payload
        self._validate_targets(sender, targets[:1])
        words = _word_cost(network._words_cache, payload, network.word_bits)
        if words > network.word_limit and network.strict:
            raise network._oversize(sender, targets[0], words)
        self._validate_targets(sender, targets[1:])
        stats = self.stats
        count = len(targets)
        stats.messages += count
        stats.total_words += count * words
        if words > stats.max_words_per_edge_round:
            stats.max_words_per_edge_round = words
        if network._cut:
            self._meter_cut(sender, targets, words)
        if self._post:
            self.ring.post_batch(sender, targets, payload)
        if self._record:
            if len(set(targets)) != count:
                # Duplicates are metered per occurrence but delivered once.
                targets = tuple(dict.fromkeys(targets))
            self.sends.append((sender, targets, payload, words))

    def _validate_targets(self, sender: int, targets: tuple[int, ...]) -> None:
        """Reference-order validation of untrusted batch targets: the
        first offending target raises exactly the error the per-message
        loop would have raised."""
        network = self.network
        n = network.n
        can_send = network._can_send
        for target in targets:
            if target == sender or not (
                isinstance(target, int)
                and 0 <= target < n
                and can_send(sender, target)
            ):
                network._check_send(sender, target)


class BulkRounds:
    """A bulk stage stepped by :func:`drive` like a round kernel.

    ``stage`` yields one ``(messages, words, max_words, cut_words, awake,
    outputs)`` tuple per round, round 0 first: the round's metered
    traffic, how many nodes engine v2 would invoke in it, and the output
    of each node that finishes in it.  ``awake`` counts the live nodes
    that hear from a neighbor or self-wake, so every ``RoundEvent`` is the
    per-node path's (round 0's is ``n``, as :func:`drive` reports it).  A
    bulk stage raises its own strict-limit errors, as the round that
    meters the message would.
    """

    def __init__(self, stage: Iterator[tuple], stats: "RunStats") -> None:
        self._stage = stage
        self.stats = stats
        #: Nodes that finished during this round.
        self.finished: list[int] = []
        #: Node id -> output, filled as nodes finish.
        self.outputs: dict[int, Any] = {}

    def start(self) -> None:
        self.step()

    def step(self, overlap: Callable[[], Any] | None = None) -> int:
        round_ = next(self._stage)
        messages, words, max_words, cut_words, awake, outputs = round_
        stats = self.stats
        stats.messages += messages
        stats.total_words += words
        if max_words > stats.max_words_per_edge_round:
            stats.max_words_per_edge_round = max_words
        stats.cut_words += cut_words
        self.finished = list(outputs)
        self.outputs.update(outputs)
        return awake
