"""Synchronous shuffle rounds for the low-space MPC simulator.

:class:`MPCRuntime` is the machine-level analogue of the CONGEST engines:
it executes :class:`~repro.mpc.machine.MachineProgram` instances in
synchronous rounds, where each round's messages cross one global
**shuffle**.  The shuffle is the metered object: per round it takes each
machine's sent and received words, enforces the model's O(S) per-round
I/O bound against every machine's ``io_budget_words`` — a violation
raises :class:`~repro.mpc.machine.MemoryBudgetExceeded` naming the
machine — and folds the round into :class:`MPCRunStats` (the
``RunStats``-style aggregate, including the
``__add__``-with-matching-word-size contract).

Native MPC workloads (:mod:`repro.mpc.matching`) run whole programs
through :meth:`MPCRuntime.run`, one serial loop in the caller's process
whose :meth:`~MPCRuntime.route` costs and delivers every message;
machine-local work is not spread over processes, because in the model
only the metered shuffles synchronise machines.  The CONGEST round-compiler
(:mod:`repro.mpc.compile_congest`) hands its planner's sums to
:meth:`~MPCRuntime.shuffle` directly.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.congest.errors import RoundLimitError
from repro.congest.message import payload_words
from repro.congest.network import combine_word_bits
from repro.mpc.machine import Machine, MachineProgram, MemoryBudgetExceeded

#: Routing-header words charged per shuffled message on top of its payload.
ENVELOPE_WORDS = 1

#: Default cap on simulated shuffle rounds for :meth:`MPCRuntime.run`.
DEFAULT_MAX_ROUNDS = 10_000


@dataclass
class MPCRunStats:
    """Aggregated shuffle usage of one (or several, summed) MPC runs.

    ``max_in_words`` / ``max_out_words`` are the worst single-machine
    receive/send loads over any one round — the "max machine load" of the
    model's O(S) I/O bound.  ``rounds`` counts *shuffles* (the MPC round
    unit; :attr:`shuffles` is the explicit alias), while
    ``congest_rounds`` counts the CONGEST rounds those shuffles carried:
    the two coincide at the classical 1:1 compilation and diverge under
    round compression, where one prefetch shuffle covers ``k`` locally
    replayed CONGEST rounds.  Mirrors
    :class:`~repro.congest.network.RunStats`: addition refuses to mix word
    sizes because word counts are not commensurable across them — except
    against an *empty* stats object (all counters zero), which acts as an
    additive identity regardless of its ``word_bits`` so ``sum(...,
    MPCRunStats())`` works over any homogeneous collection.
    """

    rounds: int = 0
    messages: int = 0
    total_words: int = 0
    max_in_words: int = 0
    max_out_words: int = 0
    word_bits: int = 0
    congest_rounds: int = 0

    @property
    def shuffles(self) -> int:
        """Shuffle count — an explicit alias of ``rounds``."""
        return self.rounds

    @property
    def total_bits(self) -> int:
        return self.total_words * self.word_bits

    def is_empty(self) -> bool:
        """True when every counter is zero (word size aside)."""
        return not (
            self.rounds
            or self.messages
            or self.total_words
            or self.max_in_words
            or self.max_out_words
            or self.congest_rounds
        )

    def __add__(self, other: "MPCRunStats") -> "MPCRunStats":
        word_bits = combine_word_bits(self, other, "MPCRunStats", "runtimes")
        return MPCRunStats(
            rounds=self.rounds + other.rounds,
            messages=self.messages + other.messages,
            total_words=self.total_words + other.total_words,
            max_in_words=max(self.max_in_words, other.max_in_words),
            max_out_words=max(self.max_out_words, other.max_out_words),
            word_bits=word_bits,
            congest_rounds=self.congest_rounds + other.congest_rounds,
        )

    def to_json(self) -> dict[str, int]:
        return {
            "rounds": self.rounds,
            "shuffles": self.shuffles,
            "congest_rounds": self.congest_rounds,
            "messages": self.messages,
            "total_words": self.total_words,
            "max_in_words": self.max_in_words,
            "max_out_words": self.max_out_words,
            "word_bits": self.word_bits,
        }


@dataclass
class ShuffleRecord:
    """Per-shuffle traffic: the MPC analogue of a trace ``RoundRecord``.

    ``congest_rounds`` is the number of CONGEST rounds this shuffle
    carried: 1 under the classical compilation, ``k`` for a compressed
    window's prefetch shuffle (the ``k`` rounds after it replay locally
    and appear in no further record).
    """

    round_index: int
    messages: int
    words: int
    max_in_words: int
    max_out_words: int
    active_machines: int
    congest_rounds: int = 1


@dataclass
class MPCRunResult:
    """Outputs and shuffle usage of one completed program run."""

    outputs: dict[int, Any]
    stats: MPCRunStats
    trace: list[ShuffleRecord] = field(default_factory=list)


class MPCRuntime:
    """Executes shuffle rounds over a fixed set of machines.

    Statistics accumulate over the runtime's lifetime (``stats``,
    ``trace``), so a multi-stage computation — e.g. the CONGEST compiler
    running several solver stages on one network — reports totals the same
    way a solver sums its stages' ``RunStats``.
    """

    def __init__(
        self,
        machines: Sequence[Machine],
        word_bits: int,
        on_shuffle=None,
    ) -> None:
        if not machines:
            raise ValueError("runtime needs at least one machine")
        if word_bits < 1:
            raise ValueError("word_bits must be positive")
        self.machines = list(machines)
        self.word_bits = word_bits
        self.stats = MPCRunStats(word_bits=word_bits)
        self.trace: list[ShuffleRecord] = []
        #: Optional callback invoked with each new :class:`ShuffleRecord`
        #: right after it lands on the trace.  Observation only — the
        #: record is live (``absorb_early_finish`` may still shrink its
        #: ``congest_rounds``), so consumers wanting final values should
        #: hold the reference and read at aggregation time.
        self.on_shuffle = on_shuffle
        #: Optional :class:`~repro.faults.inject.FaultInjector` whose
        #: ``before_shuffle`` hook fires at the top of :meth:`shuffle`;
        #: ``None`` (the default) keeps the fault-free hot path untouched.
        self.fault_injector = None
        #: Optional :class:`repro.trace.TraceRecorder`.  Observation only:
        #: it times the shuffle barrier and rides along to the compiled
        #: backend's shard pool; ledger, stats and delivery order never
        #: depend on it.
        self.tracer = None

    @property
    def num_machines(self) -> int:
        return len(self.machines)

    # -- the shuffle -------------------------------------------------------

    def shuffle(
        self,
        in_words: Sequence[int],
        out_words: Sequence[int],
        messages: int,
        active: int | None = None,
        congest_rounds: int = 1,
    ) -> None:
        """Meter one shuffle round from its per-machine loads.

        ``in_words[mid]`` / ``out_words[mid]`` are the words machine
        ``mid`` receives / sends and ``messages`` counts the messages
        crossing machines, as the caller summed them (:meth:`route`, or
        the CONGEST compiler's window planner).  In order: the fault
        injector's memory-pressure hook fires; each machine's send, then
        receive, load is checked against its ``io_budget_words`` in
        machine order (a violation raises :class:`MemoryBudgetExceeded`
        and leaves the ledger untouched); the stats fold the round; its
        :class:`ShuffleRecord` lands on the trace and goes to
        ``on_shuffle``; the tracer records the span.  ``congest_rounds``
        is the CONGEST rounds the shuffle carries (1 classically, the
        window length ``k`` for a compressed window's prefetch shuffle).
        """
        if congest_rounds < 1:
            raise ValueError("congest_rounds must be positive")
        if self.fault_injector is not None:
            self.fault_injector.before_shuffle(self)
        tracer = self.tracer
        shuffle_start = tracer.now_ns() if tracer is not None else 0
        for mid, machine in enumerate(self.machines):
            budget = machine.io_budget_words
            for verb, words in (
                ("sent", out_words[mid]), ("received", in_words[mid])
            ):
                if words > budget:
                    raise MemoryBudgetExceeded(
                        f"machine {mid} {verb} {words} words in round "
                        f"{self.stats.rounds + 1} but the per-round I/O "
                        f"budget is {budget} words (O(S) with "
                        f"S={machine.budget_words})"
                    )
        words_total = sum(out_words)
        max_in = max(in_words)
        max_out = max(out_words)
        stats = self.stats
        stats.rounds += 1
        stats.congest_rounds += congest_rounds
        stats.messages += messages
        stats.total_words += words_total
        stats.max_in_words = max(stats.max_in_words, max_in)
        stats.max_out_words = max(stats.max_out_words, max_out)
        record = ShuffleRecord(
            round_index=stats.rounds,
            messages=messages,
            words=words_total,
            max_in_words=max_in,
            max_out_words=max_out,
            active_machines=self.num_machines if active is None else active,
            congest_rounds=congest_rounds,
        )
        self.trace.append(record)
        if self.on_shuffle is not None:
            self.on_shuffle(record)
        if tracer is not None:
            tracer.complete(
                "shuffle",
                shuffle_start,
                tracer.now_ns(),
                cat="mpc",
                round=record.round_index,
                messages=messages,
                words=words_total,
                congest_rounds=congest_rounds,
                active=record.active_machines,
            )

    def route(
        self,
        outboxes: Sequence[Iterable[tuple[int, Any]] | None],
        active: int | None = None,
    ) -> list[list[tuple[int, Any]]]:
        """Deliver native programs' messages through one :meth:`shuffle`.

        ``outboxes[mid]`` holds machine ``mid``'s ``(dest, payload)``
        messages (or ``None``); each costs ``ENVELOPE_WORDS`` plus its
        payload's :func:`~repro.congest.message.payload_words`.  Returns
        ``inboxes``: ``inboxes[mid]`` lists ``(sender_mid, payload)``
        pairs by sender machine, then send order, and nothing is
        delivered when the shuffle raises.
        """
        m = self.num_machines
        if len(outboxes) != m:
            raise ValueError(f"expected {m} outboxes, got {len(outboxes)}")
        word_bits = self.word_bits
        in_words = [0] * m
        out_words = [0] * m
        inboxes: list[list[tuple[int, Any]]] = [[] for _ in range(m)]
        for sender, outbox in enumerate(outboxes):
            for dest, payload in outbox or ():
                if not isinstance(dest, int) or not 0 <= dest < m:
                    raise ValueError(
                        f"machine {sender} addressed invalid machine "
                        f"{dest!r} (have {m} machines)"
                    )
                words = ENVELOPE_WORDS + payload_words(payload, word_bits)
                out_words[sender] += words
                in_words[dest] += words
                inboxes[dest].append((sender, payload))
        messages = sum(map(len, inboxes))
        self.shuffle(in_words, out_words, messages, active=active)
        return inboxes

    def absorb_early_finish(self, unexecuted_rounds: int) -> None:
        """Give back CONGEST rounds a compressed window never replayed.

        A prefetch shuffle charges its planned window length up front; when
        every node finishes before the window is exhausted, the compiler
        calls this to keep ``stats.congest_rounds`` (and the last trace
        record) equal to the rounds actually executed.
        """
        if unexecuted_rounds < 0:
            raise ValueError("unexecuted_rounds must be non-negative")
        if not unexecuted_rounds:
            return
        if not self.trace:
            raise ValueError("no shuffle on record to absorb rounds from")
        record = self.trace[-1]
        if record.congest_rounds - unexecuted_rounds < 1:
            raise ValueError(
                f"last shuffle carried {record.congest_rounds} CONGEST "
                f"round(s); cannot give back {unexecuted_rounds}"
            )
        record.congest_rounds -= unexecuted_rounds
        self.stats.congest_rounds -= unexecuted_rounds

    # -- whole-program execution -------------------------------------------

    def run(
        self,
        programs: Sequence[MachineProgram],
        max_rounds: int | None = None,
    ) -> MPCRunResult:
        """Run one program per machine until all finish.

        Mirrors the CONGEST reference engine's structure: ``on_start``
        produces the first shuffle's messages, then every live program is
        invoked each round with its delivered inbox; a program may return
        a final outbox in the round it finishes (still delivered).  Raises
        :class:`~repro.congest.errors.RoundLimitError` when the programs
        do not terminate within ``max_rounds``.  Programs run in the
        caller's process and are mutated in place, so their post-run state
        (a coordinator's phase counter, a machine's ``stored_words``) is
        readable afterwards.
        """
        if len(programs) != self.num_machines:
            raise ValueError(
                f"expected {self.num_machines} programs, got {len(programs)}"
            )
        if max_rounds is None:
            max_rounds = DEFAULT_MAX_ROUNDS
        trace_start = len(self.trace)
        rounds_before = self.stats.rounds
        outboxes: list[Any] = [prog.on_start() for prog in programs]
        while live := sum(1 for prog in programs if not prog.done):
            if self.stats.rounds - rounds_before >= max_rounds:
                raise RoundLimitError(
                    f"no termination within {max_rounds} shuffle rounds "
                    f"({live} machines alive)"
                )
            inboxes = self.route(outboxes, active=live)
            outboxes = [None] * self.num_machines
            for mid, prog in enumerate(programs):
                if not prog.done:
                    outboxes[mid] = prog.on_round(inboxes[mid])
        # Final outboxes returned in the round every program finished (or
        # straight from on_start) must still cross one metered shuffle —
        # the loop above only shuffles while someone is live.
        if any(outboxes):
            self.route(outboxes, active=0)
        # Fold this run's trace slice into a per-run stats object.
        run_trace = self.trace[trace_start:]
        stats = MPCRunStats(word_bits=self.word_bits)
        for record in run_trace:
            stats.rounds += 1
            stats.congest_rounds += record.congest_rounds
            stats.messages += record.messages
            stats.total_words += record.words
            stats.max_in_words = max(stats.max_in_words, record.max_in_words)
            stats.max_out_words = max(
                stats.max_out_words, record.max_out_words
            )
        return MPCRunResult(
            outputs={mid: prog.output for mid, prog in enumerate(programs)},
            stats=stats,
            trace=run_trace,
        )
