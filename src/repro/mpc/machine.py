"""Machines of the low-space MPC model, with metered memory budgets.

The Massively Parallel Computation model splits the input across machines
with ``S = ceil(n^alpha)`` words of local memory each (``alpha < 1`` is the
*low-space* a.k.a. sublinear regime of [CzumajDP21]_, arXiv:2106.01880);
per synchronous round every machine may send and receive O(S) words
through a global shuffle.  We meter both sides of that contract with the
same :func:`~repro.congest.message.payload_words` word accounting the
CONGEST simulator uses, so MPC and CONGEST costs are commensurable:

* **storage** — the words a machine holds durably (its graph partition,
  its share of a distributed output).  Charged via :meth:`Machine.charge`
  / released via :meth:`Machine.release`; exceeding ``S`` raises
  :class:`MemoryBudgetExceeded`.
* **shuffle I/O** — the words a machine sends or receives in one round,
  enforced by :class:`~repro.mpc.runtime.MPCRuntime` against
  ``io_factor * S`` (the model's O(S) with an explicit constant, since a
  simulator cannot hide constants inside big-O).

What is *not* metered: transient Python-level algorithm state (loop
variables, this round's working set).  Low-space MPC analyses likewise
charge only input shares and communicated words; metering interpreter
internals would measure CPython, not the model.
"""

from __future__ import annotations

import math
from typing import Any


class MemoryBudgetExceeded(RuntimeError):
    """A machine exceeded its per-machine memory (or shuffle I/O) budget.

    Raised by :meth:`Machine.charge` when durable storage outgrows ``S``
    and by the runtime when one round's shuffle traffic at a machine
    exceeds ``io_factor * S``.  Sweep cells that hit this are captured as
    per-cell ``error`` results by the runner, never as a crashed sweep.
    """


def check_alpha(alpha: float) -> float:
    """Return ``alpha`` if it is a memory exponent in ``(0, 2]``."""
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must be in (0, 2], got {alpha!r}")
    return alpha


def memory_budget(n: int, alpha: float) -> int:
    """Per-machine memory ``S = ceil(n^alpha)`` words, at least one.

    ``alpha < 1`` is the low-space regime (many machines, real shuffle
    traffic); ``alpha`` up to 2 is allowed for the near-linear/debug
    regime — ``S = n^2`` always holds a whole simple graph, so a single
    machine suffices and every message stays local.

    Float precision: ``n ** alpha`` can land a couple of ulps *above* an
    exact integer root (``3125 ** 0.2 == 5.000000000000001``), which a
    bare ``math.ceil`` would overshoot to 6.  Values within a few ulps of
    an integer snap to that integer before the ceiling, so perfect powers
    get their exact root.
    """
    if n < 1:
        raise ValueError("n must be positive")
    raw = n ** check_alpha(alpha)
    nearest = round(raw)
    if nearest >= 1 and abs(raw - nearest) <= 4 * math.ulp(raw):
        return max(1, nearest)
    return max(1, math.ceil(raw))


class Machine:
    """One MPC machine: its identity, budgets and metered storage."""

    __slots__ = (
        "machine_id", "budget_words", "io_budget_words", "stored_words"
    )

    def __init__(
        self, machine_id: int, budget_words: int, io_factor: float = 8.0
    ) -> None:
        if budget_words < 1:
            raise ValueError("budget_words must be positive")
        if io_factor < 1.0:
            raise ValueError("io_factor must be >= 1")
        self.machine_id = machine_id
        self.budget_words = budget_words
        self.io_budget_words = max(
            budget_words, math.ceil(io_factor * budget_words)
        )
        self.stored_words = 0

    def charge(self, words: int, what: str = "data") -> None:
        """Account ``words`` of durable storage; raise on overflow."""
        if words < 0:
            raise ValueError("cannot charge a negative word count")
        self.stored_words += words
        if self.stored_words > self.budget_words:
            raise MemoryBudgetExceeded(
                f"machine {self.machine_id} needs {self.stored_words} words "
                f"for {what} but its memory budget S is "
                f"{self.budget_words} words"
            )

    def release(self, words: int) -> None:
        """Return ``words`` of storage to the budget (e.g. peeled edges)."""
        if words < 0:
            raise ValueError("cannot release a negative word count")
        self.stored_words = max(0, self.stored_words - words)

    def window_budget_words(self) -> int:
        """Words of k-hop frontier this machine may prefetch in one window.

        Round compression ships a machine the message frontier and the
        neighbor state it needs to replay ``k`` CONGEST rounds locally.
        The frontier arrives through a single shuffle and is held only for
        the window, so the binding constraint is the model's per-round
        O(S) I/O bound (``io_factor * S``), not durable storage: the
        compiler's window planner compares every machine's prefetched
        words against this budget and shrinks ``k`` (ultimately to the
        uncompressed ``k = 1``) until the window fits everywhere.
        """
        return self.io_budget_words

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine(id={self.machine_id}, stored={self.stored_words}/"
            f"{self.budget_words} words)"
        )


class MachineProgram:
    """Base class for per-machine MPC programs (the node-algorithm analogue).

    Subclasses override :meth:`on_start` (before the first shuffle) and
    :meth:`on_round` (once per shuffle round, with the messages delivered
    to this machine).  Both return an iterable of ``(dest_machine_id,
    payload)`` pairs, or ``None`` for silence; payloads use the same
    vocabulary as CONGEST messages (ints, floats, bools, strings, tuples).
    Call :meth:`finish` to record the machine's share of the output and
    stop being invoked; like a finishing CONGEST node, the outbox returned
    alongside the final round is still delivered.
    """

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.done = False
        self.output: Any = None

    def on_start(self):
        """Produce messages for the first shuffle.  Default: silence."""
        return None

    def on_round(self, inbox: list[tuple[int, Any]]):
        """Handle one round's ``(sender_machine_id, payload)`` messages."""
        raise NotImplementedError

    def finish(self, output: Any = None) -> None:
        self.done = True
        self.output = output
