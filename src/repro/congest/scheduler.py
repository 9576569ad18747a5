"""Activity bookkeeping for the event-driven engine (engine v2).

The reference engine wakes every live node every round and rebuilds all
per-node inbox dictionaries from scratch.  At scale that overhead dominates:
in a pipelined convergecast on a path almost every node is silent almost
every round.  This module provides the two data structures engine v2 uses to
exploit that sparsity:

* :class:`MailboxRing` — double-buffered, reusable per-node inboxes.  Sends
  of round ``r`` accumulate in the *back* buffers; :meth:`MailboxRing.flip`
  promotes them to *front* for delivery in round ``r + 1`` and recycles the
  previous front dictionaries in place (only the ones that actually held
  traffic are cleared).  No dictionaries are allocated after construction.
* :class:`ActivityScheduler` — the live-node counter and self-wake set.
  Quiescence is detected by decrementing ``live`` when a node finishes
  instead of scanning every algorithm every round, and the runnable set of
  a round is exactly ``self-wakes | nodes-with-pending-traffic``.

The self-wake protocol these structures implement (stated in full in
:mod:`repro.congest.engine`): a node runs in round ``r`` iff it has traffic
promoted by :meth:`MailboxRing.flip` or it called
:meth:`ActivityScheduler.request_wake` after its previous invocation.  The
wake set is consumed by :meth:`ActivityScheduler.runnable` each round, so a
wake is good for exactly one round; the engine re-queries
:meth:`~repro.congest.algorithm.NodeAlgorithm.wants_wake` after every
invocation to decide whether to re-arm it.

Parity with the reference engine (the v1/v2 contract of
``tests/test_engine_parity.py``) is preserved because none of this changes
*what* runs, only *when* nothing-to-do invocations are skipped:
``runnable`` returns ids in ascending order (the reference invocation
order), sends are metered identically, and a node whose ``wants_wake``
honestly reports idleness would have ignored the skipped rounds anyway.

A delivered inbox dictionary is only valid during the round it is delivered
in; the engine reuses it two rounds later.  Node algorithms must copy
anything they want to keep — the contract stated on
:meth:`~repro.congest.algorithm.NodeAlgorithm.on_round` (the reference
engine hands out fresh dictionaries, so holding one was never useful, but
only under this engine does holding one actually go wrong).
"""

from __future__ import annotations

from collections.abc import Iterable, Set
from typing import Any


class MailboxRing:
    """Double-buffered per-node inbox dictionaries, reused across rounds."""

    __slots__ = ("_front", "_back", "_front_dirty", "_back_dirty")

    def __init__(self, n: int) -> None:
        self._front: list[dict[int, Any]] = [{} for _ in range(n)]
        self._back: list[dict[int, Any]] = [{} for _ in range(n)]
        #: Nodes whose front (being consumed) / back (accumulating) buffer
        #: holds traffic.  Only dirty buffers are ever cleared.
        self._front_dirty: set[int] = set()
        self._back_dirty: set[int] = set()

    def post(self, sender: int, target: int, payload: Any) -> None:
        """Queue ``payload`` for delivery to ``target`` next round."""
        self._back[target][sender] = payload
        self._back_dirty.add(target)

    def post_batch(
        self, sender: int, targets: Iterable[int], payload: Any
    ) -> None:
        """Queue one ``payload`` for every target in ``targets``.

        Equivalent to calling :meth:`post` once per target, but with the
        buffer list and dirty set bound once for the whole batch — the
        delivery half of the engine's batched-outbox fast path.  Duplicate
        targets overwrite, exactly as repeated :meth:`post` calls would.
        """
        back = self._back
        for target in targets:
            back[target][sender] = payload
        self._back_dirty.update(targets)

    def flip(self) -> Set[int]:
        """Start a new round: promote queued traffic to deliverable.

        Returns the set of nodes with traffic to consume this round.  The
        returned set is internal state — callers must not mutate it.
        """
        # repro: allow[DET003] clearing every dirty buffer commutes; order never observed
        for node_id in self._front_dirty:
            self._front[node_id].clear()
        self._front_dirty.clear()
        self._front, self._back = self._back, self._front
        self._front_dirty, self._back_dirty = (
            self._back_dirty,
            self._front_dirty,
        )
        return self._front_dirty

    def inbox(self, node_id: int) -> dict[int, Any]:
        """The inbox delivered to ``node_id`` this round (possibly empty)."""
        return self._front[node_id]

    def has_pending(self) -> bool:
        """Whether any traffic is queued for delivery next round."""
        return bool(self._back_dirty)


class ActivityScheduler:
    """Tracks which nodes are alive and which must run next round.

    A node runs in a round iff it has pending inbox traffic or it asked to
    be woken (:meth:`request_wake`).  ``live`` counts unfinished nodes; the
    engine's quiescence test is ``live == 0`` — O(1) instead of the
    reference engine's every-round scan over all algorithms.
    """

    __slots__ = ("live", "_wake")

    def __init__(self, n: int) -> None:
        self.live = n
        self._wake: set[int] = set()

    def request_wake(self, node_id: int) -> None:
        """Ensure ``node_id`` is invoked next round even without traffic."""
        self._wake.add(node_id)

    def node_finished(self) -> None:
        """Record that one node called ``finish``."""
        self.live -= 1

    def snapshot(self) -> tuple[int, tuple[int, ...]]:
        """``(live, sorted wake set)`` — the state a checkpoint must keep."""
        return self.live, tuple(sorted(self._wake))

    def restore(self, snapshot: tuple[int, tuple[int, ...]]) -> None:
        """Reset to a :meth:`snapshot`."""
        self.live, wake = snapshot
        self._wake = set(wake)

    def runnable(self, traffic: Iterable[int]) -> list[int]:
        """Consume the wake set; return this round's nodes in id order.

        Ascending id order matches the reference engine's invocation order,
        which keeps inbox insertion order — and therefore any
        order-sensitive algorithm behavior — byte-identical between engines.
        With the solver stages now sleeping through their traffic-woken
        rounds, an empty wake set is the common case; it skips the union
        allocation entirely.
        """
        if self._wake:
            ids = sorted(self._wake.union(traffic))
            self._wake.clear()
        else:
            ids = sorted(traffic)
        return ids
