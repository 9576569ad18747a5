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
* :class:`ActivityScheduler` — the self-wake set.  The runnable set of a
  round is exactly ``self-wakes | nodes-with-pending-traffic``.

The self-wake protocol these structures implement (stated in full in
:mod:`repro.congest.engine`): a node runs in round ``r`` iff it has traffic
promoted by :meth:`MailboxRing.flip` or the engine added it to
:attr:`ActivityScheduler.wake` after its previous invocation.  The
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
    """Double-buffered per-node inbox dictionaries, reused across rounds.

    ``front[v]`` is the inbox delivered to ``v`` this round; sends for the
    next round accumulate in ``back`` (marking ``back_dirty``).
    """

    __slots__ = ("front", "back", "_front_dirty", "back_dirty")

    def __init__(self, n: int) -> None:
        self.front: list[dict[int, Any]] = [{} for _ in range(n)]
        self.back: list[dict[int, Any]] = [{} for _ in range(n)]
        #: Nodes whose front (being consumed) / back (accumulating) buffer
        #: holds traffic.  Only dirty buffers are ever cleared.
        self._front_dirty: set[int] = set()
        self.back_dirty: set[int] = set()

    def post(self, sender: int, target: int, payload: Any) -> None:
        """Queue ``payload`` for delivery to ``target`` next round."""
        self.back[target][sender] = payload
        self.back_dirty.add(target)

    def post_batch(
        self, sender: int, targets: Iterable[int], payload: Any
    ) -> None:
        """Queue one ``payload`` for every target in ``targets``.

        Equivalent to calling :meth:`post` once per target, but with the
        buffer list and dirty set bound once for the whole batch.  The
        engine delivers untrusted batches and shard traffic through it;
        trusted broadcasts write :attr:`back` inline.  Duplicate targets
        overwrite, exactly as repeated :meth:`post` calls would.
        """
        back = self.back
        for target in targets:
            back[target][sender] = payload
        self.back_dirty.update(targets)

    def flip(self) -> Set[int]:
        """Start a new round: promote queued traffic to deliverable.

        Returns the set of nodes with traffic to consume this round.  The
        returned set is internal state — callers must not mutate it.
        """
        # repro: allow[DET003] clearing every dirty buffer commutes; order never observed
        for node_id in self._front_dirty:
            self.front[node_id].clear()
        self._front_dirty.clear()
        self.front, self.back = self.back, self.front
        self._front_dirty, self.back_dirty = (
            self.back_dirty,
            self._front_dirty,
        )
        return self._front_dirty


class ActivityScheduler:
    """Tracks which nodes must run next round.

    A node runs in a round iff it has pending inbox traffic or its id is
    in ``wake`` (the engine adds it when the node asks to be woken).
    """

    __slots__ = ("wake",)

    def __init__(self) -> None:
        self.wake: set[int] = set()

    def runnable(self, traffic: Iterable[int]) -> list[int]:
        """Consume the wake set; return this round's nodes in id order.

        Ascending id order matches the reference engine's invocation order,
        which keeps inbox insertion order — and therefore any
        order-sensitive algorithm behavior — byte-identical between engines.
        With the solver stages now sleeping through their traffic-woken
        rounds, an empty wake set is the common case; it skips the union
        allocation entirely.
        """
        if self.wake:
            ids = sorted(self.wake.union(traffic))
            self.wake.clear()
        else:
            ids = sorted(traffic)
        return ids
