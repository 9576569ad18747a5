"""Per-node algorithm interface for the CONGEST simulator."""

from __future__ import annotations

import random
from collections.abc import Iterable, Mapping
from typing import Any

from repro.congest.message import BatchOutbox

Outbox = Mapping[int, Any] | BatchOutbox | None
Inbox = Mapping[int, Any]


class NodeView:
    """Everything a node is allowed to see.

    Attributes
    ----------
    id:
        The node's integer identifier, unique in ``0..n-1``.  The simulator
        assigns identifiers; the original graph label is ``label``.
    label:
        The label of this node in the input :class:`networkx.Graph`.
    neighbors:
        Identifiers of the node's neighbors *in the input graph* (even in the
        CONGESTED CLIQUE, where messages may go anywhere).
    n:
        Number of nodes in the network (common knowledge, as is standard).
    input:
        Per-node problem input (e.g. its weight), supplied to ``run``.
    state:
        A dict persisting across pipeline stages on the same network; stages
        of one paper algorithm hand intermediate results to the next stage
        through it.
    rng:
        Node-private deterministic randomness: ``random.Random`` seeded
        with ``"{seed}/{id}"``, built on first use (most stages never
        draw).
    """

    __slots__ = (
        "id", "label", "neighbors", "n", "input", "state", "_seed", "_rng",
    )

    def __init__(
        self,
        node_id: int,
        label: Any,
        neighbors: tuple[int, ...],
        n: int,
        node_input: Any,
        state: dict,
        seed: int,
    ) -> None:
        self.id = node_id
        self.label = label
        self.neighbors = neighbors
        self.n = n
        self.input = node_input
        self.state = state
        self._seed = seed
        self._rng: random.Random | None = None

    @property
    def rng(self) -> random.Random:
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(f"{self._seed}/{self.id}")
        return rng

    @property
    def degree(self) -> int:
        """Degree in the input graph."""
        return len(self.neighbors)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeView(id={self.id}, label={self.label!r})"


class NodeAlgorithm:
    """Base class for node-local algorithms.

    Subclasses override :meth:`on_start` (run before the first round) and
    :meth:`on_round` (run every round with the messages delivered this
    round).  Both return an outbox: a mapping ``{neighbor_id: payload}``, a
    :class:`~repro.congest.message.BatchOutbox` (one payload to many
    targets, built with :meth:`broadcast` / :meth:`send_many`), or ``None``
    for silence.  The two forms are interchangeable — engines meter and
    deliver them identically — but the batch form lets the activity engine
    meter a whole broadcast in O(1) instead of O(degree).  Call
    :meth:`finish` to record the node's output and stop participating; a
    finished node neither sends nor is invoked again, so relays must stay
    alive as long as traffic may pass through them.
    """

    def __init__(self, node: NodeView) -> None:
        self.node = node
        self.done = False
        self.output: Any = None

    def on_start(self) -> Outbox:
        """Produce messages for round 1.  Default: silence."""
        return None

    def on_round(self, inbox: Inbox) -> Outbox:
        """Handle this round's inbox, produce next round's messages.

        ``inbox`` is only valid during this call: the activity-scheduled
        engine recycles inbox dictionaries across rounds, so copy anything
        you need to keep rather than storing the mapping itself.
        """
        raise NotImplementedError

    def finish(self, output: Any = None) -> None:
        """Record ``output`` and halt this node."""
        self.done = True
        self.output = output

    def wants_wake(self) -> bool:
        """Whether the node must run next round even with an empty inbox.

        The activity-scheduled engine (v2) invokes a node only when it has
        pending inbox traffic or this hook returns True.  The default —
        always — preserves reference semantics for any algorithm.  Two
        override patterns are sound (both keep the engines byte-identical):

        * **genuinely idle** — an empty-inbox ``on_round`` call would be a
          strict no-op (no state change, no sends), so skipping it changes
          nothing (the BFS/convergecast primitives);
        * **guaranteed traffic** — the protocol guarantees inbound messages
          next round (e.g. every live neighbor broadcasts on a fixed
          cadence), so the traffic wake fires anyway and the self-wake is
          redundant bookkeeping (the Phase I status protocol and the MDS
          estimation stages; see their cadence tables in ``DESIGN.md``).

        Any override outside those two patterns desynchronizes the node's
        state machine from the round counter and breaks the v1/v2 parity
        contract.
        """
        return True

    def broadcast(self, payload: Any) -> BatchOutbox:
        """Outbox sending ``payload`` to every neighbor (batched form).

        The returned batch is *trusted*: its target tuple is the node's
        adjacency, so engines skip per-target validity checks.  Equivalent
        to ``{neighbor: payload for neighbor in self.node.neighbors}`` in
        results and metering, but costs O(1) to build and, on the activity
        engine, O(1) to meter.
        """
        return BatchOutbox(self.node.neighbors, payload, True)

    def send_many(self, targets: Iterable[int], payload: Any) -> BatchOutbox:
        """Outbox sending ``payload`` to each of ``targets`` (batched form).

        Targets are validated by the engine exactly like dictionary-outbox
        keys (self-addressing, range and adjacency checks, in target
        order).  Duplicate targets are metered per occurrence, like two
        same-edge messages in one round.
        """
        return BatchOutbox(tuple(targets), payload, False)
