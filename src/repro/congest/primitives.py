"""Reusable message-passing building blocks.

These are genuine CONGEST algorithms (every bit crosses a metered edge):

* :class:`BfsTreeAlgorithm` — build a BFS tree from a root in O(D) rounds;
  every node learns its parent, depth and children.
* :class:`ConvergecastAlgorithm` — pipeline constant-size tokens up the tree
  to the root.  With ``T`` tokens total and depth ``D`` this takes
  ``O(D + T)`` rounds, which is exactly the pipelining argument behind
  Lemma 2 ("the leader learns F in O(n/eps) rounds").
* :class:`BroadcastAlgorithm` — pipeline a token list from the root to all
  nodes in ``O(D + T)`` rounds (used to distribute the leader's locally
  computed solution, Theorem 1's final step).

Tokens are tuples of small integers; each message is a tag plus one token
and respects the word budget.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping, Sequence
from typing import Any

from repro.congest.algorithm import Inbox, NodeAlgorithm, NodeView, Outbox
from repro.congest.network import CongestNetwork, RunResult

#: Key in ``NodeView.state`` under which BFS tree data is stored.
BFS_STATE = "bfs"

_TAG_JOIN = 0
_TAG_CLAIM = 1
_TAG_TOKEN = 2
_TAG_DONE = 3

Token = tuple[int, ...]


class BfsTreeAlgorithm(NodeAlgorithm):
    """Flood from ``root`` building a BFS tree.

    Each node finishes with ``{"parent": id | -1, "depth": d, "children":
    tuple}`` as output, also stored in ``node.state[BFS_STATE]``.  A node at
    depth ``d`` joins in round ``d``, its children claim it in round
    ``d + 2``, so the whole construction takes ``D + 2`` rounds.
    """

    def __init__(self, node: NodeView, root: int) -> None:
        super().__init__(node)
        self.root = root
        self.parent: int | None = None
        self.depth: int | None = None
        self.children: list[int] = []
        self.rounds_since_join = 0

    def _join_outbox(self) -> dict[int, Any]:
        outbox: dict[int, Any] = {}
        for neighbor in self.node.neighbors:
            if neighbor == self.parent:
                outbox[neighbor] = (_TAG_CLAIM,)
            else:
                outbox[neighbor] = (_TAG_JOIN, self.depth + 1)
        return outbox

    def _complete(self) -> None:
        info = {
            "parent": self.parent if self.parent is not None else -1,
            "depth": self.depth,
            "children": tuple(sorted(self.children)),
        }
        self.node.state[BFS_STATE] = info
        self.finish(info)

    def on_start(self) -> Outbox:
        if self.node.id != self.root:
            return None
        self.parent = None
        self.depth = 0
        if not self.node.neighbors:
            self._complete()
            return None
        return self.broadcast((_TAG_JOIN, 1))

    def on_round(self, inbox: Inbox) -> Outbox:
        outbox: dict[int, Any] = {}
        if self.depth is None:
            joins = {
                sender: msg
                for sender, msg in inbox.items()
                if msg[0] == _TAG_JOIN
            }
            if not joins:
                return None
            self.parent = min(joins)
            self.depth = joins[self.parent][1]
            outbox = self._join_outbox()
        else:
            self.rounds_since_join += 1
            self.children.extend(
                sender for sender, msg in inbox.items() if msg[0] == _TAG_CLAIM
            )
            if self.rounds_since_join >= 2:
                self._complete()
        return outbox

    def wants_wake(self) -> bool:
        # Before joining, the node is purely reactive (an empty inbox is a
        # no-op); after joining it counts rounds and must run every round.
        return self.depth is not None


class ConvergecastAlgorithm(NodeAlgorithm):
    """Pipeline tokens up a previously built BFS tree to the root.

    Every node contributes the token list found in
    ``node.state[tokens_key]`` (default: empty).  The root finishes with the
    complete list of tokens (its own plus everything received); other nodes
    finish with ``None``.
    """

    def __init__(self, node: NodeView, tokens_key: str = "tokens") -> None:
        super().__init__(node)
        tree = node.state.get(BFS_STATE)
        if tree is None:
            raise ValueError("ConvergecastAlgorithm requires a BFS tree in state")
        self.parent: int = tree["parent"]
        self.waiting_children: set[int] = set(tree["children"])
        own = node.state.get(tokens_key, ())
        self.queue: deque[Token] = deque(tuple(t) for t in own)
        self.collected: list[Token] = list(self.queue) if self.parent < 0 else []

    def _step(self, inbox: Inbox) -> Outbox:
        for sender, msg in inbox.items():
            if msg[0] == _TAG_TOKEN:
                token = tuple(msg[1:])
                if self.parent < 0:
                    self.collected.append(token)
                else:
                    self.queue.append(token)
            elif msg[0] == _TAG_DONE:
                self.waiting_children.discard(sender)
        if self.parent < 0:
            if not self.waiting_children:
                self.finish(self.collected)
            return None
        if self.queue:
            return {self.parent: (_TAG_TOKEN, *self.queue.popleft())}
        if not self.waiting_children:
            self.finish(None)
            return {self.parent: (_TAG_DONE,)}
        return None

    def on_start(self) -> Outbox:
        return self._step({})

    def on_round(self, inbox: Inbox) -> Outbox:
        return self._step(inbox)

    def wants_wake(self) -> bool:
        # Tokens still queued -> keep draining one per round; all children
        # reported -> one more run to finish (and send DONE upward).
        # Otherwise the node only reacts to arriving tokens/DONEs.
        if self.parent < 0:
            return not self.waiting_children
        return bool(self.queue) or not self.waiting_children


class BroadcastAlgorithm(NodeAlgorithm):
    """Pipeline a token list from the root down the BFS tree to all nodes.

    The root's tokens are read from ``node.state[tokens_key]``; every node
    finishes with the full list as output (and stores it in
    ``node.state[result_key]``).
    """

    def __init__(
        self,
        node: NodeView,
        tokens_key: str = "bcast_tokens",
        result_key: str = "bcast_result",
    ) -> None:
        super().__init__(node)
        tree = node.state.get(BFS_STATE)
        if tree is None:
            raise ValueError("BroadcastAlgorithm requires a BFS tree in state")
        self.parent: int = tree["parent"]
        self.children: tuple[int, ...] = tree["children"]
        self.result_key = result_key
        self.received: list[Token] = []
        if self.parent < 0:
            self.to_send: deque[Any] = deque(
                (_TAG_TOKEN, *tuple(t)) for t in node.state.get(tokens_key, ())
            )
            self.to_send.append((_TAG_DONE,))
            self.received = [tuple(t) for t in node.state.get(tokens_key, ())]

    def _complete(self) -> None:
        self.node.state[self.result_key] = list(self.received)
        self.finish(list(self.received))

    def _root_step(self) -> Outbox:
        if not self.to_send:
            return None
        msg = self.to_send.popleft()
        if not self.to_send:
            self._complete()
        if not self.children:
            return None
        return self.send_many(self.children, msg)

    def on_start(self) -> Outbox:
        if self.parent < 0:
            return self._root_step()
        return None

    def on_round(self, inbox: Inbox) -> Outbox:
        if self.parent < 0:
            return self._root_step()
        msg = inbox.get(self.parent)
        if msg is None:
            return None
        if msg[0] == _TAG_TOKEN:
            self.received.append(tuple(msg[1:]))
        elif msg[0] == _TAG_DONE:
            self._complete()
        if self.children:
            return self.send_many(self.children, msg)
        return None

    def wants_wake(self) -> bool:
        # The root drives the pipeline while it has tokens left; everyone
        # else only relays what arrives from the parent.
        return self.parent < 0 and bool(self.to_send)


# -- standalone drivers ----------------------------------------------------


def build_bfs_tree(
    network: CongestNetwork, root_label: Any | None = None
) -> RunResult:
    """Build a BFS tree; by default the maximum-id node is the root.

    The paper's algorithms 'elect a leader'; since identifiers and ``n`` are
    common knowledge in the model, the maximum identifier serves as leader
    with zero communication and the BFS construction costs O(D) rounds.
    """
    root = network.n - 1 if root_label is None else network.id_of(root_label)
    return network.run(lambda view: BfsTreeAlgorithm(view, root))


def convergecast_tokens(
    network: CongestNetwork,
    tokens_by_label: Mapping[Any, Sequence[Token]],
    root_label: Any | None = None,
) -> tuple[list[Token], RunResult]:
    """Build a BFS tree and pipeline all tokens to the root.

    Returns ``(tokens_at_root, combined_result)``.
    """
    network.reset_state()
    root = network.n - 1 if root_label is None else network.id_of(root_label)
    bfs = network.run(lambda view: BfsTreeAlgorithm(view, root))
    for label, tokens in tokens_by_label.items():
        network.node_state[network.id_of(label)]["tokens"] = list(tokens)
    gather = network.run(lambda view: ConvergecastAlgorithm(view))
    root_label_actual = network.label_of(root)
    collected = gather.outputs[root_label_actual]
    combined = RunResult(
        outputs=gather.outputs,
        stats=bfs.stats + gather.stats,
        by_id=gather.by_id,
    )
    return collected, combined


def broadcast_tokens(
    network: CongestNetwork,
    tokens: Sequence[Token],
    root_label: Any | None = None,
) -> tuple[RunResult, RunResult]:
    """Build a BFS tree and pipeline ``tokens`` from the root to everyone.

    Returns ``(broadcast_result, bfs_result)``.
    """
    network.reset_state()
    root = network.n - 1 if root_label is None else network.id_of(root_label)
    bfs = network.run(lambda view: BfsTreeAlgorithm(view, root))
    network.node_state[root]["bcast_tokens"] = [tuple(t) for t in tokens]
    result = network.run(lambda view: BroadcastAlgorithm(view))
    combined = RunResult(
        outputs=result.outputs,
        stats=bfs.stats + result.stats,
        by_id=result.by_id,
    )
    return combined, bfs
