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

Each algorithm has a pure-Python bulk form beside it
(:func:`bfs_tree_bulk`, :func:`convergecast_bulk`,
:func:`broadcast_bulk`) that computes the stage's rounds from the
adjacency, the tree and the token lists instead of calling handlers; pass
it as ``network.run(..., bulk=...)``, as the drivers below and the
solvers do.  It reproduces the handlers' outputs, stage state, metering
and round events exactly (``DESIGN.md``, "Bulk stages").
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from functools import partial
from typing import Any

from repro.congest.algorithm import Inbox, NodeAlgorithm, NodeView, Outbox
from repro.congest.message import payload_words
from repro.congest.network import CongestNetwork, RunResult

#: Key in ``NodeView.state`` under which BFS tree data is stored.
BFS_STATE = "bfs"

_TAG_JOIN = 0
_TAG_CLAIM = 1
_TAG_TOKEN = 2
_TAG_DONE = 3

Token = tuple[int, ...]

#: A bulk round's send, as metered: ``(sender, target, words)``.
Send = tuple[int, int, int]


def _traffic(
    network: CongestNetwork,
    messages: int,
    words: int,
    heaviest: int,
    sends: Callable[[], Iterable[Send]],
    finish: Callable[[int], Any] | None = None,
) -> tuple[int, int, int, int]:
    """A bulk round's ``(messages, words, max_words, cut_words)``.

    ``sends()`` lists the round's messages; it is walked only for cut
    words or past a strict limit.  There the round raises the handlers'
    error, for the smallest sender's first target, once ``finish(sender)``
    has completed the nodes that finish this round before that sender.
    """
    cut = network._cut
    cut_words = 0
    if cut:
        cut_words = sum(w for v, u, w in sends() if frozenset((v, u)) in cut)
    limit = network.word_limit
    if network.strict and heaviest > limit:
        sender, target, over = min(s for s in sends() if s[2] > limit)
        if finish is not None:
            finish(sender)
        raise network._oversize(sender, target, over)
    return messages, words, heaviest, cut_words


def _idle() -> Iterator[tuple]:
    """Empty rounds: nodes that never hear anything run to the limit."""
    while True:
        yield 0, 0, 0, 0, 0, {}


def _trees(network: CongestNetwork, name: str) -> list[dict]:
    """Every node's BFS tree state, or the handlers' construction error."""
    trees = [network.node_state[v].get(BFS_STATE) for v in range(network.n)]
    if None in trees:
        raise ValueError(f"{name} requires a BFS tree in state")
    return trees


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


def bfs_tree_bulk(network: CongestNetwork, root: int) -> Iterator[tuple]:
    """:class:`BfsTreeAlgorithm`'s bulk form: a level-synchronous BFS.

    Level ``d`` joins in round ``d`` (CLAIM to its parent, the smallest-id
    neighbor on level ``d - 1``; JOIN to every other neighbor) and
    completes in round ``d + 2``, so round ``r`` invokes levels ``r - 2``
    to ``r``.  Every JOIN costs the same, so only round 0 can break a
    strict limit.  The unreached nodes of a disconnected graph run the
    stage to its round limit.
    """
    adjacency = network._adjacency
    parent, depth, children = {root: -1}, {root: 0}, {root: []}
    levels = [[root]]
    while True:
        level = []
        for v in levels[-1]:  # ascending: a node's parent is its min JOINer
            for u in adjacency[v]:
                if u not in parent:
                    parent[u], depth[u], children[u] = v, len(levels), []
                    children[v].append(u)
                    level.append(u)
        if not level:
            break
        levels.append(sorted(level))

    def complete(v: int) -> dict:
        info = {"parent": parent[v], "depth": depth[v]}
        info["children"] = tuple(children[v])
        network.node_state[v][BFS_STATE] = info
        return info

    if not adjacency[root]:  # an isolated root completes in round 0
        yield 0, 0, 0, 0, network.n, {root: complete(root)}
        yield from _idle()
    sizes = [0, 0] + [len(level) for level in levels] + [0, 0]
    claim = payload_words((_TAG_CLAIM,), network.word_bits)
    for r in range(len(levels) + 2):
        joiners = levels[r] if r < len(levels) else ()
        join = payload_words((_TAG_JOIN, r + 1), network.word_bits)
        messages = sum(len(adjacency[v]) for v in joiners)
        claims = len(joiners) if r else 0
        traffic = _traffic(
            network, messages, messages * join + claims * (claim - join),
            join if messages > claims else claim if messages else 0,
            lambda: ((v, u, claim if u == parent[v] else join)
                     for v in joiners for u in adjacency[v]),
        )
        awake = sum(sizes[r:r + 3]) if r else network.n
        done = levels[r - 2] if r >= 2 else ()
        yield *traffic, awake, {v: complete(v) for v in done}
    yield from _idle()


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


def convergecast_bulk(
    network: CongestNetwork, tokens_key: str = "tokens"
) -> Iterator[tuple]:
    """:class:`ConvergecastAlgorithm`'s bulk form: a queue simulation.

    Each round runs, in id order, the nodes engine v2 would invoke (those
    that heard from a child or self-wake): a node forwards its oldest
    queued token (its own come first), or sends DONE once its queue is
    empty and every child is done.  The sends are then delivered in
    ascending sender order, so the root's token list comes out in the
    handlers' order.  The cost is O(tokens x depth).
    """
    trees = _trees(network, "ConvergecastAlgorithm")
    word_bits = network.word_bits
    parent = [tree["parent"] for tree in trees]
    waiting = [len(tree["children"]) for tree in trees]
    # Queues hold tokens as they arrive; a root's never drains.
    queues = [
        deque(tuple(t) for t in network.node_state[v].get(tokens_key, ()))
        for v in range(network.n)
    ]
    costs = {None: payload_words((_TAG_DONE,), word_bits)}
    invoked: Sequence[int] = range(network.n)
    while True:
        outputs: dict[int, Any] = {}
        sends: list[tuple[int, int, int, Token | None]] = []  # None: DONE
        woken = []
        for v in invoked:
            queue = queues[v]
            if parent[v] < 0:
                if not waiting[v]:
                    outputs[v] = list(queue)
                continue
            if queue:
                token = queue.popleft()
                if queue or not waiting[v]:
                    woken.append(v)
            elif waiting[v]:
                continue
            else:
                token = outputs[v] = None
            if token not in costs:
                costs[token] = payload_words((_TAG_TOKEN, *token), word_bits)
            sends.append((v, parent[v], costs[token], token))
        weights = [send[2] for send in sends]
        traffic = _traffic(
            network, len(sends), sum(weights), max(weights, default=0),
            lambda: (send[:3] for send in sends),
        )
        yield *traffic, len(invoked), outputs
        heard = set(woken)
        for _v, target, _words, token in sends:
            heard.add(target)
            if token is None:
                waiting[target] -= 1
            else:
                queues[target].append(token)
        invoked = sorted(heard)


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


def broadcast_bulk(
    network: CongestNetwork,
    tokens_key: str = "bcast_tokens",
    result_key: str = "bcast_result",
) -> Iterator[tuple]:
    """:class:`BroadcastAlgorithm`'s bulk form, closed-form over the tree.

    A root sends message ``i`` (its tokens, then DONE) in round ``i``; a
    node at depth ``d`` hears it in round ``i + d``, relays it to its
    children in the same round and completes on DONE.  The nodes at one
    depth below one root therefore share one schedule, and each round is
    summed over those classes, not over nodes.
    """
    trees = _trees(network, "BroadcastAlgorithm")
    state = network.node_state
    children = [tree["children"] for tree in trees]
    classes = []  # (depth, members, tokens, message costs, their children)
    for root in (v for v, tree in enumerate(trees) if tree["parent"] < 0):
        tokens = [tuple(t) for t in state[root].get(tokens_key, ())]
        payloads = [(_TAG_TOKEN, *t) for t in tokens] + [(_TAG_DONE,)]
        costs = [payload_words(m, network.word_bits) for m in payloads]
        members, depth = [root], 0
        while members:
            kids = sum(len(children[v]) for v in members)
            classes.append((depth, members, tokens, costs, kids))
            members = [c for v in members for c in children[v]]
            depth += 1

    def complete(v: int, tokens: list[Token]) -> list[Token]:
        state[v][result_key] = list(tokens)
        return list(tokens)

    ends = [depth + len(costs) for depth, _, _, costs, _ in classes]
    for r in range(max(ends, default=0)):
        messages = words = heaviest = awake = 0
        relays = []
        done: dict[int, list[Token]] = {}
        for depth, members, tokens, costs, kids in classes:
            i = r - depth
            if 0 <= i < len(costs):
                awake += len(members)
                if kids:
                    messages += kids
                    words += kids * costs[i]
                    heaviest = max(heaviest, costs[i])
                    relays.append((members, costs[i]))
                if i == len(costs) - 1:
                    done.update(dict.fromkeys(members, tokens))
        traffic = _traffic(
            network, messages, words, heaviest,
            lambda: ((v, c, w) for members, w in relays
                     for v in members for c in children[v]),
            lambda sender: [complete(v, done[v]) for v in done if v <= sender],
        )
        outputs = {v: complete(v, tokens) for v, tokens in done.items()}
        yield *traffic, awake if r else network.n, outputs
    yield from _idle()


# -- standalone drivers ----------------------------------------------------


def build_bfs_tree(
    network: CongestNetwork,
    root_label: Any | None = None,
    label: str | None = None,
) -> RunResult:
    """Build a BFS tree; by default the maximum-id node is the root.

    The paper's algorithms 'elect a leader'; since identifiers and ``n`` are
    common knowledge in the model, the maximum identifier serves as leader
    with zero communication and the BFS construction costs O(D) rounds.
    ``label`` names the stage, as in :meth:`CongestNetwork.run`.
    """
    root = network.n - 1 if root_label is None else network.id_of(root_label)
    return network.run(
        lambda view: BfsTreeAlgorithm(view, root),
        label=label,
        bulk=partial(bfs_tree_bulk, root=root),
    )


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
    bfs = build_bfs_tree(network, network.label_of(root))
    for label, tokens in tokens_by_label.items():
        network.node_state[network.id_of(label)]["tokens"] = list(tokens)
    gather = network.run(ConvergecastAlgorithm, bulk=convergecast_bulk)
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
    bfs = build_bfs_tree(network, network.label_of(root))
    network.node_state[root]["bcast_tokens"] = [tuple(t) for t in tokens]
    result = network.run(BroadcastAlgorithm, bulk=broadcast_bulk)
    combined = RunResult(
        outputs=result.outputs,
        stats=bfs.stats + result.stats,
        by_id=result.by_id,
    )
    return combined, bfs
