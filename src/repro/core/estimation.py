"""Lemma 29: randomized 2-hop neighborhood size estimation.

To simulate the [CD18] dominating-set algorithm on ``G^2`` without shipping
whole neighbor lists (which congestion forbids), every member ``u`` of a
set ``U`` draws exponential variables ``W_1^u .. W_r^u`` with mean 1; the
minimum of exponentials over a set of size ``d`` is exponential with mean
``1/d``, so each vertex ``v`` can recover ``d_v = |N^2[v] cap U|`` from the
empirical mean of the minima over its (closed) 2-hop neighborhood.  Two
rounds propagate a minimum two hops, so ``r`` samples cost ``2r`` rounds;
``r = Theta(log n)`` gives ``(1 +- eps)`` concentration w.h.p. (Lemma 30,
Cramer).  Floats model the O(log n)-bit fixed-point reals the paper argues
are sufficient.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import Any

from repro.congest.algorithm import Inbox, NodeAlgorithm, NodeView, Outbox
from repro.congest.network import CongestNetwork, RunResult
from repro.contract import is_deterministic_int

_TAG_SAMPLE = 40
_TAG_MIN = 41

#: Estimates below this are reported as zero (empty 2-hop membership).
_INFINITY = float("inf")


class EstimationStage(NodeAlgorithm):
    """One run of the Lemma 29 estimator.

    Membership is read from ``node.state[member_key]`` (missing = False).
    On completion every node's output (and ``node.state[result_key]``) is
    its estimate of ``|N^2[v] cap U|`` — *closed* 2-hop neighborhood, which
    is the coverage count ``|C_v|`` the MDS algorithm needs.
    """

    def __init__(
        self,
        node: NodeView,
        samples: int,
        member_key: str = "in_U",
        result_key: str = "density_estimate",
    ) -> None:
        super().__init__(node)
        if not is_deterministic_int(samples) or samples < 1:
            raise ValueError(
                f"samples must be a positive integer, got {samples!r}"
            )
        self.samples = samples
        self.member = bool(node.state.get(member_key, False))
        self.result_key = result_key
        self.sample_index = 0
        self.step = 0  # 0: we just sent our W, 1: we just sent the 1-hop min
        self.own_w: float | None = None
        self.hop1_min = _INFINITY
        self.minima: list[float] = []

    def _emit_sample(self) -> Outbox:
        self.step = 0
        if self.member:
            self.own_w = self.node.rng.expovariate(1.0)
            return self.broadcast((_TAG_SAMPLE, self.own_w))
        self.own_w = None
        return None

    def on_start(self) -> Outbox:
        return self._emit_sample()

    def on_round(self, inbox: Inbox) -> Outbox:
        if self.step == 0:
            # W values arrived: fold into the 1-hop (closed) minimum.
            values = [msg[1] for msg in inbox.values() if msg[0] == _TAG_SAMPLE]
            if self.own_w is not None:
                values.append(self.own_w)
            self.hop1_min = min(values) if values else _INFINITY
            self.step = 1
            encoded = self.hop1_min if self.hop1_min < _INFINITY else -1.0
            return self.broadcast((_TAG_MIN, encoded))
        # 1-hop minima arrived: fold into the 2-hop minimum.
        values = [
            msg[1]
            for msg in inbox.values()
            if msg[0] == _TAG_MIN and msg[1] >= 0.0
        ]
        if self.hop1_min < _INFINITY:
            values.append(self.hop1_min)
        self.minima.append(min(values) if values else _INFINITY)
        self.sample_index += 1
        if self.sample_index >= self.samples:
            estimate = self._estimate()
            self.node.state[self.result_key] = estimate
            self.finish(estimate)
            return None
        return self._emit_sample()

    def _estimate(self) -> float:
        if any(math.isinf(m) for m in self.minima):
            return 0.0
        total = sum(self.minima)
        if total <= 0.0:
            return 0.0
        return self.samples / total

    def wants_wake(self) -> bool:
        # Two-round sample cadence with guaranteed traffic on the second
        # round: after emitting W values (step just reset to 0) the next
        # invocation must run even with an empty inbox — every node
        # broadcasts its 1-hop minimum there, member nearby or not.  After
        # that broadcast (step 1) every live neighbor has broadcast one
        # too, so the fold round is traffic-woken.  Isolated nodes always
        # self-wake.
        return self.step == 0 or not self.node.neighbors


def default_samples(n: int, factor: float = 8.0) -> int:
    """``ceil(factor * log2 n)`` samples (Lemma 30 wants Theta(log n))."""
    return max(4, math.ceil(factor * math.log2(max(n, 2))))


def estimate_neighborhood_sizes(
    network: CongestNetwork,
    members: Iterable[Any],
    samples: int | None = None,
) -> tuple[dict[Any, float], RunResult]:
    """Estimate ``|N^2[v] cap U|`` for every vertex, ``U = members``.

    Returns ``(estimates_by_label, run_result)``.
    """
    if samples is None:
        samples = default_samples(network.n)
    network.reset_state()
    member_ids = {network.id_of(label) for label in members}
    for node_id in network.ids():
        network.node_state[node_id]["in_U"] = node_id in member_ids
    result = network.run(lambda view: EstimationStage(view, samples))
    return dict(result.outputs), result
