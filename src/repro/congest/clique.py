"""The CONGESTED CLIQUE model.

Identical to :class:`~repro.congest.network.CongestNetwork` except that a
node may address *any* other node each round (still O(log n) bits per
ordered pair per round).  The input-graph adjacency remains visible through
``NodeView.neighbors``; algorithms solving problems on ``G^2`` still reason
about ``G`` even though the communication graph is complete
([LPPP03], footnote 2 of the paper).
"""

from __future__ import annotations

from repro.congest.network import CongestNetwork


class CongestedCliqueNetwork(CongestNetwork):
    """All-to-all variant of the CONGEST runtime."""

    def _can_send(self, sender: int, target: int) -> bool:
        return sender != target and 0 <= target < self.n
