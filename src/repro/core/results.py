"""Result records and the input preamble shared by the distributed solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import networkx as nx

from repro.congest.network import CongestNetwork, RunStats


@dataclass
class DistributedCoverResult:
    """Outcome of a distributed cover/dominating-set computation.

    Attributes
    ----------
    cover:
        The solution, as a set of original graph labels.
    stats:
        Summed simulator statistics over all stages (rounds, messages,
        bits, worst per-edge load).
    detail:
        Algorithm-specific extras, e.g. Phase I additions, the residual
        vertex set U, the leader's locally computed optimum, iteration
        counts.
    """

    cover: set
    stats: RunStats
    detail: dict[str, Any] = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        return self.stats.rounds

    def __len__(self) -> int:
        return len(self.cover)


def square_solver_network(
    graph: nx.Graph,
    network: CongestNetwork | None,
    seed: int,
    engine: str | None,
    network_class: type[CongestNetwork] = CongestNetwork,
) -> CongestNetwork:
    """The network a ``G^2`` solver runs on, over a validated connected input.

    A fresh ``network_class`` over ``graph`` (with ``seed`` and ``engine``)
    unless a prebuilt ``network`` is passed; ``engine`` applies only to a
    fresh network.  Building the network validates the input (see
    :class:`~repro.graphs.instance.Instance`); the solvers additionally
    need a connected ``G``, because their leader stages gather over one
    BFS tree, so a disconnected input raises
    :class:`~repro.graphs.instance.DisconnectedGraphError`.
    """
    if network is None:
        network = network_class(graph, seed=seed, engine=engine)
    elif engine is not None:
        raise ValueError("pass either network= or engine=, not both")
    network.instance.require_connected()
    return network
