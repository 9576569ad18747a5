"""Lemma 6: the zero-round trivial approximation on powers.

Any independent set of ``G^r`` in a connected graph has fewer than
``n / (floor(r/2) + 1)`` vertices, so every vertex cover of ``G^r`` has at
least ``n - n/(floor(r/2)+1)`` vertices and taking *all* vertices is a
``(1 + 1/floor(r/2))``-approximation — a 2-approximation for ``G^2`` that
needs no communication at all, which is the baseline the paper's
``(1+eps)`` algorithms beat.
"""

from __future__ import annotations

import math

import networkx as nx

from repro.graphs.instance import Instance


def trivial_power_cover(graph: nx.Graph) -> set:
    """The all-vertices cover (feasible for every power of ``G``)."""
    return set(graph.nodes)


def trivial_ratio_bound(r: int) -> float:
    """The Lemma 6 guarantee ``1 + 1/floor(r/2)`` (infinite for r = 1)."""
    if r < 1:
        raise ValueError("power must be >= 1")
    half = r // 2
    if half == 0:
        return math.inf
    return 1.0 + 1.0 / half


def independent_set_upper_bound(graph: nx.Graph, r: int) -> float:
    """Lemma 6's bound: any independent set of ``G^r`` has < ``n/alpha``
    vertices, ``alpha = floor(r/2) + 1`` (requires connected ``G``)."""
    Instance(graph).require_connected()
    alpha = r // 2 + 1
    return graph.number_of_nodes() / alpha


def vertex_cover_lower_bound(graph: nx.Graph, r: int) -> float:
    """``n - n/alpha``: minimum size of any vertex cover of ``G^r``."""
    n = graph.number_of_nodes()
    return n - independent_set_upper_bound(graph, r)
