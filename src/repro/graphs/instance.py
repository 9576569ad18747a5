"""The validated input every network, partitioner and solver shares.

An :class:`Instance` is one input graph, checked once and canonicalized
once: labels sorted by ``repr`` (label ``i`` gets id ``i`` on every
backend), the label -> id map, sorted adjacency id tuples and the word
size.  Its constructor is the only input validator, with one typed
:class:`ValueError` and fixed message per invalid class: an empty graph,
and a graph that is not simple and undirected (``DiGraph``,
``MultiGraph``, self-loop).  Disconnected graphs are valid instances;
only the ``G^2`` solvers, whose leader stages gather over one BFS tree,
call :meth:`Instance.require_connected`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

import networkx as nx


class InputError(ValueError):
    """An input graph outside the simulator's contract (fixed message)."""

    message = "invalid input graph"

    def __init__(self) -> None:
        super().__init__(self.message)

    def __reduce__(self) -> tuple[type, tuple]:
        return type(self), ()


class EmptyGraphError(InputError):
    message = "graph must have at least one vertex"


class NotSimpleGraphError(InputError):
    message = (
        "graph must be simple and undirected: no DiGraph, MultiGraph or "
        "self-loop"
    )


class DisconnectedGraphError(InputError):
    message = (
        "graph must be connected: the G^2 solvers gather at one leader "
        "over a BFS tree"
    )


def word_bits_for(n: int) -> int:
    """Bits per word in an n-node network: ``ceil(log2(n+1))``, at least 1."""
    if n < 1:
        raise EmptyGraphError()
    return max(1, math.ceil(math.log2(n + 1)))


@dataclass(frozen=True, eq=False)
class Instance:
    """One validated input graph with its canonical ids and adjacency."""

    graph: nx.Graph
    #: id -> label, in canonical (sorted-by-repr) order.
    labels: tuple[Any, ...] = field(init=False)
    #: label -> id.
    id_of: Mapping[Any, int] = field(init=False)
    #: id -> ascending neighbor ids.
    adjacency: tuple[tuple[int, ...], ...] = field(init=False)
    word_bits: int = field(init=False)

    def __post_init__(self) -> None:
        graph = self.graph
        if graph.is_directed() or graph.is_multigraph():
            raise NotSimpleGraphError()
        if graph.number_of_nodes() == 0:
            raise EmptyGraphError()
        if nx.number_of_selfloops(graph):
            raise NotSimpleGraphError()
        labels = tuple(sorted(graph.nodes, key=repr))
        id_of = {label: i for i, label in enumerate(labels)}
        adjacency = tuple(
            tuple(sorted(id_of[nbr] for nbr in graph.neighbors(label)))
            for label in labels
        )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "id_of", id_of)
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "word_bits", word_bits_for(len(labels)))

    @property
    def n(self) -> int:
        return len(self.labels)

    def require_connected(self) -> None:
        """Raise :class:`DisconnectedGraphError` unless ``G`` is connected."""
        if not nx.is_connected(self.graph):
            raise DisconnectedGraphError()
