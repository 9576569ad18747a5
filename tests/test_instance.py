"""The input contract: one typed error per invalid input class, everywhere.

Every entry point builds one :class:`~repro.graphs.instance.Instance` from
its graph, so each invalid input class must be rejected with the same
error type and the same fixed message by every network, MPC solver and
CONGEST/clique solver.  Disconnected graphs are a limit of the ``G^2``
solvers only: a bare network and native matching accept them.
"""

from __future__ import annotations

import dataclasses
import pickle

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.congest.algorithm import NodeAlgorithm
from repro.congest.message import word_bits_for
from repro.congest.network import CongestNetwork
from repro.core.mds_congest import approx_mds_square
from repro.core.mvc_clique import (
    approx_mvc_square_clique_deterministic,
    approx_mvc_square_clique_randomized,
)
from repro.core.mvc_congest import approx_mvc_square
from repro.core.mwvc_congest import approx_mwvc_square
from repro.core.trivial import independent_set_upper_bound
from repro.graphs.instance import (
    DisconnectedGraphError,
    EmptyGraphError,
    InputError,
    Instance,
    NotSimpleGraphError,
)
from repro.mpc.compile_congest import (
    MPCCongestNetwork,
    solve_mds_mpc,
    solve_mvc_mpc,
)
from repro.mpc.matching import assert_maximal_matching, mpc_maximal_matching

#: Memory exponent for the MPC entry points: roomy enough that no budget
#: error can mask the input error under test.
ALPHA = 1.5

ENTRY_POINTS = {
    "CongestNetwork": CongestNetwork,
    "MPCCongestNetwork": lambda g: MPCCongestNetwork(g, alpha=ALPHA),
    "approx_mvc_square": lambda g: approx_mvc_square(g, 0.5),
    "approx_mds_square": approx_mds_square,
    "approx_mwvc_square": lambda g: approx_mwvc_square(g, 0.5),
    "clique_deterministic": (
        lambda g: approx_mvc_square_clique_deterministic(g, 0.5)
    ),
    "clique_randomized": lambda g: approx_mvc_square_clique_randomized(g, 0.5),
    "solve_mvc_mpc": lambda g: solve_mvc_mpc(g, 0.5, alpha=ALPHA, workers=1),
    "solve_mds_mpc": lambda g: solve_mds_mpc(g, alpha=ALPHA, workers=1),
    "mpc_maximal_matching": (
        lambda g: mpc_maximal_matching(g, alpha=ALPHA)
    ),
}

#: The entry points that solve on ``G^2`` and so need a connected ``G``.
SQUARE_SOLVERS = frozenset(ENTRY_POINTS) - {
    "CongestNetwork", "MPCCongestNetwork", "mpc_maximal_matching",
}


@st.composite
def connected_graphs(draw, min_n: int = 1, max_n: int = 7) -> nx.Graph:
    """A random spanning tree on ``0..n-1`` plus random chords."""
    n = draw(st.integers(min_n, max_n))
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for v in range(1, n):
        graph.add_edge(v, draw(st.integers(0, v - 1)))
    vertex = st.integers(0, n - 1)
    chords = draw(st.lists(st.tuples(vertex, vertex), max_size=n))
    graph.add_edges_from((u, v) for u, v in chords if u != v)
    return graph


def _with_self_loop(graph, data):
    vertex = data.draw(st.sampled_from(sorted(graph.nodes)), label="loop at")
    graph.add_edge(vertex, vertex)
    return graph


def _with_isolated_vertex(graph, data):
    graph.add_node(graph.number_of_nodes())
    return graph


def _with_second_component(graph, data):
    other = data.draw(connected_graphs(min_n=2), label="second component")
    return nx.disjoint_union(graph, other)


#: input class -> (build from a random connected graph, its typed error).
INPUT_CLASSES = {
    "empty": (lambda graph, data: nx.Graph(), EmptyGraphError),
    "self-loop": (_with_self_loop, NotSimpleGraphError),
    "DiGraph": (lambda graph, data: nx.DiGraph(graph), NotSimpleGraphError),
    "MultiGraph": (
        lambda graph, data: nx.MultiGraph(graph), NotSimpleGraphError
    ),
    "isolated vertex": (_with_isolated_vertex, DisconnectedGraphError),
    "two components": (_with_second_component, DisconnectedGraphError),
}


def _rejects(input_class: str, entry: str) -> type[InputError] | None:
    error = INPUT_CLASSES[input_class][1]
    if error is DisconnectedGraphError and entry not in SQUARE_SOLVERS:
        return None
    return error


class _NeighborIds(NodeAlgorithm):
    """Broadcast the own id once; output the ids heard from."""

    def on_start(self):
        return self.broadcast(self.node.id)

    def on_round(self, inbox):
        self.finish(tuple(sorted(inbox)))
        return None


def _check_accepted(entry: str, graph: nx.Graph, outcome) -> None:
    if entry == "mpc_maximal_matching":
        assert_maximal_matching(graph, outcome.matching)
        return
    result = outcome.run(_NeighborIds)
    for label, heard in result.outputs.items():
        expected = sorted(outcome.id_of(v) for v in graph.neighbors(label))
        assert list(heard) == expected


@pytest.mark.parametrize("input_class", list(INPUT_CLASSES))
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(base=connected_graphs(), data=st.data())
def test_one_typed_error_per_input_class(entry, input_class, base, data):
    build, _ = INPUT_CLASSES[input_class]
    graph = build(base, data)
    error = _rejects(input_class, entry)
    if error is None:
        _check_accepted(entry, graph, ENTRY_POINTS[entry](graph))
        return
    with pytest.raises(InputError) as excinfo:
        ENTRY_POINTS[entry](graph)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == error.message


def test_rejections_cover_every_entry_point():
    """Each invalid simple-graph class is rejected by all ten entry points."""
    for input_class in ("empty", "self-loop", "DiGraph", "MultiGraph"):
        assert all(_rejects(input_class, entry) for entry in ENTRY_POINTS)
    assert len(SQUARE_SOLVERS) == 7


def test_messages_are_distinct_value_errors():
    errors = (EmptyGraphError, NotSimpleGraphError, DisconnectedGraphError)
    assert len({error.message for error in errors}) == len(errors)
    for error in errors:
        assert issubclass(error, ValueError)
        raised = error()
        assert str(raised) == error.message
        restored = pickle.loads(pickle.dumps(raised))
        assert type(restored) is error and str(restored) == error.message


class TestInstance:
    def test_labels_sorted_by_repr(self):
        graph = nx.Graph([("b", "a"), ("a", 10), (10, 2)])
        instance = Instance(graph)
        assert instance.labels == tuple(sorted(graph.nodes, key=repr))
        assert all(
            instance.id_of[label] == i
            for i, label in enumerate(instance.labels)
        )
        for i, neighbors in enumerate(instance.adjacency):
            label = instance.labels[i]
            assert neighbors == tuple(
                sorted(instance.id_of[v] for v in graph.neighbors(label))
            )
        assert instance.n == 4
        assert instance.word_bits == word_bits_for(4)

    def test_frozen(self):
        instance = Instance(nx.path_graph(3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            instance.word_bits = 99

    def test_networks_share_the_instance_ids(self):
        graph = nx.cycle_graph(["x", "y", "z", 3])
        instance = Instance(graph)
        for network in (
            CongestNetwork(graph),
            MPCCongestNetwork(graph, alpha=ALPHA),
        ):
            assert network.instance.labels == instance.labels
            assert [network.label_of(i) for i in network.ids()] == list(
                instance.labels
            )
            assert network.word_bits == instance.word_bits

    def test_word_bits_for_empty_is_the_empty_error(self):
        with pytest.raises(EmptyGraphError):
            word_bits_for(0)

    def test_lemma_6_bound_requires_connected(self):
        graph = nx.Graph([(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            independent_set_upper_bound(graph, 2)

    def test_single_vertex_is_connected(self):
        graph = nx.Graph()
        graph.add_node("v")
        Instance(graph).require_connected()
