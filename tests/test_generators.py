"""Tests for the workload generators."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.graphs.generators import (
    GRAPH_KINDS,
    build_graph,
    caterpillar,
    cluster_graph,
    cycle_graph,
    gnp_graph,
    grid_graph,
    path_graph,
    power_law_graph,
    random_geometric,
    random_tree,
    random_weights,
    star_graph,
    workload_suite,
)
from repro.graphs.validation import WEIGHT


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("kind", GRAPH_KINDS)
def test_build_graph_rejects_nonpositive_n(kind, n):
    with pytest.raises(ValueError, match="^n must be positive$"):
        build_graph(kind, n)


@pytest.mark.parametrize("n", [1, 2, 5, 20, 50])
def test_gnp_connected(n):
    g = gnp_graph(n, 0.1, seed=1)
    assert g.number_of_nodes() == n
    assert n == 1 or nx.is_connected(g)


def test_gnp_rejects_empty():
    with pytest.raises(ValueError):
        gnp_graph(0, 0.5)


@pytest.mark.parametrize("seed", range(4))
def test_geometric_connected(seed):
    g = random_geometric(30, seed=seed)
    assert nx.is_connected(g)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 25])
def test_tree_is_tree(n):
    g = random_tree(n, seed=2)
    assert g.number_of_nodes() == n
    assert g.number_of_edges() == n - 1
    assert n == 1 or nx.is_connected(g)


def test_grid_shape():
    g = grid_graph(3, 4)
    assert g.number_of_nodes() == 12
    assert nx.is_connected(g)
    assert all(isinstance(v, int) for v in g.nodes)


def test_caterpillar_spine():
    g = caterpillar(6, 2, seed=0)
    assert nx.is_connected(g)
    assert g.number_of_nodes() >= 6


def test_cluster_graph_connected():
    g = cluster_graph(4, 5, seed=0)
    assert nx.is_connected(g)
    assert g.number_of_nodes() == 20


def test_power_law_connected():
    g = power_law_graph(30, 2, seed=0)
    assert nx.is_connected(g)


def test_simple_shapes():
    assert path_graph(4).number_of_edges() == 3
    assert cycle_graph(5).number_of_edges() == 5
    assert star_graph(7).number_of_nodes() == 7


def test_random_weights_range():
    g = random_weights(path_graph(10), low=2, high=9, seed=1)
    values = [g.nodes[v][WEIGHT] for v in g.nodes]
    assert all(2 <= w <= 9 for w in values)


def test_random_weights_rejects_nonpositive():
    with pytest.raises(ValueError):
        random_weights(path_graph(3), low=0)


def test_workload_suite_yields_connected():
    names = set()
    for name, graph in workload_suite("tiny", seed=1):
        names.add(name)
        assert nx.is_connected(graph), name
        assert graph.number_of_nodes() >= 4
    assert len(names) == 8


def test_workload_suite_unknown_scale():
    with pytest.raises(ValueError):
        list(workload_suite("galactic"))
