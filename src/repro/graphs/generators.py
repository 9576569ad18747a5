"""Synthetic workload generators.

The paper motivates computing on ``G^2`` with radio/frequency-assignment
networks and derandomization via network decompositions; the generators here
cover those regimes plus standard stress shapes (dense random, sparse trees,
grids, cluster graphs whose squares contain huge cliques).

All generators return connected graphs with integer nodes ``0..n-1`` so the
CONGEST simulator can use node labels as identifiers directly.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterator

import networkx as nx

from repro.graphs.validation import WEIGHT


def _ensure_connected(graph: nx.Graph, rng: random.Random) -> nx.Graph:
    """Connect components by adding random inter-component edges."""
    components = [sorted(c) for c in nx.connected_components(graph)]
    anchor = components[0]
    for component in components[1:]:
        graph.add_edge(rng.choice(anchor), rng.choice(component))
    return graph


def _relabeled(graph: nx.Graph) -> nx.Graph:
    """Relabel nodes to 0..n-1 deterministically (sorted by repr)."""
    ordering = sorted(graph.nodes, key=repr)
    mapping = {old: new for new, old in enumerate(ordering)}
    return nx.relabel_nodes(graph, mapping)


def gnp_graph(n: int, p: float, seed: int = 0) -> nx.Graph:
    """Connected Erdos-Renyi ``G(n, p)``."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = random.Random(seed)
    graph = nx.gnp_random_graph(n, p, seed=seed)
    return _ensure_connected(graph, rng)


def random_geometric(n: int, radius: float | None = None, seed: int = 0) -> nx.Graph:
    """Connected random geometric graph (the radio-network motivation).

    With the default radius ``~sqrt(2 ln n / n)`` the graph is connected with
    high probability; stray components are connected explicitly.
    """
    if radius is None:
        radius = math.sqrt(2.0 * math.log(max(n, 2)) / max(n, 1))
    rng = random.Random(seed)
    graph = nx.random_geometric_graph(n, radius, seed=seed)
    return _ensure_connected(graph, rng)


def random_tree(n: int, seed: int = 0) -> nx.Graph:
    """Uniform random labeled tree (Pruefer sequence)."""
    if n < 1:
        raise ValueError("n must be positive")
    if n <= 2:
        return nx.path_graph(n)
    rng = random.Random(seed)
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    return nx.from_prufer_sequence(prufer)


def grid_graph(rows: int, cols: int) -> nx.Graph:
    """2D grid with nodes relabeled to integers."""
    return _relabeled(nx.grid_2d_graph(rows, cols))


def path_graph(n: int) -> nx.Graph:
    """Path on n vertices."""
    return nx.path_graph(n)


def cycle_graph(n: int) -> nx.Graph:
    """Cycle on n vertices."""
    return nx.cycle_graph(n)


def star_graph(n: int) -> nx.Graph:
    """Star with one center and n-1 leaves (n vertices total)."""
    return nx.star_graph(n - 1)


def caterpillar(spine: int, legs: int, seed: int = 0) -> nx.Graph:
    """Caterpillar: a path with up to ``legs`` pendant leaves per spine node.

    The square of a caterpillar contains a clique per spine neighborhood, the
    structural property Algorithm 1 exploits.
    """
    rng = random.Random(seed)
    graph = nx.path_graph(spine)
    next_id = spine
    for v in range(spine):
        for _ in range(rng.randint(0, legs)):
            graph.add_edge(v, next_id)
            next_id += 1
    return graph


def cluster_graph(
    clusters: int, cluster_size: int, bridge_prob: float = 0.2, seed: int = 0
) -> nx.Graph:
    """Star-shaped clusters joined in a ring; squares have huge cliques."""
    rng = random.Random(seed)
    graph = nx.Graph()
    centers = []
    next_id = 0
    for _ in range(clusters):
        center = next_id
        centers.append(center)
        graph.add_node(center)
        next_id += 1
        for _ in range(cluster_size - 1):
            graph.add_edge(center, next_id)
            next_id += 1
    for i, center in enumerate(centers):
        graph.add_edge(center, centers[(i + 1) % clusters])
    for i in range(clusters):
        for j in range(i + 2, clusters):
            if rng.random() < bridge_prob:
                graph.add_edge(centers[i], centers[j])
    return graph


def power_law_graph(n: int, m: int = 2, seed: int = 0) -> nx.Graph:
    """Barabasi-Albert preferential-attachment graph."""
    m = max(1, min(m, n - 1))
    return nx.barabasi_albert_graph(n, m, seed=seed)


def random_weights(
    graph: nx.Graph,
    low: int = 1,
    high: int = 100,
    seed: int = 0,
) -> nx.Graph:
    """Attach integer weights in ``[low, high]`` (in place) and return graph.

    The paper's weighted algorithms assume positive weights representable in
    O(log n) bits; integer weights up to ``high`` satisfy that for the sizes
    we simulate.
    """
    if low < 1:
        raise ValueError("weights must be positive (paper Section 3.2)")
    rng = random.Random(seed)
    for v in graph.nodes:
        graph.nodes[v][WEIGHT] = rng.randint(low, high)
    return graph


#: Graph kinds accepted by :func:`build_graph` (the CLI / sweep vocabulary).
GRAPH_KINDS = (
    "gnp",
    "geometric",
    "tree",
    "grid",
    "path",
    "cycle",
    "star",
    "power-law",
)


def check_graph_kind(kind: str) -> str:
    """``kind`` if :func:`build_graph` knows it, else a ``ValueError``."""
    if kind not in GRAPH_KINDS:
        raise ValueError(
            f"unknown graph kind {kind!r}; choose from {GRAPH_KINDS}"
        )
    return kind


def check_graph_size(n: int) -> int:
    """``n`` if it is a size :func:`build_graph` accepts, else a ``ValueError``."""
    if n < 1:
        raise ValueError("n must be positive")
    return n


def build_graph(kind: str, n: int, seed: int = 0, p: float | None = None) -> nx.Graph:
    """Build one of the named workload graphs at size ``n``.

    This is the shared vocabulary of the CLI and the sweep runner: a cell
    spec names a kind from :data:`GRAPH_KINDS` and this function turns it
    into a concrete connected graph.  ``p`` overrides the edge probability
    for ``gnp`` (default ``min(0.3, 5/n)``, the sparse regime used across
    the benchmarks).  Every kind rejects ``n < 1``.
    """
    check_graph_size(n)
    check_graph_kind(kind)
    if kind == "gnp":
        if p is None:
            p = min(0.3, 5.0 / max(n, 2))
        return gnp_graph(n, p, seed=seed)
    if kind == "geometric":
        return random_geometric(n, seed=seed)
    if kind == "tree":
        return random_tree(n, seed=seed)
    if kind == "grid":
        side = max(2, int(n ** 0.5))
        return grid_graph(side, side)
    if kind == "path":
        return path_graph(n)
    if kind == "cycle":
        return cycle_graph(n)
    if kind == "star":
        return star_graph(n)
    return power_law_graph(n, m=2, seed=seed)  # "power-law"


def workload_suite(
    scale: str = "small", seed: int = 0
) -> Iterator[tuple[str, nx.Graph]]:
    """Yield (name, graph) pairs: a standard suite used by tests and benches."""
    sizes = {"tiny": 12, "small": 24, "medium": 48, "large": 96}
    if scale not in sizes:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(sizes)}")
    n = sizes[scale]
    builders: list[tuple[str, Callable[[], nx.Graph]]] = [
        ("gnp_sparse", lambda: gnp_graph(n, 2.5 / n, seed=seed)),
        ("gnp_dense", lambda: gnp_graph(n, 0.3, seed=seed + 1)),
        ("geometric", lambda: random_geometric(n, seed=seed + 2)),
        ("tree", lambda: random_tree(n, seed=seed + 3)),
        ("grid", lambda: grid_graph(max(2, int(math.sqrt(n))), max(2, int(math.sqrt(n))))),
        ("caterpillar", lambda: caterpillar(max(3, n // 4), 3, seed=seed + 4)),
        ("clusters", lambda: cluster_graph(max(2, n // 8), 8, seed=seed + 5)),
        ("power_law", lambda: power_law_graph(n, 2, seed=seed + 6)),
    ]
    for name, build in builders:
        yield name, build()
