"""Differential tests for the tree primitives' bulk forms.

Engine v2 runs :func:`~repro.congest.primitives.bfs_tree_bulk`,
:func:`~repro.congest.primitives.convergecast_bulk` and
:func:`~repro.congest.primitives.broadcast_bulk` in place of their
handlers on a plain :class:`CongestNetwork` of at least
``BULK_MIN_NODES`` nodes; the tests lower that threshold to 0 so small
graphs take the bulk path, and the bulk runs' factory fails if any
handler is built.  Each scenario runs the three stages in sequence (BFS,
upcast, broadcast) in three forms: bulk, per-node v2 and v1.  Bulk and
per-node v2 must agree on everything a caller or observer can see:
``RunStats`` field by field, every ``RoundEvent`` (``awake`` included) and
``RoundRecord``, ``by_id`` / ``outputs`` and their order, every node's
stage state and the root's token order.  v1 must agree on all of it but
``awake``, which counts the nodes each engine invokes.  None of these
forms needs numpy.
"""

from __future__ import annotations

import copy
import random
import sys
from functools import partial

import networkx as nx
import pytest

from repro.congest import network as network_module
from repro.congest.clique import CongestedCliqueNetwork
from repro.congest.errors import CongestionError, RoundLimitError
from repro.congest.network import CongestNetwork
from repro.congest.primitives import (
    BfsTreeAlgorithm,
    BroadcastAlgorithm,
    ConvergecastAlgorithm,
    bfs_tree_bulk,
    broadcast_bulk,
    broadcast_tokens,
    build_bfs_tree,
    convergecast_bulk,
    convergecast_tokens,
)
from repro.core.mds_congest import approx_mds_square
from repro.core.mvc_congest import PhaseOneAlgorithm, approx_mvc_square
from repro.core.mwvc_congest import approx_mwvc_square
from repro.graphs.generators import gnp_graph, path_graph, random_tree, star_graph
from repro.metrics import MetricsCollector
from repro.mpc.compile_congest import MPCCongestNetwork

#: The three ways to run a stage: bulk on v2, handlers on v2, handlers on v1.
FORMS = ("bulk", "v2", "v1")

GRAPHS = {
    "gnp": lambda: gnp_graph(36, 0.15, seed=4),
    "star": lambda: star_graph(25),
    "path": lambda: path_graph(21),
    "tree": lambda: random_tree(30, seed=7),
    "single": lambda: nx.path_graph(1),
}

TREE_CLASSES = (BfsTreeAlgorithm, ConvergecastAlgorithm, BroadcastAlgorithm)


@pytest.fixture(autouse=True)
def bulk_at_every_size(monkeypatch):
    monkeypatch.setattr(network_module, "BULK_MIN_NODES", 0)


def _no_handlers(view):
    raise AssertionError("a bulk run built a per-node algorithm")


def tokens_for(kind: str, n: int, width: int | None = 2) -> tuple[dict, list]:
    """``(upcast tokens by node, broadcast tokens)`` for a token ``kind``.

    Tokens have ``width`` entries, or 1 to 3 at random with ``None``;
    ``"widening"`` is ``"many"`` with every list sorted narrow to wide
    behind a 1-wide token, so a wide token is never a node's first send.
    """
    if kind == "empty":
        return {}, []
    if kind == "one":
        return {0: [(0,) * width]}, [(n - 1,) * width]
    rng = random.Random(n)

    def token() -> tuple[int, ...]:
        size = rng.randint(1, 3) if width is None else width
        return tuple(rng.randrange(n) for _ in range(size))

    upcast = {v: [token() for _ in range(rng.randrange(4))] for v in range(n)}
    spread = [token() for _ in range(9)]
    if kind == "widening":
        for tokens in (*upcast.values(), spread):
            tokens[:] = [(0,)] + sorted(tokens, key=len)
    return upcast, spread


def stage_args(stage: str, root: int, form: str):
    """``network.run`` factory and ``bulk=`` for ``stage`` in ``form``."""
    factory, bulk = {
        "bfs": (lambda view: BfsTreeAlgorithm(view, root),
                partial(bfs_tree_bulk, root=root)),
        "upcast": (ConvergecastAlgorithm, convergecast_bulk),
        "broadcast": (BroadcastAlgorithm, broadcast_bulk),
    }[stage]
    if form == "bulk":
        return _no_handlers, {"bulk": bulk}
    return factory, {}


def run_stage(network, stage, form, root, **run_kwargs):
    """One stage in one form; returns ``(result, events)``."""
    events = []
    factory, extra = stage_args(stage, root, form)
    result = network.run(
        factory, trace=True, on_round=events.append, label=stage,
        **extra, **run_kwargs,
    )
    return result, events


def run_tree_stages(graph, form, upcast, spread, **net_kwargs):
    """BFS, upcast and broadcast in ``form``; ``(runs, node_state)``."""
    network = CongestNetwork(
        graph, seed=3, engine="v1" if form == "v1" else "v2", **net_kwargs
    )
    root = network.n - 1
    runs = [run_stage(network, "bfs", form, root)]
    for node_id, tokens in upcast.items():
        network.node_state[node_id]["tokens"] = list(tokens)
    runs.append(run_stage(network, "upcast", form, root))
    network.node_state[root]["bcast_tokens"] = list(spread)
    runs.append(run_stage(network, "broadcast", form, root))
    return runs, network.node_state


def _without_awake(events):
    return [
        (e.round_index, e.messages, e.words, e.cut_words, e.stage_label)
        for e in events
    ]


def assert_forms_agree(outcomes) -> None:
    """``outcomes[form] = (runs, node_state)``, as run_tree_stages returns."""
    reference_runs, reference_state = outcomes["v1"]
    for form in ("bulk", "v2"):
        runs, state = outcomes[form]
        for (result, events), (expected, expected_events) in zip(
            runs, reference_runs
        ):
            assert result.stats == expected.stats, form
            assert result.trace == expected.trace, form
            assert result.by_id == expected.by_id, form
            assert result.outputs == expected.outputs, form
            assert list(result.by_id) == list(expected.by_id), form
            assert list(result.outputs) == list(expected.outputs), form
            assert _without_awake(events) == _without_awake(expected_events)
        assert state == reference_state, form
        for node_id, node_state in state.items():
            assert list(node_state) == list(reference_state[node_id]), form
    bulk_events = [events for _result, events in outcomes["bulk"][0]]
    assert bulk_events == [events for _result, events in outcomes["v2"][0]]


def run_forms(graph, upcast, spread, **net_kwargs):
    return {
        form: run_tree_stages(graph, form, upcast, spread, **net_kwargs)
        for form in FORMS
    }


@pytest.mark.parametrize("tokens", ["empty", "one", "many"])
@pytest.mark.parametrize("kind", sorted(GRAPHS))
def test_bulk_matches_handlers(kind, tokens):
    graph = GRAPHS[kind]()
    upcast, spread = tokens_for(tokens, graph.number_of_nodes())
    outcomes = run_forms(graph, upcast, spread)
    assert_forms_agree(outcomes)
    (_bfs, _), (gather, _), (bcast, _) = outcomes["bulk"][0]
    root = graph.number_of_nodes() - 1
    collected = gather.by_id[root]
    # The root's list: its own tokens first, then arrivals in pipeline order.
    assert collected[: len(upcast.get(root, ()))] == list(upcast.get(root, ()))
    assert sorted(collected) == sorted(t for ts in upcast.values() for t in ts)
    assert all(out == spread for out in bcast.by_id.values())


def test_root_token_order_is_the_pipeline_order():
    # Path 0-1-2-3, root 3: node 2 sends its own token before node 1's,
    # and node 1 its own before node 0's.
    upcast = {v: [(v, i) for i in range(2)] for v in range(4)}
    outcomes = run_forms(path_graph(4), upcast, [])
    assert_forms_agree(outcomes)
    gather = outcomes["bulk"][0][1][0]
    assert gather.by_id[3] == [
        (3, 0), (3, 1), (2, 0), (2, 1), (1, 0), (1, 1), (0, 0), (0, 1),
    ]


def test_a_drained_node_sleeps_until_its_children_report():
    # Root 4 on the path 0-1-2-3-4: node 3 sends its one token in round 0
    # and, still waiting for node 2, is not invoked again until 2 sends.
    outcomes = run_forms(path_graph(5), {3: [(3,)], 0: [(0,)]}, [])
    assert_forms_agree(outcomes)
    upcast_events = outcomes["bulk"][0][1][1]
    assert [e.awake for e in upcast_events] == [5, 3, 2, 2, 2, 1]


def test_awake_counts_the_invoked_nodes():
    graph = path_graph(8)
    upcast, spread = tokens_for("many", 8)
    (bfs, upcast_run, bcast), _state = run_tree_stages(
        graph, "bulk", upcast, spread
    )
    # BFS from node 7: level r joins in round r and completes in r + 2.
    assert [e.awake for e in bfs[1]] == [8, 2] + [3] * 6 + [2, 1]
    # Broadcast: the root runs while it has messages; everyone else runs
    # from the round the first message reaches it until DONE does.
    assert [e.awake for e in bcast[1]][:3] == [8, 2, 3]
    for _result, events in (bfs, upcast_run, bcast):
        assert events[0].awake == 8
        assert all(e.awake <= 8 for e in events)


def test_cut_words_per_round():
    graph = GRAPHS["gnp"]()
    cut = [(u, v) for u, v in graph.edges if (u + v) % 3 == 0]
    upcast, spread = tokens_for("many", graph.number_of_nodes())
    outcomes = run_forms(graph, upcast, spread, cut=cut)
    assert_forms_agree(outcomes)
    for result, events in outcomes["bulk"][0]:
        series = [event.cut_words for event in events]
        assert sum(series) == result.stats.cut_words > 0


def test_non_strict_metering():
    graph = GRAPHS["tree"]()
    upcast, spread = tokens_for("many", graph.number_of_nodes(), width=3)
    outcomes = run_forms(graph, upcast, spread, word_limit=1, strict=False)
    assert_forms_agree(outcomes)
    for result, _events in outcomes["bulk"][0]:
        assert result.stats.max_words_per_edge_round > 1


def _strict_outcome(form, graph, stage, word_limit, upcast, spread):
    """Run the stages before ``stage`` loosely, then ``stage`` strictly.

    Returns the error text, the strict stage's events and the node state.
    """
    _runs, loose_state = run_tree_stages(graph, "v2", upcast, spread)
    network = CongestNetwork(
        graph, engine="v1" if form == "v1" else "v2", word_limit=word_limit
    )
    if stage != "bfs":
        network.node_state = copy.deepcopy(loose_state)
        for state in network.node_state.values():
            state.pop("bcast_result", None)
    events = []
    factory, extra = stage_args(stage, network.n - 1, form)
    with pytest.raises(CongestionError) as info:
        network.run(factory, on_round=events.append, **extra)
    return str(info.value), events, network.node_state


@pytest.mark.parametrize(
    "stage, word_limit, width, tokens",
    [
        ("bfs", 1, 1, "many"),  # every JOIN is 2 words
        ("upcast", 2, 2, "many"),  # a token message is 1 + width words
        ("upcast", 3, None, "widening"),  # the first 3-wide token raises
        ("broadcast", 2, 2, "many"),
        ("broadcast", 3, None, "widening"),
        ("broadcast", 0, 1, "empty"),  # DONE: the root completes, then raises
    ],
)
@pytest.mark.parametrize("kind", ["gnp", "path", "star"])
def test_strict_word_limit_raises_identically(
    kind, stage, word_limit, width, tokens
):
    graph = GRAPHS[kind]()
    upcast, spread = tokens_for(tokens, graph.number_of_nodes(), width)
    outcomes = {
        form: _strict_outcome(form, graph, stage, word_limit, upcast, spread)
        for form in FORMS
    }
    assert outcomes["bulk"] == outcomes["v2"]
    assert outcomes["bulk"][0] == outcomes["v1"][0]
    assert _without_awake(outcomes["bulk"][1]) == _without_awake(
        outcomes["v1"][1]
    )
    assert outcomes["bulk"][2] == outcomes["v1"][2]
    assert f"per-edge budget is {word_limit} words" in outcomes["bulk"][0]


@pytest.mark.parametrize("stage", ["bfs", "upcast", "broadcast"])
@pytest.mark.parametrize("max_rounds", [0, 1, 3])
def test_round_limit_shorter_than_the_stage(stage, max_rounds):
    graph = GRAPHS["path"]()
    upcast, spread = tokens_for("many", graph.number_of_nodes())
    _runs, state = run_tree_stages(graph, "v2", upcast, spread)
    outcomes = {}
    for form in FORMS:
        network = CongestNetwork(graph, engine="v1" if form == "v1" else "v2")
        if stage != "bfs":
            network.node_state = copy.deepcopy(state)
        events = []
        factory, extra = stage_args(stage, network.n - 1, form)
        with pytest.raises(RoundLimitError) as info:
            network.run(
                factory, max_rounds=max_rounds, on_round=events.append,
                **extra,
            )
        outcomes[form] = (str(info.value), events, network.node_state)
    assert outcomes["bulk"] == outcomes["v2"]
    assert outcomes["bulk"][0] == outcomes["v1"][0]
    assert outcomes["bulk"][2] == outcomes["v1"][2]
    assert len(outcomes["bulk"][1]) == max_rounds + 1


@pytest.mark.parametrize("isolated_root", [False, True])
def test_disconnected_bfs_runs_to_the_round_limit(isolated_root):
    graph = nx.Graph([(0, 1), (1, 2), (3, 4)])
    if isolated_root:
        graph.add_node(5)
    outcomes = {}
    for form in FORMS:
        network = CongestNetwork(graph, engine="v1" if form == "v1" else "v2")
        events = []
        factory, extra = stage_args("bfs", network.n - 1, form)
        with pytest.raises(RoundLimitError) as info:
            network.run(factory, max_rounds=9, on_round=events.append, **extra)
        outcomes[form] = (str(info.value), events, network.node_state)
    assert outcomes["bulk"] == outcomes["v2"]
    assert outcomes["bulk"][0] == outcomes["v1"][0]
    assert outcomes["bulk"][2] == outcomes["v1"][2]
    alive = 5 if isolated_root else 3
    assert f"({alive} nodes alive)" in outcomes["bulk"][0]
    assert [e.awake for e in outcomes["bulk"][1]][-1] == 0


@pytest.mark.parametrize("stage", ["upcast", "broadcast"])
def test_missing_tree_is_the_handlers_error(stage):
    network = CongestNetwork(path_graph(3), engine="v2")
    factory, extra = stage_args(stage, 2, "bulk")
    name = "ConvergecastAlgorithm" if stage == "upcast" else "BroadcastAlgorithm"
    with pytest.raises(ValueError, match=f"{name} requires a BFS tree"):
        network.run(factory, **extra)


# -- callers ------------------------------------------------------------------


def _count_tree_handlers(monkeypatch):
    calls = [0]
    for cls in TREE_CLASSES:
        for name in ("on_start", "on_round"):
            method = getattr(cls, name)

            def counting(self, *args, _method=method):
                calls[0] += 1
                return _method(self, *args)

            monkeypatch.setattr(cls, name, counting)
    return calls


def test_standalone_drivers_run_the_bulk_forms(monkeypatch):
    calls = _count_tree_handlers(monkeypatch)
    graph = GRAPHS["gnp"]()
    upcast, spread = tokens_for("many", graph.number_of_nodes())

    def drive_all():
        return (
            build_bfs_tree(CongestNetwork(graph, engine="v2")),
            convergecast_tokens(CongestNetwork(graph, engine="v2"), upcast),
            broadcast_tokens(CongestNetwork(graph, engine="v2"), spread),
        )

    bulk = drive_all()
    assert calls[0] == 0
    monkeypatch.setattr(network_module, "BULK_MIN_NODES", 10**9)
    assert drive_all() == bulk
    assert calls[0] > 0


@pytest.mark.parametrize(
    "make, bulk",
    [
        (lambda g: CongestNetwork(g, engine="v2"), True),
        (lambda g: CongestNetwork(g, engine="v1"), False),
        (lambda g: MPCCongestNetwork(g, alpha=0.9), False),
        (lambda g: CongestedCliqueNetwork(g, engine="v2"), False),
    ],
    ids=["v2", "v1", "mpc", "clique"],
)
def test_only_plain_v2_runs_the_tree_forms(monkeypatch, make, bulk):
    calls = _count_tree_handlers(monkeypatch)
    graph = GRAPHS["gnp"]()
    approx_mvc_square(graph, 0.5, network=make(graph))
    assert (calls[0] == 0) is bulk


def _digest(solve, graph, engine):
    collector = MetricsCollector(label="bulk-tree-parity")
    network = CongestNetwork(graph, seed=5, engine=engine)
    collector.attach(network)
    solve(graph, network)
    return collector.deterministic_sha256()


@pytest.mark.parametrize(
    "solve, graph",
    [
        (lambda g, net: approx_mvc_square(g, 1 / 3, network=net),
         lambda: gnp_graph(36, 0.15, seed=4)),
        (lambda g, net: approx_mwvc_square(g, 0.5, network=net),
         lambda: gnp_graph(30, 0.15, seed=2)),
        (lambda g, net: approx_mds_square(g, network=net, max_phases=3),
         lambda: gnp_graph(16, 0.25, seed=1)),
    ],
    ids=["mvc", "mwvc", "mds"],
)
def test_metrics_digest_shared_by_bulk_and_handlers(monkeypatch, solve, graph):
    graph = graph()
    bulk = _digest(solve, graph, "v2")
    monkeypatch.setattr(network_module, "BULK_MIN_NODES", 10**9)
    assert bulk == _digest(solve, graph, "v2") == _digest(solve, graph, "v1")


def test_numpy_free_install_runs_the_tree_forms(monkeypatch):
    graph = GRAPHS["gnp"]()
    with_numpy = approx_mvc_square(graph, 0.5, seed=2, engine="v2")
    tree_calls = _count_tree_handlers(monkeypatch)
    phase_one_calls = [0]
    on_round = PhaseOneAlgorithm.on_round

    def counting(self, inbox):
        phase_one_calls[0] += 1
        return on_round(self, inbox)

    monkeypatch.setattr(PhaseOneAlgorithm, "on_round", counting)
    monkeypatch.setitem(sys.modules, "numpy", None)
    without = approx_mvc_square(graph, 0.5, seed=2, engine="v2")
    assert tree_calls[0] == 0  # the tree forms need no numpy
    assert phase_one_calls[0] > 0  # Phase I falls back to its handlers
    assert without.cover == with_numpy.cover
    assert without.stats == with_numpy.stats
    assert without.detail == with_numpy.detail
