"""Differential tests for Phase I's bulk form (numpy array rounds).

Engine v2 runs :func:`~repro.core.mvc_congest.phase_one_bulk` in place of
:class:`~repro.core.mvc_congest.PhaseOneAlgorithm`'s per-node handlers on
a plain :class:`CongestNetwork` of at least ``BULK_MIN_NODES`` nodes; the
tests lower that threshold to 0 so small graphs take the bulk path, and
the bulk form's factory fails if any handler is built.  Everything a caller or observer can see
must be the same either way: ``RunStats`` field by field, every
``RoundEvent`` (``awake`` included) and ``RoundRecord``, ``by_id`` /
``outputs``, every node's stage state, cut metering, strict-limit errors
and round-limit errors.  Per-node v2 is checked against the v1 reference
on the same scenarios, so all three forms agree.  The numpy-free fallback
and the numpy-free import path are pinned at the end.
"""

from __future__ import annotations

import subprocess
import sys
from functools import partial
from pathlib import Path

import networkx as nx
import pytest

from repro.congest import network as network_module
from repro.congest.clique import CongestedCliqueNetwork
from repro.congest.errors import CongestionError, RoundLimitError
from repro.congest.network import BULK_MIN_NODES, CongestNetwork
from repro.core.mvc_congest import (
    PhaseOneAlgorithm,
    approx_mvc_square,
    normalized_epsilon,
    phase_one_bulk,
)
from repro.graphs.generators import gnp_graph, path_graph, random_tree, star_graph
from repro.metrics import MetricsCollector
from repro.mpc.compile_congest import MPCCongestNetwork

pytest.importorskip("numpy")

ROOT = Path(__file__).resolve().parent.parent

#: The three ways to run Phase I: bulk on v2, handlers on v2, handlers on v1.
FORMS = ("bulk", "v2", "v1")

GRAPHS = {
    "gnp": lambda: gnp_graph(36, 0.3, seed=4),
    "star": lambda: star_graph(25),
    "path": lambda: path_graph(21),
    "tree": lambda: random_tree(30, seed=7),
}

EPSILONS = (0.1, 1 / 3, 0.5, 1.0)


@pytest.fixture(autouse=True)
def bulk_at_every_size(monkeypatch):
    monkeypatch.setattr(network_module, "BULK_MIN_NODES", 0)


def _no_handlers(view):
    raise AssertionError("a bulk run built a per-node algorithm")


def phase_one_run_args(form, threshold, iterations):
    """``network.run`` factory and ``bulk=`` for Phase I in ``form``."""
    if form == "bulk":
        bulk = partial(phase_one_bulk, threshold=threshold, iterations=iterations)
        return _no_handlers, {"bulk": bulk}
    return partial(PhaseOneAlgorithm, threshold=threshold, iterations=iterations), {}


def _with_isolated() -> nx.Graph:
    """Node 0 isolated: its silent rounds and the first sender are 1."""
    graph = nx.Graph([(1, 2), (2, 3), (3, 4), (4, 1), (4, 5)])
    graph.add_node(0)
    return graph


def run_phase_one(
    graph, form, threshold, iterations, max_rounds=None, **net_kwargs
):
    """Phase I in one form; returns ``(result, events, node_state)``."""
    engine = "v1" if form == "v1" else "v2"
    network = CongestNetwork(graph, seed=3, engine=engine, **net_kwargs)
    events = []
    factory, extra = phase_one_run_args(form, threshold, iterations)
    result = network.run(
        factory,
        max_rounds=max_rounds,
        trace=True,
        on_round=events.append,
        label="phase1",
        **extra,
    )
    return result, events, network.node_state


def run_forms(graph, threshold, iterations, **net_kwargs):
    return {
        form: run_phase_one(graph, form, threshold, iterations, **net_kwargs)
        for form in FORMS
    }


def assert_forms_agree(runs) -> None:
    reference = runs["v1"]
    for form in ("bulk", "v2"):
        result, events, state = runs[form]
        assert result.stats == reference[0].stats, form
        assert result.trace == reference[0].trace, form
        assert result.by_id == reference[0].by_id, form
        assert result.outputs == reference[0].outputs, form
        assert list(result.by_id) == list(reference[0].by_id), form
        assert list(result.outputs) == list(reference[0].outputs), form
        assert events == reference[1], form
        assert state == reference[2], form
        for node_id, node_state in state.items():
            assert list(node_state) == list(reference[2][node_id]), form


def _phase_one_parameters(graph, epsilon):
    threshold, _ = normalized_epsilon(epsilon)
    return threshold, graph.number_of_nodes() // (threshold + 1) + 1


@pytest.mark.parametrize("epsilon", EPSILONS, ids=lambda e: f"eps={e:.3g}")
@pytest.mark.parametrize("kind", sorted(GRAPHS))
def test_bulk_matches_handlers(kind, epsilon):
    graph = GRAPHS[kind]()
    runs = run_forms(graph, *_phase_one_parameters(graph, epsilon))
    assert_forms_agree(runs)
    assert runs["bulk"][0].stats.messages > 0


@pytest.mark.parametrize(
    "graph",
    [nx.path_graph(1), path_graph(2), star_graph(9), _with_isolated()],
    ids=["n=1", "n=2", "star", "isolated"],
)
@pytest.mark.parametrize("iterations", [0, 1, 4])
def test_edge_cases(graph, iterations):
    assert_forms_agree(run_forms(graph, 1, iterations))


def test_winners_join_and_awake_counts_live_nodes():
    graph = star_graph(25)
    result, events, state = run_phase_one(graph, "bulk", 2, 3)
    hub = max(range(25), key=lambda v: graph.degree(v))
    joined = [out["join_iteration"] for out in result.by_id.values()]
    assert joined.count(0) == 24  # every leaf joins in iteration 0
    assert result.by_id[hub] == {
        "in_S": False, "in_R": True, "join_iteration": None,
    }
    assert state[hub]["tokens"] == [(hub, hub)]
    assert [event.awake for event in events] == [25] * len(events)
    assert [record.active_nodes for record in result.trace] == (
        [25] * (len(events) - 1) + [0]
    )


def test_cut_words_per_round():
    graph = GRAPHS["gnp"]()
    cut = [(u, v) for u, v in graph.edges if (u + v) % 3 == 0]
    runs = run_forms(graph, 3, 4, cut=cut)
    assert_forms_agree(runs)
    cut_series = [event.cut_words for event in runs["bulk"][1]]
    assert sum(cut_series) == runs["bulk"][0].stats.cut_words > 0
    assert len(set(cut_series)) > 1


@pytest.mark.parametrize("kind", ["gnp", "isolated"])
def test_strict_word_limit_raises_identically(kind):
    graph = GRAPHS["gnp"]() if kind == "gnp" else _with_isolated()
    outcomes = {}
    for form in FORMS:
        with pytest.raises(CongestionError) as info:
            run_phase_one(graph, form, 2, 3, word_limit=1)
        outcomes[form] = str(info.value)
    assert len(set(outcomes.values())) == 1
    assert "per-edge budget is 1 words" in outcomes["bulk"]
    # The first sender with a neighbor raises: node 1 when 0 is isolated.
    first = "1" if kind == "isolated" else "0"
    assert outcomes["bulk"].startswith(f"message {first} -> ")


def test_strict_error_round_and_events_agree():
    graph = GRAPHS["tree"]()
    seen = {}
    for form in FORMS:
        events = []
        network = CongestNetwork(graph, engine="v1" if form == "v1" else "v2",
                                 word_limit=1, on_round=events.append)
        factory, extra = phase_one_run_args(form, 2, 2)
        with pytest.raises(CongestionError) as info:
            network.run(factory, **extra)
        seen[form] = (str(info.value), events, network.node_state)
    assert seen["bulk"] == seen["v2"]
    assert seen["bulk"][0] == seen["v1"][0]
    assert seen["bulk"][1] == []  # round 0's status broadcast raises
    assert all(state == {} for state in seen["bulk"][2].values())


def test_non_strict_metering():
    graph = GRAPHS["gnp"]()
    runs = run_forms(graph, 3, 10, word_limit=1, strict=False)
    assert_forms_agree(runs)
    assert runs["bulk"][0].stats.max_words_per_edge_round > 1
    assert _first_settled(runs["bulk"][1], 10) == 6


def assert_round_limit_agrees(graph, threshold, iterations, max_rounds):
    """Every form stops at ``max_rounds`` with the same error and events."""
    outcomes = {}
    for form in FORMS:
        events = []
        network = CongestNetwork(graph, engine="v1" if form == "v1" else "v2")
        factory, extra = phase_one_run_args(form, threshold, iterations)
        with pytest.raises(RoundLimitError) as info:
            network.run(
                factory,
                max_rounds=max_rounds,
                on_round=events.append,
                **extra,
            )
        outcomes[form] = (str(info.value), events, network.node_state)
    assert outcomes["bulk"] == outcomes["v2"] == outcomes["v1"]
    assert len(outcomes["bulk"][1]) == max_rounds + 1
    assert f"{graph.number_of_nodes()} nodes alive" in outcomes["bulk"][0]


@pytest.mark.parametrize("max_rounds", [0, 1, 6, 12])
def test_round_limit_shorter_than_the_stage(max_rounds):
    assert_round_limit_agrees(GRAPHS["path"](), 1, 3, max_rounds)


# -- the settled tail -------------------------------------------------------
#
# Once an iteration has no candidate, the bulk form replays that
# iteration's four rounds for the rest of the stage.  On ``gnp`` with
# threshold 3 the last candidate shows up in iteration 5; threshold 16 is
# its maximum degree, so no node is ever a candidate.

TAIL_CASES = {
    "at-iteration-0": ("gnp", 16, 5, 0),
    "mid-stage": ("gnp", 3, 10, 6),
    "never-reached": ("gnp", 3, 4, None),
    "iterations=0": ("gnp", 3, 0, None),
    "path-at-iteration-0": ("path", 2, 8, 0),
    "tree-mid-stage": ("tree", 2, 11, 4),
}


def _candidacy_messages(events, iterations):
    """Per iteration, the messages of its candidacy round (round 1 + 4i)."""
    return [events[1 + 4 * i].messages for i in range(iterations)]


def _first_settled(events, iterations):
    """The first iteration without a candidate, or ``None``."""
    counts = _candidacy_messages(events, iterations)
    return next((i for i, count in enumerate(counts) if count == 0), None)


@pytest.mark.parametrize("case", sorted(TAIL_CASES))
def test_settled_tail_matches_handlers(case):
    kind, threshold, iterations, settled = TAIL_CASES[case]
    runs = run_forms(GRAPHS[kind](), threshold, iterations)
    assert_forms_agree(runs)
    events = runs["bulk"][1]
    assert len(events) == 4 * iterations + 2
    assert _first_settled(events, iterations) == settled
    if settled is not None:
        # A settled iteration stays settled: silent candidacy and winner
        # rounds, and the same relay and status traffic every time.
        tail = events[1 + 4 * settled:-1]
        assert [event.messages for event in tail[0::4]] == [0] * len(tail[0::4])
        assert [event.messages for event in tail[2::4]] == [0] * len(tail[2::4])
        assert len({event.words for event in tail[1::4]}) == 1
        assert len({event.words for event in tail[3::4]}) == 1


def test_settled_tail_is_replayed_not_recomputed():
    graph = GRAPHS["gnp"]()
    network = CongestNetwork(graph, seed=3, engine="v2")
    rounds = list(phase_one_bulk(network, threshold=3, iterations=10))
    # Round 24 is iteration 5's status; iteration 6 (rounds 25-28) is the
    # first settled one, metered once and replayed through iteration 9.
    status, (silent, relay) = rounds[24], rounds[25:27]
    replayed = [silent, relay, silent, status] * 4
    assert len(rounds) == 42
    assert all(a is b for a, b in zip(rounds[25:-1], replayed, strict=True))
    assert rounds[-1][5] and all(not round_[5] for round_ in rounds[:-1])


@pytest.mark.parametrize("max_rounds", [25, 26, 30, 40])
def test_round_limit_inside_the_settled_tail(max_rounds):
    assert_round_limit_agrees(GRAPHS["gnp"](), 3, 10, max_rounds)


@pytest.mark.parametrize("threshold, iterations", [(16, 5), (3, 10)])
def test_cut_words_on_settled_tail_rounds(threshold, iterations):
    graph = GRAPHS["gnp"]()
    cut = [(u, v) for u, v in graph.edges if (u + v) % 3 == 0]
    runs = run_forms(graph, threshold, iterations, cut=cut)
    assert_forms_agree(runs)
    events = runs["bulk"][1]
    settled = _first_settled(events, iterations)
    tail = events[1 + 4 * settled:-1]
    # Relays and statuses cross the cut in every settled iteration.
    assert all(event.cut_words > 0 for event in tail[1::2])
    assert all(event.cut_words == 0 for event in tail[0::2])


# -- through approx_mvc_square ----------------------------------------------


def _count_handlers(monkeypatch):
    calls = [0]
    on_round = PhaseOneAlgorithm.on_round

    def counting(self, inbox):
        calls[0] += 1
        return on_round(self, inbox)

    monkeypatch.setattr(PhaseOneAlgorithm, "on_round", counting)
    return calls


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
def test_only_plain_v2_runs_the_bulk_form(monkeypatch, make, bulk):
    calls = _count_handlers(monkeypatch)
    graph = GRAPHS["gnp"]()
    approx_mvc_square(graph, 0.5, network=make(graph))
    assert (calls[0] == 0) is bulk


def test_bulk_form_starts_at_bulk_min_nodes(monkeypatch):
    monkeypatch.setattr(network_module, "BULK_MIN_NODES", BULK_MIN_NODES)
    bulk = partial(phase_one_bulk, threshold=1, iterations=1)
    for n, runs_bulk in ((BULK_MIN_NODES - 1, False), (BULK_MIN_NODES, True)):
        network = CongestNetwork(path_graph(n), engine="v2")
        assert (network._bulk_rounds(bulk) is not None) is runs_bulk
    small = GRAPHS["gnp"]()
    assert small.number_of_nodes() < BULK_MIN_NODES
    calls = _count_handlers(monkeypatch)
    approx_mvc_square(small, 0.5, engine="v2")
    assert calls[0] > 0


def test_metrics_digest_shared_by_bulk_and_handlers(monkeypatch):
    graph = GRAPHS["gnp"]()

    def digest(engine):
        collector = MetricsCollector(label="bulk-parity")
        network = CongestNetwork(graph, seed=5, engine=engine)
        collector.attach(network)
        approx_mvc_square(graph, 1 / 3, network=network)
        return collector.deterministic_sha256(), collector.to_json()["variant"]

    bulk = digest("v2")
    monkeypatch.setattr(network_module, "BULK_MIN_NODES", 10**9)
    handlers = digest("v2")
    assert bulk == handlers
    assert bulk[0] == digest("v1")[0]


def test_numpy_free_install_runs_the_handlers(monkeypatch):
    graph = GRAPHS["gnp"]()
    with_numpy = approx_mvc_square(graph, 0.5, seed=2, engine="v2")
    calls = _count_handlers(monkeypatch)
    monkeypatch.setitem(sys.modules, "numpy", None)
    without = approx_mvc_square(graph, 0.5, seed=2, engine="v2")
    assert calls[0] > 0
    assert without.cover == with_numpy.cover
    assert without.stats == with_numpy.stats
    assert without.detail == with_numpy.detail


def test_solver_imports_and_small_solves_leave_numpy_unloaded():
    code = (
        "import sys\n"
        "import repro.congest.primitives\n"
        "import repro.core.mvc_congest, repro.core.mds_congest\n"
        "import repro.mpc.compile_congest\n"
        "print('numpy' in sys.modules)\n"
        "from repro.graphs.generators import build_graph\n"
        "graph = build_graph('gnp', 60, seed=1)\n"
        "repro.core.mvc_congest.approx_mvc_square(graph, 0.5, engine='v2')\n"
        "print('numpy' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False"]
