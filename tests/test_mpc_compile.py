"""CONGEST-to-MPC round compilation: parity and budget behavior.

The contract under test: :class:`repro.mpc.compile_congest.MPCCongestNetwork`
executes unmodified ``NodeAlgorithm`` code with outputs, ``RunStats``,
traces and per-round events word-for-word identical to the CONGEST engines
on the same graph and seed — while keeping its own machine-level ledger —
and a too-small memory exponent fails loudly (``MemoryBudgetExceeded``)
but is captured per cell by the sweep runner.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.congest.algorithm import NodeAlgorithm
from repro.congest.errors import RoundLimitError
from repro.congest.network import CongestNetwork
from repro.core.estimation import EstimationStage
from repro.core.mds_congest import GlobalOrAlgorithm, WinnerAlgorithm
from repro.core.mvc_congest import PhaseOneAlgorithm, approx_mvc_square
from repro.core.mds_congest import approx_mds_square
from repro.congest.primitives import BfsTreeAlgorithm
from repro.graphs.generators import build_graph, gnp_graph, path_graph
from repro.graphs.power import square
from repro.graphs.validation import assert_dominating_set, assert_vertex_cover
from repro.mpc.compile_congest import (
    MPCCongestNetwork,
    run_stage_parity,
    solve_mds_mpc,
    solve_mvc_mpc,
    solve_with_parity,
)
from repro.mpc.machine import MemoryBudgetExceeded
from repro.mpc.options import RunOptions
from repro.mpc.parallel import fork_available
from repro.sweep import Cell, GridSpec, run_sweep


def _stage_results(net, stages, prepare=None):
    net.reset_state()
    if prepare is not None:
        prepare(net)
    return [net.run(stage, trace=True) for stage in stages]


STAGES = [
    lambda v: PhaseOneAlgorithm(v, threshold=2, iterations=4),
    lambda v: BfsTreeAlgorithm(v, v.n - 1),
    lambda v: EstimationStage(v, samples=5),
    WinnerAlgorithm,
    lambda v: GlobalOrAlgorithm(v, "in_U"),
]


def _prepare(net):
    for node_id in net.ids():
        net.node_state[node_id]["in_U"] = True


class TestStageParity:
    @pytest.mark.parametrize("engine", ["v1", "v2"])
    @pytest.mark.parametrize("alpha", [0.85, 1.0])
    def test_solver_stages_identical_to_engines(self, engine, alpha):
        graph = gnp_graph(18, 0.18, seed=5)
        ref = _stage_results(
            CongestNetwork(graph, seed=5, engine=engine), STAGES, _prepare
        )
        mpc = _stage_results(
            MPCCongestNetwork(graph, alpha=alpha, seed=5), STAGES, _prepare
        )
        for expected, got in zip(ref, mpc):
            assert got.outputs == expected.outputs
            assert got.by_id == expected.by_id
            assert got.stats == expected.stats
            assert got.trace == expected.trace

    def test_stage_parity_helper(self):
        graph = gnp_graph(16, 0.2, seed=2)
        report = run_stage_parity(
            graph,
            [lambda v: PhaseOneAlgorithm(v, threshold=2, iterations=3)],
            alpha=0.9,
            seed=2,
        )
        assert report["parity"] is True
        assert report["congest_rounds"] > 0
        assert report["mpc"]["machines"] >= 1

    def test_path_graph_compiles(self):
        graph = path_graph(20)
        report = run_stage_parity(
            graph,
            [lambda v: BfsTreeAlgorithm(v, v.n - 1)],
            alpha=0.5,
            seed=0,
        )
        assert report["parity"] is True


class TestFullSolverParity:
    def test_mvc_end_to_end(self):
        graph = gnp_graph(20, 0.18, seed=9)
        result, payload = solve_mvc_mpc(
            graph, 0.5, alpha=0.85, seed=9, check_parity=True
        )
        assert_vertex_cover(square(graph), result.cover)
        assert payload["parity"] is True
        assert payload["machines"] > 1
        assert payload["shuffle"]["rounds"] == result.stats.rounds

    def test_mds_end_to_end(self):
        graph = gnp_graph(12, 0.25, seed=4)
        result, payload = solve_mds_mpc(
            graph, alpha=0.9, seed=4, check_parity=True
        )
        assert_dominating_set(square(graph), result.cover)
        assert payload["parity"] is True

    def test_solver_accepts_network_argument(self):
        # The drop-in claim: the unmodified solver drivers run on the MPC
        # network through their public network= parameter.
        graph = gnp_graph(16, 0.2, seed=6)
        net = MPCCongestNetwork(graph, alpha=0.9, seed=6)
        result = approx_mvc_square(graph, 0.5, network=net)
        ref = approx_mvc_square(graph, 0.5, seed=6, engine="v2")
        assert result.cover == ref.cover
        assert result.stats == ref.stats
        assert net.runtime.stats.rounds == result.stats.rounds

    def test_solve_with_parity_reports_rounds(self):
        graph = gnp_graph(14, 0.2, seed=3)

        def solver(network):
            return approx_mds_square(graph, network=network, samples=4)

        result, net, report = solve_with_parity(solver, graph, alpha=0.9, seed=3)
        assert report["parity"] is True
        assert report["rounds_compared"] > 0


class TestMachineLedger:
    def test_smaller_alpha_needs_more_machines(self):
        graph = gnp_graph(20, 0.15, seed=1)
        wide = MPCCongestNetwork(graph, alpha=1.0, seed=1)
        narrow = MPCCongestNetwork(graph, alpha=0.75, seed=1)
        assert narrow.num_machines > wide.num_machines
        assert narrow.budget_words < wide.budget_words

    def test_storage_charged_at_construction(self):
        graph = path_graph(10)
        net = MPCCongestNetwork(graph, alpha=1.0, seed=0)
        stored = sum(m.stored_words for m in net.machines)
        # n ids plus one word per directed adjacency entry.
        assert stored == 10 + 2 * graph.number_of_edges()

    def test_local_messages_skip_the_shuffle(self):
        # In the near-linear debug regime (S = n^2) one machine hosts
        # everything, so no message ever crosses machines even though
        # CONGEST metering is unchanged.
        graph = path_graph(6)
        net = MPCCongestNetwork(graph, alpha=2.0, seed=0)
        result = net.run(lambda v: BfsTreeAlgorithm(v, v.n - 1))
        assert net.num_machines == 1
        assert result.stats.total_words > 0
        assert net.runtime.stats.total_words == 0
        assert net.runtime.stats.rounds == result.stats.rounds

    def test_too_small_alpha_raises(self):
        graph = gnp_graph(24, 0.2, seed=2)
        with pytest.raises(MemoryBudgetExceeded):
            MPCCongestNetwork(graph, alpha=0.3, seed=2)


class _Ping(NodeAlgorithm):
    """One-word broadcast, then halt: one cheap shuffle per run."""

    def on_start(self):
        return self.broadcast(1)

    def on_round(self, inbox):
        self.finish()


class _Burst(NodeAlgorithm):
    """The hub (or every leaf) of a star broadcasts eight words at start."""

    def __init__(self, node, hub_sends):
        super().__init__(node)
        self.hub_sends = hub_sends

    def on_start(self):
        if (self.node.degree > 1) == self.hub_sends:
            return self.broadcast(tuple(range(8)))
        return None

    def on_round(self, inbox):
        self.finish()


def _children() -> set[int]:
    """Pids of this process's live child processes (reaping the dead)."""
    return {proc.pid for proc in multiprocessing.active_children()}


class TestShuffleBudgetText:
    """A shuffle over the I/O budget names the machine, words and round.

    Star on 20 nodes at ``alpha = 1``: ``S = 20``, so the hub (20 words
    hosted) fills machine 0 alone and the 19 leaves share two more
    machines; the I/O budget is ``8 S = 160`` words.  Two cheap runs
    first put two shuffles on the ledger, then 19 eight-word envelopes
    (3 head words + 8 payload words each, 209 words) leave or reach the
    hub's machine in shuffle 3.  At ``compress=4`` the planner cannot fit
    even ``k = 2`` and falls back to the classical shuffle, which raises
    the same text.
    """

    @pytest.mark.parametrize(
        "workers", (1, 2) if fork_available() else (1,)
    )
    @pytest.mark.parametrize("compress", (1, 4))
    @pytest.mark.parametrize(
        "hub_sends, verb", ((True, "sent"), (False, "received"))
    )
    def test_violation_text_pinned(self, compress, workers, hub_sends, verb):
        before = _children()
        net = MPCCongestNetwork(
            build_graph("star", 20), alpha=1.0, seed=0,
            options=RunOptions(compress, workers),
        )
        assert net.assignment.loads == (20, 20, 18)
        net.run(_Ping)
        net.run(_Ping)
        with pytest.raises(MemoryBudgetExceeded) as info:
            net.run(lambda v: _Burst(v, hub_sends))
        assert str(info.value) == (
            f"machine 0 {verb} 209 words in round 3 but the per-round I/O "
            f"budget is 160 words (O(S) with S=20)"
        )
        assert net.runtime.stats.rounds == 2
        assert len(net.runtime.trace) == 2
        assert all(r.congest_rounds == 1 for r in net.runtime.trace)
        if workers > 1:
            # The shuffle raised in the window step the pool overlaps
            # with its forked shard's round; that worker did not survive.
            frames = [(entry.name, str(entry.path)) for entry in
                      info.traceback]
            assert any(
                name == "step" and path.endswith("parallel.py")
                for name, path in frames
            )
            assert any(name == "open_window" for name, _path in frames)
        assert _children() <= before

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_two_workers_fork_one_child_and_leave_none(self):
        before = _children()
        seen = []
        net = MPCCongestNetwork(
            build_graph("star", 20), alpha=1.0, seed=0,
            options=RunOptions(4, 2),
            on_round=lambda _event: seen.append(_children() - before),
        )
        assert len(net._node_shards(2)) == 2
        net.run(_Ping)
        # Two shards: the caller runs shard 0, one forked worker the other.
        assert seen and all(len(forked) == 1 for forked in seen)
        assert _children() <= before
        with pytest.raises(RoundLimitError):
            net.run(lambda v: _Burst(v, False), max_rounds=0)
        assert _children() <= before


class TestSweepCapture:
    def test_budget_failure_is_a_cell_error_not_a_crash(self):
        grid = GridSpec(
            name="budget-probe",
            cells=(
                Cell(
                    task="mpc-mvc",
                    graph="gnp",
                    n=24,
                    seed=24,
                    eps=0.5,
                    params=(("alpha", 0.3), ("gnp_p", 0.15)),
                ),
                Cell(
                    task="mpc-mvc",
                    graph="gnp",
                    n=24,
                    seed=24,
                    eps=0.5,
                    params=(("alpha", 0.9), ("gnp_p", 0.15)),
                ),
            ),
        )
        sweep = run_sweep(grid, jobs=1)
        probe, healthy = sweep.results
        assert probe.status == "error"
        assert "MemoryBudgetExceeded" in (probe.error or "")
        assert healthy.ok

    def test_mpc_and_congest_cells_agree_in_sweep(self):
        base = (("gnp_p", 0.2),)
        grid = GridSpec(
            name="pairing",
            cells=(
                Cell(
                    task="mvc-congest",
                    graph="gnp",
                    n=16,
                    seed=16,
                    eps=0.5,
                    engine="v2",
                    params=base,
                ),
                Cell(
                    task="mpc-mvc",
                    graph="gnp",
                    n=16,
                    seed=16,
                    eps=0.5,
                    params=base + (("alpha", 0.9), ("parity", True)),
                ),
            ),
        )
        pairs = run_sweep(grid, jobs=1).ok_payloads()
        congest_payload = pairs[0][1]
        mpc_payload = pairs[1][1]
        assert mpc_payload["signature"] == congest_payload["signature"]
        assert mpc_payload["stats"] == congest_payload["stats"]
        assert mpc_payload["mpc"]["parity"] is True
