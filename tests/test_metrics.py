"""The metrics plane: collector, schema, determinism, adaptive control.

Covers the ``repro.metrics`` package plus the instrumentation plumbing it
rides on: stage-label attribution through ``network.run(label=...)``,
the byte-identity of the deterministic metrics
section across engines and compression windows, the peak-hold estimator
behind ``compress="auto"``, and the incremental window planner's frontier
caches.
"""

from __future__ import annotations

import json

import networkx as nx
import pytest

from repro.congest.algorithm import NodeAlgorithm
from repro.congest.network import CongestNetwork
from repro.core.mvc_congest import approx_mvc_square
from repro.graphs.generators import gnp_graph
from repro.metrics import (
    SCHEMA,
    MetricsCollector,
    PeakHoldEstimator,
    deterministic_sha256,
    validate_metrics,
)
from repro.mpc.compile_congest import (
    AUTO_COMPRESS_CAP,
    MPCCongestNetwork,
    solve_mds_mpc,
    solve_mvc_mpc,
)
from repro.mpc.options import RunOptions

ENGINES = ("v1", "v2")


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class _CountDown(NodeAlgorithm):
    """Tiny NodeAlgorithm: each node pings a neighbor for a few rounds."""

    def __init__(self, view, rounds=3):
        super().__init__(view)
        self.rounds = rounds

    def on_start(self):
        return {nbr: 1 for nbr in self.node.neighbors[:1]}

    def on_round(self, inbox):
        self.rounds -= 1
        if self.rounds <= 0:
            self.finish(self.node.id)
            return None
        return {nbr: 1 for nbr in self.node.neighbors[:1]}


class TestStageAttribution:
    """A run's ``label=`` reaches its events and names its phase."""

    def test_stage_labels_reach_the_events(self):
        graph = gnp_graph(8, 0.4, seed=2)
        net = CongestNetwork(graph, seed=2)
        collector = MetricsCollector().attach(net)
        net.run(lambda v: _CountDown(v), label="warmup")
        net.run(lambda v: _CountDown(v))
        labels = [
            {e.stage_label for e in phase["events"]}
            for phase in collector.phases
        ]
        assert labels == [{"warmup"}, {None}]
        # A labelled phase is named by its label, an unlabelled one by
        # its position.
        phases = collector.to_json()["deterministic"]["phases"]
        assert [p["label"] for p in phases] == ["warmup", "phase1"]

    def test_run_label_stamps_stage_label(self):
        graph = gnp_graph(8, 0.4, seed=2)
        net = CongestNetwork(graph, seed=2)
        events = []
        net.run(lambda v: _CountDown(v), on_round=events.append,
                label="solo")
        assert events
        assert all(e.stage_label == "solo" for e in events)

    def test_solver_phases_are_labeled(self):
        graph = gnp_graph(12, 0.3, seed=5)
        net = CongestNetwork(graph, seed=5)
        collector = MetricsCollector(label="mvc").attach(net)
        approx_mvc_square(graph, 0.5, network=net)
        labels = [p["label"] for p in collector.to_json()["deterministic"]["phases"]]
        assert labels == ["phase1", "bfs", "upcast", "broadcast"]


class TestCollector:
    def test_document_shape_and_digest(self):
        graph = gnp_graph(10, 0.3, seed=4)
        net = CongestNetwork(graph, seed=4)
        collector = MetricsCollector(label="shape").attach(net)
        approx_mvc_square(graph, 0.5, network=net)
        doc = collector.to_json()
        validate_metrics(doc)
        assert doc["schema"] == SCHEMA
        assert doc["deterministic_sha256"] == deterministic_sha256(
            doc["deterministic"]
        )
        det = doc["deterministic"]
        assert det["totals"]["rounds"] == sum(
            p["rounds"] for p in det["phases"]
        )
        # Variant carries the engine name and the awake series, which are
        # exactly the fields the parity contract leaves engine-dependent.
        assert doc["variant"]["engine"] in ("v1", "v2")
        assert len(doc["variant"]["awake"]["per_phase"]) == len(det["phases"])

    def test_attach_hooks_mpc_runtime(self):
        graph = gnp_graph(10, 0.3, seed=6)
        net = MPCCongestNetwork(graph, alpha=0.9, seed=6)
        collector = MetricsCollector(label="mpc").attach(net)
        approx_mvc_square(graph, 0.5, network=net)
        doc = collector.to_json()
        shuffle = doc["variant"]["shuffle"]
        assert shuffle["shuffles"] == net.runtime.stats.shuffles
        assert shuffle["congest_rounds"] == net.runtime.stats.congest_rounds

    def test_write_and_reload(self, tmp_path):
        graph = gnp_graph(8, 0.4, seed=7)
        net = CongestNetwork(graph, seed=7)
        collector = MetricsCollector(label="file").attach(net)
        approx_mvc_square(graph, 0.5, network=net)
        path = collector.write(tmp_path / "metrics.json")
        reloaded = json.loads(path.read_text())
        validate_metrics(reloaded)
        assert reloaded == collector.to_json()


class TestValidateMetrics:
    def _doc(self):
        graph = gnp_graph(8, 0.4, seed=8)
        net = CongestNetwork(graph, seed=8)
        collector = MetricsCollector(label="v").attach(net)
        approx_mvc_square(graph, 0.5, network=net)
        return collector.to_json()

    def test_accepts_real_document(self):
        validate_metrics(self._doc())

    def test_rejects_wrong_schema(self):
        doc = self._doc()
        doc["schema"] = "something/else"
        with pytest.raises(ValueError, match="schema"):
            validate_metrics(doc)

    def test_rejects_tampered_deterministic_section(self):
        doc = self._doc()
        doc["deterministic"]["totals"]["messages"] += 1
        with pytest.raises(ValueError, match="sha256"):
            validate_metrics(doc)

    def test_rejects_missing_sections(self):
        doc = self._doc()
        del doc["variant"]
        with pytest.raises(ValueError, match="variant"):
            validate_metrics(doc)

    def test_rejects_series_length_mismatch(self):
        doc = self._doc()
        phase = doc["deterministic"]["phases"][0]
        phase["series"]["words"].append(0)
        doc["deterministic_sha256"] = deterministic_sha256(
            doc["deterministic"]
        )
        with pytest.raises(ValueError, match="series"):
            validate_metrics(doc)


class TestDeterministicByteIdentity:
    """The contract: the deterministic section must not move with the
    engine or the compression window."""

    def test_identical_across_engines(self):
        graph = gnp_graph(14, 0.3, seed=9)
        sections = []
        for engine in ENGINES:
            net = CongestNetwork(graph, seed=9, engine=engine)
            collector = MetricsCollector(label="engines").attach(net)
            approx_mvc_square(graph, 0.5, network=net)
            doc = collector.to_json()
            assert doc["variant"]["engine"] == engine
            sections.append(_canonical(doc["deterministic"]))
        assert len(set(sections)) == 1

    def test_identical_across_compression_and_backend(self):
        graph = gnp_graph(16, 0.2, seed=16)
        sections = {}
        congest_net = CongestNetwork(graph, seed=16, engine="v2")
        collector = MetricsCollector(label="axis").attach(congest_net)
        approx_mvc_square(graph, 0.5, network=congest_net)
        sections["congest"] = _canonical(
            collector.to_json()["deterministic"]
        )
        for compress in (1, 2, 4, "auto"):
            collector = MetricsCollector(label="axis")
            solve_mvc_mpc(
                graph, 0.5, alpha=0.9, seed=16, check_parity=True,
                compress=compress, collector=collector,
            )
            sections[compress] = _canonical(
                collector.to_json()["deterministic"]
            )
        assert len(set(sections.values())) == 1

    def test_variant_shuffle_ledger_moves_with_k(self):
        graph = gnp_graph(16, 0.2, seed=16)
        shuffles = {}
        for compress in (1, 4):
            collector = MetricsCollector(label="axis")
            solve_mvc_mpc(
                graph, 0.5, alpha=0.9, seed=16, compress=compress,
                collector=collector,
            )
            shuffles[compress] = collector.to_json()["variant"]["shuffle"][
                "shuffles"
            ]
        assert shuffles[4] < shuffles[1]


class TestPeakHoldEstimator:
    def test_peak_holds_and_decays(self):
        est = PeakHoldEstimator(threshold=4.0, decay=0.5)
        est.observe(8.0)
        assert est.should_skip()
        est.window_skipped()
        assert est.peak == 4.0 and not est.should_skip()

    def test_observation_decays_old_peak(self):
        est = PeakHoldEstimator(threshold=4.0, decay=0.5)
        est.observe(8.0)
        est.observe(1.0)
        assert est.peak == 4.0
        est.observe(1.0)
        assert est.peak == 2.0

    def test_skip_run_is_bounded(self):
        est = PeakHoldEstimator(threshold=4.0, decay=0.5)
        est.observe(64.0)
        skips = 0
        while est.should_skip():
            est.window_skipped()
            skips += 1
        assert skips == 4  # 64 -> 32 -> 16 -> 8 -> 4 (not > threshold)

    def test_choice_histogram(self):
        est = PeakHoldEstimator()
        est.record_choice(3)
        est.record_choice(3)
        est.record_choice(1)
        assert est.to_json()["window_choices"] == {"1": 1, "3": 2}

    def test_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            PeakHoldEstimator(threshold=1.0)
        with pytest.raises(ValueError, match="decay"):
            PeakHoldEstimator(decay=1.0)


class TestAutoCompression:
    def test_rejects_unknown_string(self):
        graph = gnp_graph(8, 0.4, seed=1)
        with pytest.raises(ValueError, match="auto"):
            MPCCongestNetwork(
                graph, alpha=0.9, seed=1,
                options=RunOptions(compress="never"),
            )

    def test_auto_never_loses_to_fixed_k_mvc(self):
        graph = gnp_graph(16, 0.2, seed=5)
        counts = {}
        for compress in (1, 2, 4, "auto"):
            _, payload = solve_mvc_mpc(
                graph, 0.5, alpha=0.9, seed=5, check_parity=True,
                compress=compress,
            )
            counts[compress] = payload["shuffle"]["shuffles"]
        fixed_best = min(v for k, v in counts.items() if k != "auto")
        assert counts["auto"] <= fixed_best

    def test_auto_never_loses_to_fixed_k_mds(self):
        graph = gnp_graph(12, 0.25, seed=12)
        counts = {}
        for compress in (1, 2, 4, "auto"):
            _, payload = solve_mds_mpc(
                graph, alpha=1.0, seed=12, check_parity=True,
                compress=compress,
            )
            counts[compress] = payload["shuffle"]["shuffles"]
        fixed_best = min(v for k, v in counts.items() if k != "auto")
        assert counts["auto"] <= fixed_best

    def test_auto_ledger_in_summary(self):
        graph = gnp_graph(16, 0.2, seed=5)
        net = MPCCongestNetwork(
            graph, alpha=0.9, seed=5,
            options=RunOptions(compress="auto"),
        )
        approx_mvc_square(graph, 0.5, network=net)
        auto = net.mpc_summary()["auto"]
        assert auto["policy"] == "peak-hold"
        assert auto["cap"] == AUTO_COMPRESS_CAP
        assert sum(auto["window_choices"].values()) >= 1

    def test_fixed_k_summaries_have_no_auto_ledger(self):
        graph = gnp_graph(10, 0.3, seed=2)
        net = MPCCongestNetwork(
            graph, alpha=0.9, seed=2,
            options=RunOptions(compress=2),
        )
        approx_mvc_square(graph, 0.5, network=net)
        assert "auto" not in net.mpc_summary()


class TestWindowPlannerCaches:
    """Satellite: the planner's per-radius frontier tables must list
    exactly the machines a breadth-first search finds watching each node."""

    def test_watched_sets_equal_bfs_watchers(self):
        graph = gnp_graph(14, 0.25, seed=3)
        net = MPCCongestNetwork(
            graph, alpha=0.9, seed=3,
            options=RunOptions(compress=4),
        )
        approx_mvc_square(graph, 0.5, network=net)  # populate the caches
        ids = nx.Graph()
        ids.add_nodes_from(range(net.n))
        ids.add_edges_from(
            (u, v) for u in range(net.n) for v in net._adjacency[u]
        )
        previous = None
        for radius in range(1, 4):
            # Watchers by BFS: every machine hosting a node within
            # ``radius`` hops of ``node``.
            watchers = [
                {
                    net._host[v]
                    for v in nx.single_source_shortest_path_length(
                        ids, node, cutoff=radius
                    )
                }
                for node in range(net.n)
            ]
            frontier = net._frontier_at(radius)
            for mid, nodes in enumerate(frontier.watched):
                # Each watched node is listed once: a machine enters a
                # node's frontier exactly once.
                assert len(set(nodes)) == len(nodes)
                assert set(nodes) == {
                    node for node in range(net.n) if mid in watchers[node]
                }
                if previous is not None:
                    assert set(previous.watched[mid]) <= set(nodes)
            assert frontier.fan == [len(w) - 1 for w in watchers]
            previous = frontier

    def test_host_is_the_radius_zero_set(self):
        graph = gnp_graph(10, 0.3, seed=4)
        net = MPCCongestNetwork(
            graph, alpha=0.9, seed=4,
            options=RunOptions(compress=2),
        )
        approx_mvc_square(graph, 0.5, network=net)
        zero = net._frontier_at(0)
        hosted = [None] * net.n
        for mid, nodes in enumerate(zero.watched):
            for node in nodes:
                assert hosted[node] is None
                hosted[node] = mid
        assert hosted == list(net._host[: net.n])
        assert zero.fan == [0] * net.n


class TestConvergenceSeries:
    """Schema v2: deterministic per-iteration convergence curves.

    The curves are recorded from model-level state (join stamps, node
    states, coordinator progress) — never from engine scheduling — so
    they sit inside the deterministic payload and must be identical
    across engines, compression windows and shard-worker counts.
    """

    def test_mvc_curves_shape(self):
        graph = gnp_graph(14, 0.3, seed=9)
        net = CongestNetwork(graph, seed=9)
        collector = MetricsCollector(label="conv").attach(net)
        cover = approx_mvc_square(graph, 0.5, network=net)
        doc = collector.to_json()
        validate_metrics(doc)
        curves = doc["deterministic"]["convergence"]
        cover_curve = curves["cover_size"]
        # Cumulative joins, capped by the final cover size.
        assert all(a <= b for a, b in zip(cover_curve, cover_curve[1:]))
        assert cover_curve[-1] == len(cover.cover)
        uncovered = curves["uncovered_nodes"]
        assert all(a >= b for a, b in zip(uncovered, uncovered[1:]))

    def test_mds_curves_shape(self):
        from repro.core.mds_congest import approx_mds_square

        graph = gnp_graph(12, 0.3, seed=5)
        net = CongestNetwork(graph, seed=5)
        collector = MetricsCollector(label="conv").attach(net)
        ds = approx_mds_square(graph, network=net)
        curves = collector.to_json()["deterministic"]["convergence"]
        assert curves["dominating_set_size"][-1] == len(ds.cover)
        assert curves["uncovered_nodes"][-1] == 0

    def test_identical_across_engines_and_backends(self):
        graph = gnp_graph(14, 0.3, seed=9)
        curves = {}
        for engine in ENGINES:
            net = CongestNetwork(graph, seed=9, engine=engine)
            collector = MetricsCollector(label="conv").attach(net)
            approx_mvc_square(graph, 0.5, network=net)
            curves[engine] = _canonical(
                collector.to_json()["deterministic"]["convergence"]
            )
        for workers in (1, 2):
            collector = MetricsCollector(label="conv")
            solve_mvc_mpc(
                graph, 0.5, alpha=0.9, seed=9, compress="auto",
                collector=collector, workers=workers,
            )
            curves[f"mpc-w{workers}"] = _canonical(
                collector.to_json()["deterministic"]["convergence"]
            )
        assert len(set(curves.values())) == 1

    def test_matching_task_records_curves(self):
        import networkx as nx

        from repro.mpc import mpc_maximal_matching

        graph = nx.gnp_random_graph(16, 0.3, seed=2)
        collector = MetricsCollector(label="conv")
        outcome = mpc_maximal_matching(
            graph, alpha=0.7, seed=0, collector=collector,
        )
        doc = collector.to_json()
        validate_metrics(doc)
        curves = doc["deterministic"]["convergence"]
        matched = curves["matched_edges"]
        assert all(a <= b for a, b in zip(matched, matched[1:]))
        assert matched[-1] == len(outcome.matching)
        assert len(curves["active_edges"]) == len(matched)

    def test_validator_rejects_non_integer_series(self):
        graph = gnp_graph(10, 0.3, seed=4)
        net = CongestNetwork(graph, seed=4)
        collector = MetricsCollector(label="conv").attach(net)
        approx_mvc_square(graph, 0.5, network=net)
        doc = collector.to_json()
        doc["deterministic"]["convergence"]["cover_size"] = [1.5]
        doc["deterministic_sha256"] = deterministic_sha256(
            doc["deterministic"]
        )
        with pytest.raises(ValueError, match="integer-series"):
            validate_metrics(doc)
