"""Native MPC workload: greedy maximal matching by round-compressed peeling.

The filtering/GMM recipe (sparsify locally, finish centrally, peel) in its
simplest honest form, with one genuinely MPC ingredient: a **combine
tree**.  Edges are hash-partitioned across worker machines arranged as an
f-ary tree under a coordinator; each phase

* every worker **sparsifies** its share to a local greedy matching and
  reports up to ``q`` vertex-disjoint proposal edges (plus its remaining
  edge count); inner tree nodes greedily **merge** their children's
  reports with their own before forwarding, so no machine ever receives
  more than ``f`` reports of ``O(q)`` words — the O(S) fan-in bound a
  single flat coordinator would violate as soon as the machine count
  outgrows ``S``;
* the coordinator **finishes** the phase: a deterministic greedy over the
  merged proposals accepts up to ``accept_cap`` vertex-disjoint edges and
  broadcasts them down the tree;
* on the verdict every worker records the accepted edges it owns (edge
  ownership is unique, so no reply routing is needed) and **peels** every
  edge incident to a newly matched vertex, releasing its storage —
  peeling literally frees machine memory here.

Quotas ``q``, fan-in ``f`` and ``accept_cap`` are derived from exact
:func:`~repro.congest.message.payload_words` costs so every machine's
per-round traffic fits its O(S) I/O budget; a budget too small even for
the floor quotas raises
:class:`~repro.mpc.machine.MemoryBudgetExceeded` in the shuffle.  The
output is distributed, as the low-space model demands: each worker holds
its accepted edges and the simulator unions the shares afterwards.
Maximality is by construction — an edge leaves a worker only when an
endpoint is matched — and is re-verified against the centralized oracle
in :mod:`repro.exact.matching` by callers and tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import networkx as nx

from repro.congest.message import payload_words
from repro.graphs.instance import Instance
from repro.mpc.machine import Machine, MachineProgram, memory_budget
from repro.mpc.options import RunOptions
from repro.mpc.partition import EDGE_WORDS, partition_edges
from repro.mpc.runtime import ENVELOPE_WORDS, MPCRunStats, MPCRuntime

#: Message tags (small ints: one word in any network of >= 7 nodes).
_TAG_REPORT = 4
_TAG_MATCHED = 5
_TAG_HALT = 6

#: Coordinator machine id (the combine-tree root; holds no edges).
_COORDINATOR = 0


def _children(machine_id: int, fan_in: int, machines: int) -> tuple[int, ...]:
    """Heap-layout children of ``machine_id`` in the f-ary combine tree."""
    first = fan_in * machine_id + 1
    return tuple(
        mid for mid in range(first, first + fan_in) if mid < machines
    )


def _parent(machine_id: int, fan_in: int) -> int:
    return (machine_id - 1) // fan_in


@dataclass
class MatchingResult:
    """A maximal matching plus the MPC ledger that produced it."""

    matching: set[frozenset]
    phases: int
    machines: int
    fan_in: int
    alpha: float
    budget_words: int
    partition_digest: str
    stats: MPCRunStats

    def __len__(self) -> int:
        return len(self.matching)

    def summary(self) -> dict[str, Any]:
        return {
            "model": "mpc",
            "alpha": self.alpha,
            "budget_words": self.budget_words,
            "machines": self.machines,
            "fan_in": self.fan_in,
            "phases": self.phases,
            "partition_digest": self.partition_digest,
            "shuffle": self.stats.to_json(),
        }


class _TreeWorker(MachineProgram):
    """A combine-tree node: holds an edge share, merges children reports.

    Wave discipline: a verdict from the parent starts the node's next
    report (leaves answer immediately; inner nodes buffer children
    reports — a transient of at most ``fan_in * q`` edges — and send the
    greedy merge once all children answered).  Verdict and report waves
    never overlap because the coordinator only issues a verdict after the
    whole tree reported.
    """

    def __init__(
        self,
        machine: Machine,
        edges: list[tuple[int, int]],
        quota: int,
        children: tuple[int, ...],
        parent: int,
    ) -> None:
        super().__init__(machine)
        self.edges = sorted(edges)
        self.edge_set = set(self.edges)
        self.quota = quota
        self.children = children
        self.parent = parent
        self.accepted: list[tuple[int, int]] = []
        self.buffer: list[tuple[int, int]] = []
        self.buffer_count = 0
        self.waiting_children = 0
        machine.charge(EDGE_WORDS * len(self.edges), what="edge partition")

    def _local_proposals(self) -> list[tuple[int, int]]:
        chosen: list[tuple[int, int]] = []
        used: set[int] = set()
        for u, v in self.edges:
            if len(chosen) >= self.quota:
                break
            if u not in used and v not in used:
                chosen.append((u, v))
                used.update((u, v))
        return chosen

    def _merge_and_report(self):
        # Greedy merge of the buffered children proposals with our own:
        # vertex-disjoint, deterministic order, capped at the quota.
        merged: list[tuple[int, int]] = []
        used: set[int] = set()
        for u, v in sorted(self.buffer + self._local_proposals()):
            if len(merged) >= self.quota:
                break
            if u not in used and v not in used:
                merged.append((u, v))
                used.update((u, v))
        count = self.buffer_count + len(self.edges)
        self.buffer = []
        self.buffer_count = 0
        return [
            (self.parent, (_TAG_REPORT, count, tuple(merged)))
        ]

    def _apply_verdict(self, verdict: tuple[tuple[int, int], ...]):
        matched: set[int] = set()
        accepted_here = 0
        for u, v in verdict:
            matched.update((u, v))
            if (u, v) in self.edge_set:
                self.accepted.append((u, v))
                accepted_here += 1
        if matched:
            survivors = [
                e for e in self.edges
                if e[0] not in matched and e[1] not in matched
            ]
            released = len(self.edges) - len(survivors)
            self.machine.release(EDGE_WORDS * released)
            self.edges = survivors
            self.edge_set = set(survivors)
        # The accepted share replaces (part of) the released edges, so the
        # net storage never exceeds the original partition charge.
        self.machine.charge(
            EDGE_WORDS * accepted_here, what="accepted matching share"
        )
        out: list[tuple[int, Any]] = [
            (child, (_TAG_MATCHED, verdict)) for child in self.children
        ]
        if not self.children:
            out.extend(self._merge_and_report())
        else:
            self.waiting_children = len(self.children)
        return out

    def on_round(self, inbox):
        if not inbox:
            return None
        out: list[tuple[int, Any]] = []
        for _sender, message in inbox:
            tag = message[0]
            if tag == _TAG_HALT:
                out.extend(
                    (child, (_TAG_HALT,)) for child in self.children
                )
                self.finish(tuple(self.accepted))
                return out
            if tag == _TAG_MATCHED:
                out.extend(self._apply_verdict(message[1]))
            elif tag == _TAG_REPORT:
                self.buffer_count += message[1]
                self.buffer.extend(message[2])
                self.waiting_children -= 1
                if self.waiting_children == 0:
                    out.extend(self._merge_and_report())
        return out


class _Coordinator(MachineProgram):
    """The combine-tree root: kicks off phases, finishes each one."""

    def __init__(
        self,
        machine: Machine,
        children: tuple[int, ...],
        accept_cap: int,
    ) -> None:
        super().__init__(machine)
        self.children = children
        self.accept_cap = accept_cap
        self.phases = 0
        self.buffer: list[tuple[int, int]] = []
        self.buffer_count = 0
        self.waiting_children = 0
        #: Per-phase ``(active_edges, accepted)`` pairs — the edge count
        #: the tree reported entering the phase and the verdict size.
        #: Model-level and deterministic, like ``phases``.
        self.progress: list[tuple[int, int]] = []

    def _start_wave(self, verdict: tuple[tuple[int, int], ...]):
        self.waiting_children = len(self.children)
        return [(child, (_TAG_MATCHED, verdict)) for child in self.children]

    def on_start(self):
        # Phase 1 opens with an empty verdict so the report wave ripples
        # up from the leaves.
        return self._start_wave(())

    def on_round(self, inbox):
        if not inbox:
            return None
        for _sender, message in inbox:
            assert message[0] == _TAG_REPORT
            self.buffer_count += message[1]
            self.buffer.extend(message[2])
            self.waiting_children -= 1
        if self.waiting_children > 0:
            return None
        self.phases += 1
        if self.buffer_count == 0:
            self.progress.append((0, 0))
            self.finish(self.phases)
            return [(child, (_TAG_HALT,)) for child in self.children]
        # Finish the phase: deterministic greedy, vertex-disjoint, capped
        # so the verdict broadcast fits the O(S) send budget.  Endpoints
        # are globally unmatched (workers peel before proposing), so
        # conflicts only arise within the phase.
        taken: set[int] = set()
        accepted: list[tuple[int, int]] = []
        for u, v in sorted(self.buffer):
            if len(accepted) >= self.accept_cap:
                break
            if u not in taken and v not in taken:
                taken.update((u, v))
                accepted.append((u, v))
        self.progress.append((self.buffer_count, len(accepted)))
        self.buffer = []
        self.buffer_count = 0
        return self._start_wave(tuple(accepted))


def mpc_maximal_matching(
    graph: nx.Graph,
    alpha: float = 0.8,
    seed: int = 0,
    faults: Any = None,
    collector: Any = None,
    tracer: Any = None,
) -> MatchingResult:
    """Compute a maximal matching of ``graph`` on the MPC simulator.

    ``faults`` is validated on entry by
    :class:`~repro.mpc.options.RunOptions` (a fault spec is parsed with
    ``seed``).  Deterministic for a fixed ``(graph, alpha, seed)``,
    shuffle ledger included; the programs run in one serial
    :meth:`~repro.mpc.runtime.MPCRuntime.run` loop.
    ``graph`` is validated as an :class:`~repro.graphs.instance.Instance`
    (empty and non-simple graphs raise its typed errors); it may be
    disconnected.  Raises :class:`~repro.mpc.machine.MemoryBudgetExceeded`
    when ``alpha`` is too small for the edge partition or the phase
    traffic.
    ``faults`` injects ``mem@`` memory-pressure faults into the shuffles.
    ``collector`` (a :class:`~repro.metrics.MetricsCollector`) observes
    the shuffle stream and receives the matched/active-edge convergence
    curves; ``tracer`` (a :class:`~repro.trace.TraceRecorder`) gets the
    shuffle timeline.
    """
    # An explicit serial count: the matching never reads REPRO_MPC_WORKERS.
    options = RunOptions(workers=1, faults=faults, seed=seed)
    instance = Instance(graph)
    n, word_bits, label_of = instance.n, instance.word_bits, instance.labels
    budget = memory_budget(n, alpha)
    edges, assignment = partition_edges(instance, budget, seed=seed)
    tree_workers = assignment.num_machines
    machines = [Machine(mid, budget) for mid in range(tree_workers + 1)]
    io_budget = machines[_COORDINATOR].io_budget_words

    # Quotas from exact word costs.  A report carries (tag, count, edge
    # tuple): base words plus two per proposal; a verdict carries (tag,
    # edge tuple): base words plus two per accepted edge.
    env = ENVELOPE_WORDS
    report_base = env + payload_words(
        (_TAG_REPORT, max(1, len(edges)), ()), word_bits
    )
    edge_cost = payload_words((n, n), word_bits)
    matched_base = env + payload_words((_TAG_MATCHED, ()), word_bits)
    # Per-report quota q: one report must fit half the receive budget
    # (so fan-in >= 2 stays possible) and we target ~io/4 per report.
    quota = max(1, (io_budget // 4 - report_base) // edge_cost)
    report_cost = report_base + quota * edge_cost
    # Fan-in f: a parent receives at most f reports per round.
    fan_in = max(2, io_budget // report_cost)
    # Accept cap k: a node forwards the verdict to at most f children,
    # f * (matched_base + 2k) <= io.
    accept_cap = max(
        1, (io_budget - fan_in * matched_base) // (fan_in * edge_cost)
    )

    shares: dict[int, list[tuple[int, int]]] = {
        m: [] for m in range(tree_workers)
    }
    for index, edge in enumerate(edges):
        shares[assignment.machine_of[index]].append(edge)
    total_machines = tree_workers + 1
    programs: list[MachineProgram] = [
        _Coordinator(
            machines[_COORDINATOR],
            _children(_COORDINATOR, fan_in, total_machines),
            accept_cap,
        )
    ]
    for mid in range(1, total_machines):
        programs.append(
            _TreeWorker(
                machines[mid],
                shares[mid - 1],
                quota,
                _children(mid, fan_in, total_machines),
                _parent(mid, fan_in),
            )
        )
    depth = max(
        2, math.ceil(math.log(max(2, total_machines), fan_in)) + 1
    )
    # Every phase matches >= 1 edge while edges remain, and one phase is a
    # down-and-up wave of <= 2 * depth + 2 rounds.
    max_rounds = (n + 8) * (2 * depth + 2)
    runtime = MPCRuntime(machines, word_bits)
    if collector is not None:
        runtime.on_shuffle = collector.on_shuffle
    runtime.tracer = tracer
    runtime.fault_injector = options.fault_injector()
    result = runtime.run(programs, max_rounds=max_rounds)
    coordinator = programs[_COORDINATOR]
    matching: set[frozenset] = set()
    matched_vertices: set[int] = set()
    for mid in range(1, total_machines):
        for u, v in result.outputs[mid] or ():
            assert u not in matched_vertices and v not in matched_vertices, (
                "coordinator accepted two edges sharing a vertex"
            )
            matched_vertices.update((u, v))
            matching.add(frozenset((label_of[u], label_of[v])))
    outcome = MatchingResult(
        matching=matching,
        phases=coordinator.phases,
        machines=total_machines,
        fan_in=fan_in,
        alpha=alpha,
        budget_words=budget,
        partition_digest=assignment.digest(),
        stats=result.stats,
    )
    if collector is not None:
        collector.set_engine("mpc")
        matched_curve: list[int] = []
        matched_total = 0
        for _active, accepted in coordinator.progress:
            matched_total += accepted
            matched_curve.append(matched_total)
        collector.record_convergence("matched_edges", matched_curve)
        collector.record_convergence(
            "active_edges", [active for active, _ in coordinator.progress]
        )
        collector.record_mpc(outcome.summary())
    return outcome


def assert_maximal_matching(graph: nx.Graph, matching: set[frozenset]) -> None:
    """Raise ``AssertionError`` unless ``matching`` is a maximal matching."""
    matched: set = set()
    # repro: allow[DET003] per-edge assertions are independent and matched.update commutes
    for edge in matching:
        u, v = tuple(edge)
        assert graph.has_edge(u, v), f"{u!r}-{v!r} is not an edge of G"
        assert u not in matched and v not in matched, (
            f"vertex of {edge!r} is matched twice"
        )
        matched.update((u, v))
    for u, v in graph.edges:
        assert u in matched or v in matched, (
            f"edge {u!r}-{v!r} has both endpoints unmatched: not maximal"
        )
