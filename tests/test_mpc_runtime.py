"""Unit tests for the MPC machine/partition/runtime layers."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.congest.errors import RoundLimitError
from repro.graphs.generators import build_graph, path_graph, star_graph
from repro.graphs.instance import Instance
from repro.mpc.machine import (
    Machine,
    MachineProgram,
    MemoryBudgetExceeded,
    memory_budget,
)
from repro.mpc.partition import (
    balanced_assignment,
    partition_edges,
    partition_vertices,
)
from repro.mpc.runtime import ENVELOPE_WORDS, MPCRunStats, MPCRuntime


class TestMemoryBudget:
    def test_ceil_of_power(self):
        assert memory_budget(100, 0.5) == 10
        assert memory_budget(100, 1.0) == 100
        assert memory_budget(7, 0.5) == 3  # ceil(2.64...)

    def test_at_least_one_word(self):
        assert memory_budget(1, 0.5) == 1

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            memory_budget(10, 0.0)
        with pytest.raises(ValueError):
            memory_budget(10, 2.5)

    def test_near_linear_regime_allowed(self):
        # alpha in (1, 2] is the debug regime: S = n^2 holds any graph.
        assert memory_budget(10, 2.0) == 100

    def test_float_overshoot_snaps_to_integer_root(self):
        # Regression: 3125 ** 0.2 == 5.000000000000001 in floats, so a
        # bare ceil overshot the exact root to 6.
        assert memory_budget(3125, 0.2) == 5
        assert memory_budget(5 ** 5, 1 / 5) == 5
        # Undershoot side (999...8) keeps working too.
        assert memory_budget(1000, 1 / 3) == 10

    @given(
        base=st.integers(min_value=2, max_value=40),
        exponent=st.integers(min_value=2, max_value=8),
    )
    def test_perfect_powers_get_their_exact_root(self, base, exponent):
        # For n = b^e and alpha = 1/e the mathematical budget is exactly
        # b; float noise in n ** alpha (either direction, a couple of
        # ulps) must not change that.
        assert memory_budget(base ** exponent, 1.0 / exponent) == base


class TestMachine:
    def test_charge_within_budget(self):
        machine = Machine(0, budget_words=10)
        machine.charge(6)
        machine.charge(4)
        assert machine.stored_words == 10

    def test_charge_overflow_raises_with_context(self):
        machine = Machine(3, budget_words=5)
        with pytest.raises(MemoryBudgetExceeded, match=r"machine 3 .* 6 words"):
            machine.charge(6, what="edge partition")

    def test_release_never_goes_negative(self):
        machine = Machine(0, budget_words=5)
        machine.charge(3)
        machine.release(10)
        assert machine.stored_words == 0

    def test_io_budget_scales_with_factor(self):
        assert Machine(0, 10, io_factor=8.0).io_budget_words == 80
        assert Machine(0, 10, io_factor=1.0).io_budget_words == 10

    def test_window_budget_is_the_io_bound(self):
        # The compressed compiler's prefetch frontier arrives through one
        # shuffle, so the window budget is the O(S) per-round I/O bound.
        machine = Machine(0, 10, io_factor=8.0)
        assert machine.window_budget_words() == machine.io_budget_words

    def test_identity_and_budgets_are_plain_slots(self):
        machine = Machine(3, 10, io_factor=2.0)
        assert (
            machine.machine_id, machine.budget_words,
            machine.io_budget_words, machine.stored_words,
        ) == (3, 10, 20, 0)
        with pytest.raises(AttributeError):
            machine.spec = None

    def test_io_budget_never_below_memory(self):
        assert Machine(0, 5, io_factor=1.0).io_budget_words == 5

    def test_validation(self):
        with pytest.raises(ValueError, match="budget_words"):
            Machine(0, 0)
        with pytest.raises(ValueError, match="io_factor"):
            Machine(0, 4, io_factor=0.5)


class TestBalancedAssignment:
    def test_loads_respect_budget(self):
        weights = [5, 3, 3, 2, 2, 2, 1, 1]
        assignment = balanced_assignment(weights, budget_words=6, seed=1)
        assert max(assignment.loads) <= 6
        assert sum(assignment.loads) == sum(weights)

    def test_single_oversized_item_raises(self):
        with pytest.raises(MemoryBudgetExceeded, match="no partition"):
            balanced_assignment([2, 9, 1], budget_words=8, seed=0)

    def test_deterministic_per_seed(self):
        weights = [3, 1, 2, 2, 1, 3, 1]
        a = balanced_assignment(weights, budget_words=5, seed=7)
        b = balanced_assignment(weights, budget_words=5, seed=7)
        assert a.machine_of == b.machine_of
        assert a.digest() == b.digest()

    def test_empty_input_is_one_idle_machine(self):
        assignment = balanced_assignment([], budget_words=4, seed=0)
        assert assignment.num_machines == 1
        assert assignment.machine_of == ()


class TestGraphPartitions:
    def test_vertex_weights_are_adjacency_sizes(self):
        graph = star_graph(8)  # one hub of degree 7
        budget = 10
        instance = Instance(graph)
        assignment = partition_vertices(instance, budget, seed=0)
        id_of = instance.id_of
        hub = max(id_of.values(), key=lambda i: len(list(graph.edges)))
        assert max(assignment.loads) <= budget
        # hub weighs 1 + 7 = 8 words; leaves 1 + 1 = 2.
        assert sum(assignment.loads) == 8 + 7 * 2

    def test_high_degree_vertex_fails_small_budget(self):
        with pytest.raises(MemoryBudgetExceeded):
            partition_vertices(
                Instance(star_graph(20)), budget_words=5, seed=0
            )

    def test_edges_cover_every_edge_once(self):
        graph = build_graph("gnp", 24, seed=3)
        edges, assignment = partition_edges(
            Instance(graph), budget_words=8, seed=3
        )
        assert len(edges) == graph.number_of_edges()
        assert len(assignment.machine_of) == len(edges)
        assert max(assignment.loads) <= 8


class _Echo(MachineProgram):
    """Sends one payload to machine 0 at start, finishes on any round."""

    def __init__(self, machine, payload):
        super().__init__(machine)
        self.payload = payload

    def on_start(self):
        if self.machine.machine_id != 0:
            return [(0, self.payload)]
        return None

    def on_round(self, inbox):
        self.finish(sorted(inbox))
        return None


class _Chatter(MachineProgram):
    """Pings the next machine for ``rounds`` rounds, storing each ping.

    Machine 1 charges a table far beyond its budget when ``hoard_at``
    rounds remain.
    """

    def __init__(self, machine, peers, rounds, hoard_at=None):
        super().__init__(machine)
        self.next = (machine.machine_id + 1) % peers
        self.rounds = rounds
        self.hoard_at = hoard_at
        self.seen = 0

    def on_start(self):
        return [(self.next, ("hi", self.rounds))]

    def on_round(self, inbox):
        if self.machine.machine_id == 1 and self.rounds == self.hoard_at:
            self.machine.charge(10**6, what="a hoarded table")
        self.seen += len(inbox)
        self.machine.charge(len(inbox), what="pings")
        self.rounds -= 1
        if self.rounds == 0:
            self.finish(("seen", self.seen))
            return [(self.next, ("bye",))]
        return [(self.next, ("hi", self.rounds))]


class TestRuntime:
    def test_shuffle_word_accounting(self):
        machines = [Machine(i, 100) for i in range(3)]
        runtime = MPCRuntime(machines, word_bits=5)
        inboxes = runtime.route(
            [[(1, 7)], [(2, (1, 2, 3))], None]
        )
        # message 0->1: envelope + one small int = 2 words;
        # message 1->2: envelope + three small ints = 4 words.
        assert runtime.stats.messages == 2
        assert runtime.stats.total_words == (ENVELOPE_WORDS + 1) + (
            ENVELOPE_WORDS + 3
        )
        assert runtime.stats.max_in_words == ENVELOPE_WORDS + 3
        assert runtime.stats.max_out_words == ENVELOPE_WORDS + 3
        assert inboxes[1] == [(0, 7)]
        assert inboxes[2] == [(1, (1, 2, 3))]

    def test_shuffle_receive_budget_enforced(self):
        machines = [Machine(0, 100), Machine(1, 2, io_factor=1.0)]
        runtime = MPCRuntime(machines, word_bits=5)
        with pytest.raises(MemoryBudgetExceeded, match="received"):
            runtime.route([[(1, (1, 2, 3, 4))], None])

    def test_shuffle_send_budget_enforced(self):
        machines = [Machine(i, 2, io_factor=1.0) for i in range(3)]
        runtime = MPCRuntime(machines, word_bits=5)
        with pytest.raises(MemoryBudgetExceeded, match="sent"):
            runtime.route([[(1, 1), (2, 1)], None, None])

    def test_budget_violation_delivers_nothing(self):
        machines = [Machine(i, 2, io_factor=1.0) for i in range(2)]
        runtime = MPCRuntime(machines, word_bits=5)
        with pytest.raises(MemoryBudgetExceeded):
            runtime.route([[(1, (1, 2, 3, 4))], None])
        assert runtime.stats.messages == 0
        assert runtime.stats.rounds == 0

    def test_invalid_destination_rejected(self):
        runtime = MPCRuntime([Machine(0, 10)], word_bits=4)
        with pytest.raises(ValueError, match="invalid machine"):
            runtime.route([[(3, 1)]])

    def test_shuffle_meters_given_loads(self):
        machines = [Machine(i, 100) for i in range(3)]
        runtime = MPCRuntime(machines, word_bits=5)
        runtime.shuffle([0, 6, 4], [10, 0, 0], 3, active=2, congest_rounds=2)
        assert runtime.stats.to_json() == {
            "rounds": 1, "shuffles": 1, "congest_rounds": 2, "messages": 3,
            "total_words": 10, "max_in_words": 6, "max_out_words": 10,
            "word_bits": 5,
        }
        assert runtime.trace[0].active_machines == 2

    def test_shuffle_checks_send_before_receive(self):
        machines = [Machine(i, 2, io_factor=1.0) for i in range(2)]
        runtime = MPCRuntime(machines, word_bits=5)
        with pytest.raises(MemoryBudgetExceeded, match="machine 0 sent 3"):
            runtime.shuffle([3, 3], [3, 3], 2)
        assert not runtime.trace

    def test_program_run_collects_outputs(self):
        machines = [Machine(i, 100) for i in range(3)]
        runtime = MPCRuntime(machines, word_bits=5)
        programs = [_Echo(m, m.machine_id * 10) for m in machines]
        result = runtime.run(programs)
        # machine 0 hears from 1 and 2 in its first round.
        assert result.outputs[0] == [(1, 10), (2, 20)]
        assert result.stats.rounds >= 1
        assert result.trace[0].round_index == 1

    def test_round_limit(self):
        class Spinner(MachineProgram):
            def on_round(self, inbox):
                return [(0, 1)] if self.machine.machine_id else None

        machines = [Machine(i, 100) for i in range(2)]
        runtime = MPCRuntime(machines, word_bits=4)
        with pytest.raises(RoundLimitError):
            runtime.run([Spinner(m) for m in machines], max_rounds=5)

    def test_final_round_outboxes_cross_a_metered_shuffle(self):
        # Regression: messages returned in the round every program
        # finished used to be dropped unmetered — the run loop only
        # shuffles while someone is live.
        class FinalSender(MachineProgram):
            def on_round(self, inbox):
                self.finish(len(inbox))
                if self.machine.machine_id != 0:
                    return [(0, 7)]
                return None

        machines = [Machine(i, 100) for i in range(2)]
        runtime = MPCRuntime(machines, word_bits=5)
        result = runtime.run([FinalSender(m) for m in machines])
        # One empty round-1 shuffle, then the final flush with the
        # parting message: envelope + one small int.
        assert result.stats.shuffles == 2
        assert result.stats.messages == 1
        assert result.stats.total_words == ENVELOPE_WORDS + 1
        assert result.trace[-1].active_machines == 0
        assert result.trace[-1].messages == 1

    def test_quiet_final_round_adds_no_flush_shuffle(self):
        # A program set whose last round returns nothing must not pay an
        # extra (empty) shuffle for the flush.
        machines = [Machine(i, 100) for i in range(3)]
        runtime = MPCRuntime(machines, word_bits=5)
        result = runtime.run([_Echo(m, m.machine_id) for m in machines])
        assert len(result.trace) == 1
        assert result.trace[0].active_machines == 3

    def test_charge_overflow_mid_run_raises_with_its_message(self):
        machines = [Machine(i, 64) for i in range(4)]
        runtime = MPCRuntime(machines, word_bits=5)
        programs = [_Chatter(m, 4, rounds=4, hoard_at=2) for m in machines]
        with pytest.raises(MemoryBudgetExceeded) as excinfo:
            runtime.run(programs)
        assert str(excinfo.value) == (
            "machine 1 needs 1000002 words for a hoarded table but its "
            "memory budget S is 64 words"
        )
        # Rounds 1 and 2 shuffled before machine 1 failed in round 3.
        assert runtime.stats.rounds == 3
        assert programs[0].rounds == 1 and not programs[0].done

    def test_programs_hold_their_post_run_state(self):
        machines = [Machine(i, 64) for i in range(5)]
        runtime = MPCRuntime(machines, word_bits=5)
        programs = [_Chatter(m, 5, rounds=4) for m in machines]
        result = runtime.run(programs)
        for mid, prog in enumerate(programs):
            assert prog.done and prog.seen == 4
            assert prog.machine is machines[mid]
            assert machines[mid].stored_words == 4
            assert result.outputs[mid] == ("seen", 4)

    def test_on_shuffle_hook_observes_every_record(self):
        seen = []
        machines = [Machine(i, 100) for i in range(3)]
        runtime = MPCRuntime(machines, word_bits=5, on_shuffle=seen.append)
        runtime.run([_Echo(m, m.machine_id * 10) for m in machines])
        assert seen == runtime.trace
        assert all(isinstance(r.round_index, int) for r in seen)

    def test_stats_addition_word_size_guard(self):
        a = MPCRunStats(rounds=1, total_words=5, word_bits=4)
        b = MPCRunStats(rounds=2, total_words=7, word_bits=4)
        combined = a + b
        assert combined.rounds == 3
        assert combined.total_words == 12
        with pytest.raises(ValueError, match="word sizes"):
            a + MPCRunStats(rounds=1, word_bits=6)

    def test_empty_stats_are_an_additive_identity(self):
        # Regression: an all-zero stats object must be summable into a
        # populated one regardless of its word_bits — both ways round —
        # adopting the populated side's word size.
        populated = MPCRunStats(
            rounds=3, messages=5, total_words=9, congest_rounds=6,
            word_bits=5,
        )
        for empty in (MPCRunStats(), MPCRunStats(word_bits=8)):
            for combined in (populated + empty, empty + populated):
                assert combined == populated
        summed = sum(
            [populated, populated], MPCRunStats()
        )
        assert summed.rounds == 6
        assert summed.congest_rounds == 12
        assert summed.word_bits == 5
