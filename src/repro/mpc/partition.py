"""Deterministic seeded partitioning of graph inputs across MPC machines.

The partitioner answers one question: which machine holds which share of
the input (a validated :class:`~repro.graphs.instance.Instance`, in its
canonical ids) under a per-machine budget of ``S`` words?  Two properties
are non-negotiable because the sweep runner's parity contract rests on
them:

* **determinism across processes** — assignments derive from SHA-256
  hashes via :func:`repro.contract.derive_seed` (never the builtin
  salted ``hash``), so ``--jobs 1``, ``--jobs 4`` and a fresh interpreter
  all compute byte-identical partitions and digests;
* **budget feasibility by construction** — items are placed with a
  longest-processing-time greedy onto the least-loaded machine, visiting
  items in hash-shuffled order within equal weights, starting from the
  ``ceil(total / S)`` machine-count floor and growing until everything
  fits (the LPT ``avg + w_max`` makespan bound caps the growth).  An item
  that alone exceeds ``S`` (a vertex whose adjacency cannot fit on any
  machine — the canonical too-small-``alpha`` failure) raises
  :class:`~repro.mpc.machine.MemoryBudgetExceeded` immediately.
"""

from __future__ import annotations

import hashlib
import heapq
from collections.abc import Sequence
from dataclasses import dataclass

from repro.contract import derive_seed
from repro.graphs.instance import Instance
from repro.mpc.machine import MemoryBudgetExceeded


@dataclass(frozen=True)
class Assignment:
    """An item -> machine map plus the per-machine word loads."""

    machine_of: tuple[int, ...]
    loads: tuple[int, ...]
    budget_words: int
    seed: int

    @property
    def num_machines(self) -> int:
        return len(self.loads)

    def hosted(self, machine_id: int) -> tuple[int, ...]:
        """Item indices hosted by ``machine_id``, ascending."""
        return tuple(
            i for i, mid in enumerate(self.machine_of) if mid == machine_id
        )

    def digest(self) -> str:
        """Cross-process-stable fingerprint of the assignment."""
        text = ",".join(str(m) for m in self.machine_of)
        payload = f"{self.budget_words}/{self.seed}:{text}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def balanced_assignment(
    weights: Sequence[int],
    budget_words: int,
    seed: int = 0,
    what: str = "item",
) -> Assignment:
    """Assign weighted items to the fewest machines that respect ``S``.

    Deterministic greedy: items descend by weight (hash-shuffled within
    equal weights, so the seed genuinely reshapes the partition), each
    placed on the currently least-loaded machine.  Raises
    :class:`MemoryBudgetExceeded` when some single item outweighs the
    budget — no number of machines can help then.
    """
    if budget_words < 1:
        raise ValueError("budget_words must be positive")
    weights = list(weights)
    if not weights:
        return Assignment((), (0,), budget_words, seed)
    w_max = max(weights)
    if w_max > budget_words:
        offender = weights.index(w_max)
        raise MemoryBudgetExceeded(
            f"{what} {offender} needs {w_max} words but the per-machine "
            f"memory budget S is {budget_words} words; no partition can fit "
            f"it (raise alpha)"
        )
    total = sum(weights)
    order = sorted(
        range(len(weights)),
        key=lambda i: (-weights[i], derive_seed(seed, "item", i), i),
    )
    # Start from the information-theoretic floor ceil(total / S) and grow
    # the machine count until the greedy fits; the LPT makespan bound
    # (avg + w_max) guarantees termination by M = ceil(total / (S - w_max))
    # at the latest, but most inputs fit far earlier.
    machines = max(1, -(-total // budget_words))
    while True:
        heap = [(0, mid) for mid in range(machines)]
        heapq.heapify(heap)
        machine_of = [0] * len(weights)
        loads = [0] * machines
        fits = True
        for i in order:
            load, mid = heapq.heappop(heap)
            if load + weights[i] > budget_words:
                fits = False
                break
            machine_of[i] = mid
            loads[mid] = load + weights[i]
            heapq.heappush(heap, (load + weights[i], mid))
        if fits:
            return Assignment(
                tuple(machine_of), tuple(loads), budget_words, seed
            )
        machines += 1


def partition_vertices(
    instance: Instance, budget_words: int, seed: int = 0
) -> Assignment:
    """Partition vertices (with their adjacency lists) across machines.

    Item ``i`` is the vertex with canonical id ``i``; its weight is
    ``1 + deg(i)`` words (the id plus one word per incident edge
    endpoint), which is exactly what hosting the vertex costs.
    """
    weights = [1 + len(neighbors) for neighbors in instance.adjacency]
    return balanced_assignment(weights, budget_words, seed=seed, what="vertex")


#: Words one edge occupies on its host machine: the two endpoint ids.
EDGE_WORDS = 2


def partition_edges(
    instance: Instance, budget_words: int, seed: int = 0
) -> tuple[tuple[tuple[int, int], ...], Assignment]:
    """Partition edges across machines; returns ``(edges, assignment)``.

    Item ``i`` is ``edges[i]``, the canonical edge order: ``(u, v)`` id
    pairs with ``u < v``, ascending.  Every edge weighs
    :data:`EDGE_WORDS` words.  With uniform weights the greedy reduces to
    a hash-shuffled round-robin, so the seed decides which machine sees
    which edges.
    """
    edges = tuple(
        (u, v)
        for u, neighbors in enumerate(instance.adjacency)
        for v in neighbors
        if u < v
    )
    assignment = balanced_assignment(
        [EDGE_WORDS] * len(edges), budget_words, seed=seed, what="edge"
    )
    return edges, assignment
