"""E1 — Theorem 1: (1+eps)-approximate G^2-MVC in O(n/eps) CONGEST rounds.

Regenerates the theorem's two claims as a table: the measured
approximation ratio never exceeds 1+eps, and rounds scale linearly in
``n`` and in ``1/eps`` (rounds / (n/eps) stays bounded as n doubles).

The grid cells live in :func:`repro.sweep.grids.e01_grid` and are evaluated
through the sweep runner, so ``python -m repro sweep --grid e01 --jobs 4``
runs exactly these cells in parallel.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import print_table

from repro.core.mvc_congest import approx_mvc_square
from repro.graphs.generators import gnp_graph
from repro.graphs.power import square
from repro.graphs.validation import assert_vertex_cover
from repro.sweep import run_sweep
from repro.sweep.grids import e01_grid


def _run_grid():
    rows = []
    normalized = []
    for cell, payload in run_sweep(e01_grid()).ok_payloads():
        eps = cell.eps
        ratio = payload["ratio"]
        assert ratio <= 1 + eps + 1e-9
        rounds = payload["stats"]["rounds"]
        norm = rounds / (cell.n / eps)
        normalized.append(norm)
        rows.append((cell.n, eps, rounds, norm, ratio, 1 + eps))
    return rows, normalized


def test_theorem1_round_scaling(benchmark):
    rows, normalized = benchmark.pedantic(_run_grid, rounds=1, iterations=1)
    print_table(
        "E1 / Theorem 1: rounds and ratio vs (n, eps)",
        ["n", "eps", "rounds", "rounds/(n/eps)", "ratio", "guarantee"],
        rows,
    )
    assert len(rows) == len(e01_grid())
    # Shape: the normalized round count stays within a constant band.
    assert max(normalized) <= 6 * min(normalized)
    assert max(normalized) < 8.0


def test_theorem1_single_run_cost(benchmark):
    graph = gnp_graph(48, 0.12, seed=1)
    result = benchmark(lambda: approx_mvc_square(graph, 0.5, seed=1))
    assert_vertex_cover(square(graph), result.cover)
