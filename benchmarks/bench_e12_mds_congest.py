"""E12 — Theorem 28 + Lemma 29: distributed G^2-MDS and the estimator.

Tables: (i) estimator concentration (max relative error shrinks with the
sample count — Lemma 30's Cramer bound); (ii) the MDS pipeline's
approximation ratio and polylog phase counts across growing networks.

Both grids live in :mod:`repro.sweep.grids` (``e12-estimator`` and
``e12-mds``) and are evaluated through the sweep runner; the CLI runs the
same cells in parallel via ``python -m repro sweep --grid e12-mds --jobs 4``.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import print_table

from repro.sweep import run_sweep
from repro.sweep.grids import e12_estimator_grid, e12_mds_grid


def _estimator_rows():
    rows = []
    for cell, payload in run_sweep(e12_estimator_grid()).ok_payloads():
        rows.append(
            (
                payload["samples"],
                payload["stats"]["rounds"],
                payload["max_rel_err"],
                payload["mean_rel_err"],
            )
        )
    return rows


def _mds_rows():
    rows = []
    for cell, payload in run_sweep(e12_mds_grid()).ok_payloads():
        rows.append(
            (
                cell.n,
                payload["cover_size"],
                payload["opt"],
                payload["ratio"],
                payload["phases"],
                payload["stats"]["rounds"],
                payload["max_degree"],
            )
        )
    return rows


def test_lemma29_concentration(benchmark):
    rows = benchmark.pedantic(_estimator_rows, rounds=1, iterations=1)
    print_table(
        "E12a / Lemma 29: 2-hop size estimator concentration",
        ["samples", "rounds", "max rel err", "mean rel err"],
        rows,
    )
    max_errors = [row[2] for row in rows]
    assert max_errors[-1] < max_errors[0]
    assert max_errors[-1] < 0.25


def test_theorem28_mds(benchmark):
    rows = benchmark.pedantic(_mds_rows, rounds=1, iterations=1)
    print_table(
        "E12b / Theorem 28: G^2-MDS quality and phases",
        ["n", "|DS|", "opt", "ratio", "phases", "rounds", "Delta"],
        rows,
    )
    for n, _, _, ratio, phases, _, delta in rows:
        assert ratio <= max(4.0, 8.0 * math.log(delta * delta + 2))
        assert phases <= 10 * (math.log2(n) ** 2) + 20
