"""Deterministic MPC partitioning: identical across jobs and restarts.

The partitioner derives machine assignments from the same SHA-256 seed
derivation as the sweep cells (:func:`repro.contract.derive_seed`) — never
the salted builtin ``hash``
— so the same cell must hash to the same machines in a pool worker, in a
serial run, and in a freshly started interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.graphs.generators import build_graph
from repro.graphs.instance import Instance
from repro.mpc.partition import partition_edges, partition_vertices
from repro.sweep import run_sweep
from repro.sweep.grids import mpc_smoke_grid, named_grid

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _digests(n: int = 20, seed: int = 5) -> tuple[str, str]:
    instance = Instance(build_graph("gnp", n, seed=seed))
    vertices = partition_vertices(instance, budget_words=12, seed=seed)
    _, edges = partition_edges(instance, budget_words=12, seed=seed)
    return vertices.digest(), edges.digest()


class TestCrossProcessDeterminism:
    def test_digest_stable_across_interpreter_restarts(self):
        """A fresh python process (fresh hash salt) computes equal digests."""
        script = (
            "from tests.test_mpc_partition import _digests;"
            "print('/'.join(_digests()))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            f"{SRC}:{Path(__file__).resolve().parent.parent}"
        )
        env["PYTHONHASHSEED"] = "random"
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout.strip()
        assert out == "/".join(_digests())

    def test_digest_in_repeated_calls(self):
        assert _digests() == _digests()

    def test_different_seeds_reshape_the_partition(self):
        instance = Instance(build_graph("gnp", 24, seed=2))
        a = partition_vertices(instance, budget_words=16, seed=1)
        b = partition_vertices(instance, budget_words=16, seed=2)
        # Equal-weight vertices are hash-shuffled per seed; identical
        # assignments for every seed would mean the seed is ignored.
        assert a.digest() != b.digest()


class TestImportIsolation:
    def test_solver_path_does_not_load_the_sweep_package(self):
        """The seed derivation comes from a leaf module, not the sweep
        runner, so a solve never imports the runner's process pool."""
        script = (
            "import sys, repro.mpc.compile_congest, repro.core.mds_congest;"
            "print(sorted(m for m in sys.modules"
            " if m == 'repro.sweep' or m.startswith('repro.sweep.')))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout.strip()
        assert out == "[]"


class TestSweepJobParity:
    def test_mpc_smoke_grid_serial_vs_pool_byte_identical(self):
        """Partition digests (inside the mpc payloads) survive the pool."""
        serial = run_sweep(mpc_smoke_grid(), jobs=1)
        pooled = run_sweep(named_grid("mpc-smoke"), jobs=2)
        assert not serial.failures and not pooled.failures
        assert serial.deterministic_json() == pooled.deterministic_json()
        assert serial.deterministic_sha256() == pooled.deterministic_sha256()

    def test_payloads_carry_partition_digests(self):
        sweep = run_sweep(mpc_smoke_grid(), jobs=1)
        digests = [
            payload["mpc"]["partition_digest"]
            for _, payload in sweep.ok_payloads()
        ]
        assert digests and all(
            isinstance(d, str) and len(d) == 16 for d in digests
        )
