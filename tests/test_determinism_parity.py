"""Regression pins for the DET003/DET004 determinism fixes.

The analyzer flagged hash-order-dependent set iteration in the reference
MDS sampler, the exact solvers, the power-graph builder and the CONGEST
solvers.  Fixing those falls into two classes, and this file pins both:

* **Parity-preserved** — the fix reorders only internal work (loop order
  feeding commutative aggregation, networkx payload construction with
  identical mappings), so the result digest is *unchanged*.  These pins
  prove the cleanup did not silently alter results.
* **Bug-documented** — the old digest was a hash-layout artifact: RNG
  draws were consumed in ``set`` iteration order in
  ``reference_mds_square`` and greedy tie-breaks depended on iteration
  order in the exact solver.  Results are now pinned to the
  order-independent values (and re-verified for optimality where the
  artifact could have changed the answer).

Every digest is ``deterministic_sha256`` over a canonical-JSON payload,
so these pins also freeze the outputs against future regressions.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.mds_reference import reference_mds_square
from repro.exact.dominating_set import (
    dominating_set_brute,
    minimum_dominating_set,
    minimum_weighted_dominating_set,
)
from repro.graphs.power import induced_square_subgraph
from repro.graphs.validation import is_dominating_set
from repro.metrics.collector import deterministic_sha256
from repro.sweep import named_grid, run_sweep


def graphs() -> dict[str, nx.Graph]:
    return {
        "path9": nx.path_graph(9),
        "cycle12": nx.cycle_graph(12),
        "reg3_14": nx.random_regular_graph(3, 14, seed=5),
    }


def mds_reference_digest(g: nx.Graph) -> str:
    ds, detail = reference_mds_square(g, seed=11)
    return deterministic_sha256({"ds": sorted(ds), "detail": detail})


def exact_digest(g: nx.Graph) -> str:
    weights = {v: 1.0 + (v % 3) for v in g.nodes}
    return deterministic_sha256(
        sorted(minimum_weighted_dominating_set(g, weights))
    )


def square_sub_digest(g: nx.Graph) -> str:
    sub = induced_square_subgraph(g, list(g.nodes)[: g.number_of_nodes() // 2])
    return deterministic_sha256(
        {
            "nodes": sorted(sub.nodes),
            "edges": sorted(sorted(e) for e in sub.edges),
        }
    )


class TestParityPreserved:
    """Digests captured before the DET003 fixes; unchanged after."""

    def test_mds_reference_path9(self):
        assert mds_reference_digest(graphs()["path9"]) == (
            "90243aa18b3447b72a1f922bd578d815"
            "bd9c325051a6b265e9a781955278a751"
        )

    @pytest.mark.parametrize(
        "name, expected",
        [
            (
                "path9",
                "2bd7d315f79d0d0cd0f3ae2466406568"
                "59d8e8b0f3b82a26a065fa8e52f0e702",
            ),
            (
                "cycle12",
                "61b76dbbd7e3c4fda84d5ae9696f5b04"
                "d95129ce0e4848b9079f0f3732b5da62",
            ),
            (
                "reg3_14",
                "496347983b0ebe94749f9772d7615c23"
                "474edbbe52a90b0603b1966d852ce0f1",
            ),
        ],
    )
    def test_exact_weighted(self, name, expected):
        assert exact_digest(graphs()[name]) == expected

    @pytest.mark.parametrize(
        "name, expected",
        [
            (
                "path9",
                "62b3400aa72a71fbad0953b9d3b67c57"
                "d0a981ed480178461dfb7365184c3193",
            ),
            (
                "cycle12",
                "61b76dbbd7e3c4fda84d5ae9696f5b04"
                "d95129ce0e4848b9079f0f3732b5da62",
            ),
            (
                "reg3_14",
                "96560431f68801617890b7a4d6f3eb58"
                "f473fac8ad901a9e06158819df0fc712",
            ),
        ],
    )
    def test_brute_force(self, name, expected):
        g = graphs()[name]
        assert deterministic_sha256(sorted(dominating_set_brute(g))) == expected

    @pytest.mark.parametrize(
        "name, expected",
        [
            (
                "path9",
                "bf880355374849c30561f04dbaa16239"
                "767fecd2d38d1ee99d62a3daac0138db",
            ),
            (
                "cycle12",
                "2c3d01c0a59e25531b8e62ed3900b9e3"
                "c9e513d6239527e1c3a3408e9442059a",
            ),
            (
                "reg3_14",
                "7d9f1243f1d083ab123094e7a248cdfd"
                "f79284489cd03b3c0147aefb2e7b84f0",
            ),
        ],
    )
    def test_square_subgraph(self, name, expected):
        assert square_sub_digest(graphs()[name]) == expected

    @pytest.mark.parametrize(
        "grid, expected",
        [
            (
                "smoke",
                "8d79b9495be4c30b908113c34bfdc51f"
                "e06b6a85051ce4d096137896260e99e8",
            ),
            (
                "mpc-smoke",
                "52bb0c1a865125d830841745774ed772"
                "a10e52421fc6c5f32fb1a411bcc77cf4",
            ),
        ],
    )
    def test_sweep_digests(self, grid, expected):
        # The load-bearing pins: end-to-end sweep digests, covering the
        # CONGEST outbox/neighbor-iteration reorderings in mds_congest
        # through the full pipeline.  No sweep task runs mwvc_congest;
        # its ledger is pinned in tests/test_mwvc_congest.py.
        result = run_sweep(named_grid(grid), jobs=1)
        assert result.deterministic_sha256() == expected


class TestBugDocumented:
    """Old digests were hash-layout artifacts (RNG consumed in set order,
    order-dependent greedy tie-breaks).  Pinned to the fixed values."""

    @pytest.mark.parametrize(
        "name, expected",
        [
            (
                "cycle12",
                "3d43ec88ea94c3d308ccaf94328e1206"
                "b6f4df489f6dafc1cab3c9806458e183",
            ),
            (
                "reg3_14",
                "b20ca928e11129f6cf8e84795ccdbc4e"
                "38071cde74647e94197125d48bad538a",
            ),
        ],
    )
    def test_mds_reference_fixed(self, name, expected):
        g = graphs()[name]
        ds, _ = reference_mds_square(g, seed=11)
        square = nx.power(g, 2)
        assert is_dominating_set(square, ds)
        assert mds_reference_digest(g) == expected

    def test_unweighted_reg3_14_fixed_and_still_optimal(self):
        g = graphs()["reg3_14"]
        ds = minimum_dominating_set(g)
        brute = dominating_set_brute(g)
        assert is_dominating_set(g, ds)
        assert len(ds) == len(brute)
        assert deterministic_sha256(sorted(ds)) == (
            "3f70adc65fa280da3f4514e662835ef6"
            "1fca962a0edca400f2d3da573a6af215"
        )
