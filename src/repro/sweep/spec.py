"""Declarative grid specifications for the sweep runner.

A *cell* is one unit of work: a named task (see :mod:`repro.sweep.tasks`)
evaluated on one ``(graph kind, n, seed, eps, engine)`` point, optionally
with extra frozen parameters.  A *grid* is an ordered tuple of cells plus a
name; :func:`expand_grid` builds one as the cartesian product of per-axis
value lists, deriving a deterministic per-cell seed when explicit seeds are
not supplied.

Cells are immutable, hashable and picklable, so the same grid object can be
evaluated in-process (``jobs=1``, the pytest path) or shipped to
``multiprocessing`` workers (the CLI ``sweep --jobs N`` path) and produce
identical merged results.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from typing import Any

from repro.contract import derive_seed

#: Parameter values allowed inside ``Cell.params`` — kept to JSON scalars so
#: cells serialize losslessly and pickle cheaply.
_SCALAR = (str, int, float, bool, type(None))


@dataclass(frozen=True)
class Cell:
    """One evaluation point of a sweep grid."""

    task: str
    graph: str = "gnp"
    n: int = 16
    seed: int = 0
    eps: float | None = None
    engine: str | None = None
    #: Extra task-specific parameters as a sorted tuple of (key, value)
    #: pairs — tuple (not dict) so the cell stays hashable and frozen.
    params: tuple[tuple[str, Any], ...] = ()
    #: Position in the grid expansion; merged results are ordered by it.
    index: int = -1

    def __post_init__(self) -> None:
        for key, value in self.params:
            if not isinstance(key, str) or not isinstance(value, _SCALAR):
                raise TypeError(
                    f"cell param {key!r}={value!r} is not a JSON scalar"
                )
        object.__setattr__(self, "params", tuple(sorted(self.params)))

    def param(self, key: str, default: Any = None) -> Any:
        for k, v in self.params:
            if k == key:
                return v
        return default

    @property
    def key(self) -> str:
        """Stable human-readable identifier (used in tables and JSON)."""
        parts = [self.task, self.graph, f"n={self.n}", f"seed={self.seed}"]
        if self.eps is not None:
            parts.append(f"eps={self.eps:g}")
        if self.engine is not None:
            parts.append(f"engine={self.engine}")
        parts.extend(f"{k}={v}" for k, v in self.params)
        return "/".join(parts)

    def to_json(self) -> dict[str, Any]:
        return {
            "task": self.task,
            "graph": self.graph,
            "n": self.n,
            "seed": self.seed,
            "eps": self.eps,
            "engine": self.engine,
            "params": dict(self.params),
            "index": self.index,
        }


@dataclass(frozen=True)
class GridSpec:
    """A named, ordered collection of cells."""

    name: str
    cells: tuple[Cell, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # Re-number so cell.index always reflects grid position; merged
        # results sort by it regardless of evaluation order.
        object.__setattr__(
            self,
            "cells",
            tuple(
                replace(cell, index=i) for i, cell in enumerate(self.cells)
            ),
        )

    def __len__(self) -> int:
        return len(self.cells)

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "cells": [cell.to_json() for cell in self.cells],
        }


def expand_grid(
    name: str,
    task: str,
    graphs: tuple[str, ...] = ("gnp",),
    ns: tuple[int, ...] = (16,),
    epss: tuple[float | None, ...] = (None,),
    engines: tuple[str | None, ...] = (None,),
    replicates: int = 1,
    base_seed: int = 0,
    params: tuple[tuple[str, Any], ...] = (),
) -> GridSpec:
    """Cartesian-product grid with deterministic per-cell seeding.

    The cell seed is :func:`derive_seed` over the cell's coordinates and the
    replicate number, so adding an axis value never reshuffles the seeds of
    existing cells.
    """
    cells = []
    for graph, n, eps, engine, rep in product(
        graphs, ns, epss, engines, range(replicates)
    ):
        seed = derive_seed(base_seed, task, graph, n, eps, rep)
        cells.append(
            Cell(
                task=task,
                graph=graph,
                n=n,
                seed=seed,
                eps=eps,
                engine=engine,
                params=params,
            )
        )
    return GridSpec(name=name, cells=tuple(cells))
