"""Parallel sweep runner for benchmark grids.

Declare a grid (:mod:`repro.sweep.spec`), evaluate it serially or over a
``multiprocessing`` pool (:mod:`repro.sweep.runner`) through the task
registry (:mod:`repro.sweep.tasks`); named benchmark grids live in
:mod:`repro.sweep.grids`.  Entry points: ``python -m repro sweep`` and the
``--jobs`` flag of ``python -m repro verify``.
"""

from repro.sweep.grids import NAMED_GRIDS, named_grid
from repro.sweep.runner import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    TABLE_HEADER,
    CellResult,
    SweepResult,
    evaluate_cell,
    run_sweep,
)
from repro.sweep.spec import Cell, GridSpec, derive_seed, expand_grid
from repro.sweep.tasks import (
    check_cell,
    get_task,
    register_task,
    signature_of,
    stats_from_json,
    stats_to_json,
    task_names,
)

__all__ = [
    "Cell",
    "NAMED_GRIDS",
    "CellResult",
    "GridSpec",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "SweepResult",
    "TABLE_HEADER",
    "check_cell",
    "derive_seed",
    "evaluate_cell",
    "expand_grid",
    "get_task",
    "named_grid",
    "register_task",
    "run_sweep",
    "signature_of",
    "stats_from_json",
    "stats_to_json",
    "task_names",
]
