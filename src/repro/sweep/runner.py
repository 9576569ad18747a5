"""Sweep execution: serial or process-pool, with identical merged results.

:func:`run_sweep` evaluates every cell of a :class:`~repro.sweep.spec.GridSpec`
through the task registry and merges the outcomes into a
:class:`SweepResult`.  ``jobs=1`` evaluates in-process (the pytest and
benchmark path); ``jobs>1`` fans cells out over a ``multiprocessing`` pool
(the CLI path).  Because cells are self-contained and deterministically
seeded, the two paths produce byte-identical deterministic payloads — only
wall-clock fields differ, and those are kept out of
:meth:`SweepResult.deterministic_json` precisely so the equality is
checkable (``tests/test_sweep.py`` does).

Failure handling: a task that raises is captured as a ``status="error"``
cell result carrying the formatted traceback; a task that exceeds the
per-cell ``timeout`` is captured as ``status="timeout"`` (implemented with
``SIGALRM``, so it works identically inside pool workers and in serial runs
on the main thread).  Neither aborts the sweep — the merged table reports
every cell.  Each cell is evaluated exactly once: cells are pure functions
of their coordinates, so re-running one can only repeat its outcome.  A
``timeout`` that cannot be armed (no ``SIGALRM``, or a serial sweep off
the main thread) is a ``ValueError`` before any cell runs, never a cell
that silently runs without its budget.
"""

from __future__ import annotations

import hashlib
import json
import signal
import sys
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any

from repro.congest.network import RunStats
from repro.contract import TIMING_SCOPED_FIELD_SET
from repro.sweep.spec import Cell, GridSpec
from repro.sweep.tasks import get_task, stats_from_json

try:  # POSIX-only; RSS metering degrades to None elsewhere.
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None

#: Cap on the traceback text shipped back from a failed worker.
_ERROR_LIMIT = 4000

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"


class CellTimeoutError(TimeoutError):
    """Raised inside a worker when a cell exceeds its time budget.

    Subclasses :class:`TimeoutError` so budget expiry stays recognizable
    through code that swallows ordinary failures.
    """


@dataclass
class CellResult:
    """Outcome of evaluating one cell.

    ``max_rss_kb`` is the evaluating process's peak resident set size
    (``resource.getrusage``) observed right after the cell ran, in KiB;
    ``None`` where the ``resource`` module is unavailable.  It is a
    process-lifetime high-water mark, so in serial runs it is monotone
    across cells (the first big cell dominates later small ones); with a
    process pool each worker's peak reflects only the cells it evaluated.
    Like ``seconds`` it is machine-dependent and excluded from
    :meth:`SweepResult.deterministic_json`.
    """

    cell: Cell
    status: str
    payload: dict[str, Any] | None = None
    error: str | None = None
    seconds: float = 0.0
    max_rss_kb: int | None = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def stats(self) -> RunStats | None:
        """The cell's simulator stats, if the task reported any."""
        if self.payload and "stats" in self.payload:
            return stats_from_json(self.payload["stats"])
        return None

    def to_json(self, include_timing: bool = True) -> dict[str, Any]:
        payload = self.payload
        if not include_timing and payload is not None:
            # Task payloads are pure functions of the cell; a
            # timing-scoped key in one would break the digest's job- and
            # worker-count invariance, so it is scoped with the timings.
            payload = {
                k: v for k, v in payload.items()
                if k not in TIMING_SCOPED_FIELD_SET
            }
        data: dict[str, Any] = {
            "cell": self.cell.to_json(),
            "key": self.cell.key,
            "status": self.status,
            "payload": payload,
            "error": self.error,
        }
        if include_timing:
            data["seconds"] = self.seconds
            # Alias with the documented name: per-cell wall time.  Scoped
            # with the timings (machine-dependent), like ``max_rss_kb``.
            data["elapsed_s"] = self.seconds
            data["max_rss_kb"] = self.max_rss_kb
        return data


@dataclass
class SweepResult:
    """Merged outcome of one grid evaluation."""

    grid: GridSpec
    results: list[CellResult]
    jobs: int
    wall_seconds: float

    def __post_init__(self) -> None:
        self.results = sorted(self.results, key=lambda r: r.cell.index)

    # -- queries -----------------------------------------------------------

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> list[CellResult]:
        return [r for r in self.results if not r.ok]

    def ok_payloads(self) -> list[tuple[Cell, dict[str, Any]]]:
        """(cell, payload) for successful cells; raises if any cell failed.

        Benchmarks use this as their "everything ran" guard before reading
        numbers out of the merged table.
        """
        if self.failures:
            first = self.failures[0]
            raise RuntimeError(
                f"{len(self.failures)} cell(s) failed; first: "
                f"{first.cell.key} [{first.status}] {first.error}"
            )
        return [(r.cell, r.payload or {}) for r in self.results]

    def aggregate_stats(self) -> dict[int, RunStats]:
        """Summed simulator stats per word size.

        ``RunStats.__add__`` refuses to mix word sizes (word counts are not
        commensurable across them), so aggregation buckets by ``word_bits``
        and sums within each bucket.
        """
        buckets: dict[int, RunStats] = {}
        for result in self.results:
            stats = result.stats()
            if stats is None:
                continue
            if stats.word_bits in buckets:
                buckets[stats.word_bits] = buckets[stats.word_bits] + stats
            else:
                buckets[stats.word_bits] = stats
        return buckets

    # -- serialization -----------------------------------------------------

    def to_json(self, include_timing: bool = True) -> dict[str, Any]:
        counts = {
            status: sum(1 for r in self.results if r.status == status)
            for status in (STATUS_OK, STATUS_ERROR, STATUS_TIMEOUT)
        }
        data: dict[str, Any] = {
            "grid": self.grid.name,
            "cells": len(self.results),
            "counts": counts,
            "results": [
                r.to_json(include_timing=include_timing)
                for r in self.results
            ],
            "aggregate_stats": {
                str(bits): {
                    "rounds": stats.rounds,
                    "messages": stats.messages,
                    "total_words": stats.total_words,
                    "total_bits": stats.total_bits,
                    "max_words_per_edge_round": (
                        stats.max_words_per_edge_round
                    ),
                    "cut_words": stats.cut_words,
                }
                for bits, stats in sorted(self.aggregate_stats().items())
            },
        }
        if include_timing:
            data["jobs"] = self.jobs
            data["wall_seconds"] = self.wall_seconds
        return data

    def deterministic_json(self) -> str:
        """Canonical JSON of everything except timing and worker count.

        Two evaluations of the same grid — any ``jobs``, any machine — must
        return equal strings; this is the sweep runner's parity contract.
        Scope: the contract assumes no cell was classified ``timeout`` in
        either run — cell *outcomes* are deterministic, but whether a cell
        beats a wall-clock budget depends on machine speed and pool
        contention, so ``timeout`` cells (included here, like every
        failure) can legitimately differ between runs under ``--timeout``.
        """
        return json.dumps(
            self.to_json(include_timing=False), sort_keys=True
        )

    def deterministic_sha256(self) -> str:
        """Digest of :meth:`deterministic_json` — the parity fingerprint.

        The single definition used by the CLI, the benchmarks and the
        tests, so "same grid => same digest" stays comparable everywhere.
        """
        return hashlib.sha256(
            self.deterministic_json().encode("utf-8")
        ).hexdigest()

    def table_rows(self) -> list[tuple[object, ...]]:
        """Rows for ``benchmarks._common.print_table`` / the CLI table."""
        rows: list[tuple[object, ...]] = []
        for result in self.results:
            stats = result.stats()
            detail = ""
            if result.status != STATUS_OK:
                lines = (result.error or "").strip().splitlines()
                detail = lines[-1][:40] if lines else result.status
            elif result.payload:
                sig = result.payload.get("signature")
                detail = str(sig) if sig else ""
            rows.append(
                (
                    result.cell.key,
                    result.status,
                    stats.rounds if stats else "-",
                    stats.messages if stats else "-",
                    result.seconds * 1e3,
                    detail,
                )
            )
        return rows

    def timing_histogram(self, bins: int = 16) -> str:
        """One-line per-cell wall-time histogram for the table footer.

        Buckets the cells' ``seconds`` linearly between the fastest and
        slowest cell; purely informational (wall time never enters the
        deterministic digest).
        """
        times = [r.seconds for r in self.results]
        if not times:
            return "cell wall-time: no cells"
        lo, hi = min(times), max(times)
        counts = [0] * bins
        if hi <= lo:
            counts[0] = len(times)
        else:
            for t in times:
                index = min(bins - 1, int((t - lo) / (hi - lo) * bins))
                counts[index] += 1
        blocks = "▁▂▃▄▅▆▇█"
        peak = max(counts)
        bar = "".join(
            "." if count == 0
            else blocks[max(0, (len(blocks) * count - 1) // peak)]
            for count in counts
        )
        return (
            f"cell wall-time: min {lo * 1e3:.1f} ms · "
            f"max {hi * 1e3:.1f} ms · total {sum(times):.2f} s · "
            f"histogram [{bar}]"
        )


TABLE_HEADER = ("cell", "status", "rounds", "messages", "ms", "detail")


# -- cell evaluation -------------------------------------------------------


def _alarm_handler(signum, frame):  # pragma: no cover - dispatched by OS
    raise CellTimeoutError


def _check_alarm(timeout: float | None, in_process: bool = True) -> None:
    """A ``ValueError`` if a requested ``timeout`` cannot be armed here.

    The budget is a ``SIGALRM`` itimer.  Platforms without ``SIGALRM``
    (e.g. Windows) cannot arm it at all, and off the main thread
    ``signal.signal`` refuses the handler.  A pool worker evaluates on
    its own main thread, so only in-process evaluation (``in_process``)
    needs the caller on the main thread.
    """
    if timeout is None:
        return
    if not hasattr(signal, "SIGALRM"):
        raise ValueError(
            f"timeout {timeout:g}s cannot be enforced: signal.SIGALRM is "
            f"unavailable on this platform"
        )
    on_main = threading.current_thread() is threading.main_thread()
    if in_process and not on_main:
        raise ValueError(
            f"timeout {timeout:g}s cannot be enforced: SIGALRM only fires "
            f"on the main thread"
        )


def _peak_rss_kb() -> int | None:
    """Peak RSS of this process in KiB, or None without ``resource``.

    Linux reports ``ru_maxrss`` in KiB; macOS reports bytes and is
    normalized by platform rather than by guessing from magnitude.
    """
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS units
        peak //= 1024
    return int(peak)


def evaluate_cell(
    cell: Cell, timeout: float | None = None, repeats: int = 1
) -> CellResult:
    """Evaluate one cell, capturing failures and (optionally) timeouts.

    ``repeats`` re-runs the task and keeps the best wall-clock (the payload
    comes from the last run; tasks are deterministic, so payloads of all
    repeats are equal) — the standard best-of-N used by the benchmarks.

    The timeout uses ``SIGALRM`` and covers all repeats together.  It only
    arms on the main thread of a POSIX process; anywhere else a requested
    timeout is a ``ValueError`` before the task runs (:func:`_check_alarm`).
    """
    check_timeout(timeout)
    _check_alarm(timeout)
    old_handler = None
    armed = timeout is not None
    if armed:
        old_handler = signal.signal(signal.SIGALRM, _alarm_handler)
        signal.setitimer(signal.ITIMER_REAL, timeout)

    def _disarm() -> None:
        nonlocal armed
        if armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old_handler)
            armed = False

    try:
        try:
            task = get_task(cell.task)
            payload: dict[str, Any] | None = None
            best = float("inf")
            for _ in range(max(1, repeats)):
                start = time.perf_counter()  # repro: allow[DET002] per-cell timing lands under include_timing only
                payload = task(cell)
                best = min(best, time.perf_counter() - start)  # repro: allow[DET002] per-cell timing lands under include_timing only
        finally:
            # Disarm before constructing any CellResult: an alarm landing
            # after the task body would otherwise raise from a frame with
            # no handler and abort the whole sweep instead of one cell.
            try:
                _disarm()
            except CellTimeoutError:
                # The alarm fired in the instant before setitimer(0) took
                # effect.  The itimer is one-shot, so nothing is pending;
                # finish the disarm (restore the handler) and fall through
                # to whichever result the task body produced.
                _disarm()
        return CellResult(
            cell=cell,
            status=STATUS_OK,
            payload=payload,
            seconds=best,
            max_rss_kb=_peak_rss_kb(),
        )
    except CellTimeoutError:
        _disarm()
        return CellResult(
            cell=cell,
            status=STATUS_TIMEOUT,
            error=f"cell exceeded timeout of {timeout:g}s",
            seconds=float(timeout or 0.0),
            max_rss_kb=_peak_rss_kb(),
        )
    except Exception:
        _disarm()
        return CellResult(
            cell=cell,
            status=STATUS_ERROR,
            error=traceback.format_exc(limit=20)[-_ERROR_LIMIT:],
            max_rss_kb=_peak_rss_kb(),
        )


def check_count(name: str, value: int, minimum: int) -> int:
    """``value`` if it is at least ``minimum``, else a ``ValueError``."""
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return value


def check_timeout(timeout: float | None) -> float | None:
    """``timeout`` if it is ``None`` (no budget) or positive, else a ``ValueError``."""
    if timeout is not None and not timeout > 0:
        raise ValueError("timeout must be > 0 seconds")
    return timeout


def run_sweep(
    grid: GridSpec,
    jobs: int = 1,
    timeout: float | None = None,
    repeats: int = 1,
    trace: Any = None,
) -> SweepResult:
    """Evaluate every cell of ``grid`` and merge the outcomes.

    ``jobs=1`` runs serially in-process; ``jobs>1`` uses a process pool of
    that many workers with one cell per task (fair scheduling for
    heterogeneous cell costs).  Results are merged in grid order either
    way.  A worker that dies abruptly (OOM-kill, segfault) is recorded as
    an ``error`` result for the cells it took down — the pool raises
    ``BrokenProcessPool`` for their futures rather than hanging, which is
    why this uses ``concurrent.futures`` and not ``multiprocessing.Pool``.
    Each cell builds its own input graph inside its own ``timeout``, so a
    slow graph build times out only that cell.  A ``timeout`` that cannot
    be armed where the cells would run raises ``ValueError`` before any
    cell runs (:func:`_check_alarm`).

    ``trace`` (a :class:`repro.trace.TraceRecorder`) adds one complete
    event per cell to the timeline — the in-process evaluation window on
    serial runs, the submit-to-result window on pool runs.  The tracer is
    a pure observer: payloads and the deterministic digest are unchanged.
    """
    check_count("jobs", jobs, 1)
    check_count("repeats", repeats, 1)
    check_timeout(timeout)
    serial = jobs == 1 or len(grid.cells) <= 1
    _check_alarm(timeout, in_process=serial)
    start = time.perf_counter()  # repro: allow[DET002] sweep wall timing is timing-scoped output
    if serial:
        results = []
        for cell in grid.cells:
            cell_start = trace.now_ns() if trace is not None else 0
            result = evaluate_cell(cell, timeout=timeout, repeats=repeats)
            if trace is not None:
                trace.complete(
                    f"cell:{cell.key}", cell_start, trace.now_ns(),
                    cat="sweep", status=result.status,
                )
            results.append(result)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                (
                    cell,
                    trace.now_ns() if trace is not None else 0,
                    pool.submit(evaluate_cell, cell, timeout, repeats),
                )
                for cell in grid.cells
            ]
            results = []
            for cell, submit_ns, future in futures:
                try:
                    results.append(future.result())
                except Exception as exc:
                    # BrokenProcessPool (worker died) or a result that
                    # failed to unpickle; degrade to a per-cell error.
                    results.append(
                        CellResult(
                            cell=cell,
                            status=STATUS_ERROR,
                            error=f"worker failed: {exc!r}",
                        )
                    )
                if trace is not None:
                    trace.complete(
                        f"cell:{cell.key}", submit_ns, trace.now_ns(),
                        cat="sweep", status=results[-1].status,
                    )
    return SweepResult(
        grid=grid,
        results=results,
        jobs=jobs,
        wall_seconds=time.perf_counter() - start,  # repro: allow[DET002] sweep wall timing is timing-scoped output
    )
