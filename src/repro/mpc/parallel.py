"""Process-parallel execution of one compiled MPC instance's machines.

A pool of **shards**, each owning a fixed subset of a compiled CONGEST
instance's machines (:mod:`repro.mpc.compile_congest`), executes their
local per-round computation concurrently (shard 0 in the caller's
process, each other shard in a forked worker) while every metered
shuffle stays a barrier in the parent process, overlapped with the
workers' round where it can.  Native MPC programs
(:meth:`~repro.mpc.runtime.MPCRuntime.run`) never use it: they run in one
serial loop.

The plumbing ships each piece of state once: the immutable instance state —
graph, partition, compiled algorithms — crosses into the workers exactly
once at fork time (inherited copy-on-write under the ``fork`` start
method), and only small mutable per-round deltas cross the pipes
afterwards: the round's metered send batches down, ``(sends,
stats-delta, finished)`` fragments up.  Platforms without ``fork`` fall
back to the serial path rather than paying a per-round pickle of the
whole instance.

**Parity contract.**  Shard workers change *where* local computation
runs, never *what* the ledger records: every shuffle is executed by the
parent against the parent's metered :class:`~repro.mpc.runtime.MPCRuntime`
(the shared shuffle barrier), worker stats deltas are additive (or
max-combinable) exactly like the serial accumulation, and fragment merge
order is normalized (ascending sender/machine id — the order the serial
loop produces).  The ShuffleRecord stream, ``MPCRunStats``, RoundEvents
and the metrics deterministic section are therefore byte-identical at any
worker count; ``tests/test_mpc_parallel.py`` enforces this
differentially.

**Typed error transport.**  An exception raised inside a shard worker —
canonically a :class:`~repro.congest.errors.ProtocolError` from a compiled
node's ``on_round`` — is shipped back as ``(unit id,
exception module, qualname, message)`` and re-raised in the parent as the
*same* exception type with the *same* message, never as a pickling or
``BrokenProcessPool`` error.  When several units fail in one round the
parent raises the smallest unit id's error: per-round unit computations
are independent, so that is exactly the error the serial ascending-id
loop would have hit first.

**No crash recovery.**  The MPC model assumes machines that never fail,
so a worker process that dies is not part of any run the simulator
models: the pool tears every worker down and raises
:class:`WorkerCrashError`, which the sweep runner records as the cell's
error.
"""

from __future__ import annotations

import importlib
import multiprocessing
import time
from collections.abc import Callable, Sequence
from typing import Any

#: Sentinel shutting down a shard worker's command loop.
_STOP = "__repro_mpc_shard_stop__"


class WorkerCrashError(RuntimeError):
    """A shard worker died without reporting a typed error.

    Distinct from any model-level exception: seeing this means the worker
    process itself was lost (killed, segfaulted), not that the simulated
    machine exceeded a budget.
    """


def fork_available() -> bool:
    """Whether the fork-inherit worker plumbing can run on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def plan_shards(num_units: int, workers: int) -> list[tuple[int, ...]]:
    """Partition unit ids ``0..num_units-1`` round-robin into shards.

    Returns at most ``workers`` non-empty ascending tuples.  Round-robin
    (unit ``u`` to shard ``u % workers``) balances machine counts without
    looking at loads; the LPT partitioner already balanced words per
    machine, so machine count is the right proxy here.
    """
    if num_units < 1:
        raise ValueError("num_units must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, num_units)
    shards = [
        tuple(range(w, num_units, workers)) for w in range(workers)
    ]
    return [shard for shard in shards if shard]


def safe_message(exc: BaseException) -> str:
    """``str(exc)`` that never raises, even for a broken ``__str__``."""
    try:
        return str(exc)
    except Exception:
        return f"<unprintable {type(exc).__name__} exception>"


def describe_error(unit: int, exc: BaseException) -> tuple[int, str, str, str]:
    """Portable description of a worker-side exception, tagged by unit id."""
    cls = type(exc)
    return (unit, cls.__module__, cls.__qualname__, safe_message(exc))


def rebuild_exception(
    module: str, qualname: str, message: str
) -> BaseException:
    """Reconstruct a worker-side exception as its original type.

    All model-level errors (``MemoryBudgetExceeded``, ``ProtocolError``,
    ``CongestionError``, ...) are message-only exception classes, so
    ``cls(message)`` round-trips them exactly.  Anything that cannot be
    re-imported or re-instantiated degrades to a ``RuntimeError`` carrying
    the original type name and message — never a pickling error.
    """
    cls: Any = None
    try:
        obj: Any = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        if isinstance(obj, type) and issubclass(obj, BaseException):
            cls = obj
    except Exception:
        cls = None
    if cls is not None:
        try:
            return cls(message)
        except Exception:
            pass
    return RuntimeError(f"{module}.{qualname}: {message}")


def raise_shard_error(frags: Sequence[dict[str, Any]]) -> None:
    """Re-raise the smallest-unit-id error embedded in round fragments.

    Per-round unit computations are independent of each other, so the
    smallest failing unit id is exactly the failure the serial
    ascending-id loop would have raised first — type and message included.
    """
    errors = [frag["error"] for frag in frags if frag.get("error")]
    if not errors:
        return
    _unit, module, qualname, message = min(errors, key=lambda e: e[0])
    raise rebuild_exception(module, qualname, message)


def _shard_main(conn, handler: Callable[[Any], Any]) -> None:
    """A shard worker's command loop: recv task, run handler, send result.

    Handler-level failures are expected to be embedded in the handler's
    own result (with unit attribution); this outer catch is the transport
    backstop for bugs in the plumbing itself.

    Every ``ok`` result ships a ``(start_ns, end_ns)`` pair of local
    ``time.monotonic_ns()`` stamps bracketing the handler call.  Fork
    children share the parent's ``CLOCK_MONOTONIC`` domain, so the parent
    can normalize these against its own origin (and clamp them into the
    enclosing barrier window) to draw per-worker timelines.  Stamping is
    unconditional — two clock reads per task — and purely additive: the
    stamps never influence results, ordering or the ledger.
    """
    monotonic_ns = time.monotonic_ns  # repro: allow[DET002] worker timeline stamps are variant-scoped, never in the ledger
    try:
        while True:
            try:
                task = conn.recv()
            except EOFError:
                return
            if task == _STOP:
                return
            start_ns = monotonic_ns()
            try:
                result = ("ok", handler(task), (start_ns, monotonic_ns()))
            except BaseException as exc:
                result = (
                    "fail",
                    (
                        type(exc).__module__,
                        type(exc).__qualname__,
                        safe_message(exc),
                    ),
                )
            try:
                conn.send(result)
            except (BrokenPipeError, OSError):
                return
    finally:
        conn.close()


class ForkShardPool:
    """Shards run concurrently: shard 0 by the caller, the rest forked.

    ``handlers[i]`` is a callable (typically a closure over the instance's
    immutable state plus shard ``i``'s mutable units) executed for every
    task shard ``i`` receives.  The caller's process runs ``handlers[0]``;
    every later handler gets one persistent fork-inherited worker.  The
    pool is a context manager; exiting it shuts the workers down.  One
    :meth:`step` is one barrier: the workers receive their tasks, the
    caller runs an optional ``overlap`` step and shard 0 meanwhile, and
    every result is collected before the caller proceeds — the
    process-level analogue of the model's synchronous round.

    The model's machines never fail, and neither may a worker: a worker
    that dies (killed, segfaulted) tears the pool down and surfaces as
    :class:`WorkerCrashError`, with no child process left behind.
    """

    def __init__(
        self,
        handlers: Sequence[Callable[[Any], Any]],
        *,
        tracer: Any = None,
    ) -> None:
        if not handlers:
            raise ValueError("pool needs at least one shard handler")
        if not fork_available():  # pragma: no cover - platform-specific
            raise RuntimeError(
                "ForkShardPool requires the 'fork' start method; callers "
                "must fall back to serial execution on this platform"
            )
        self._handlers = list(handlers)
        #: Optional :class:`repro.trace.TraceRecorder`: barrier windows on
        #: the main track, compute intervals on per-shard tracks (tid
        #: ``shard+1``) and fork markers.  Observation only.
        self.tracer = tracer
        self._conns: list[Any] = []
        self._procs: list[Any] = []
        self._step_index = 0
        if tracer is not None:
            tracer.name_thread(1, "shard-0")
        try:
            self._spawn()
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "ForkShardPool":
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self.close()

    def __len__(self) -> int:
        """Live forked workers (shard 0 runs in the caller's process)."""
        return len(self._procs)

    @property
    def shards(self) -> int:
        """Shard count (stable across close/teardown, unlike ``len``)."""
        return len(self._handlers)

    def _spawn(self) -> None:
        ctx = multiprocessing.get_context("fork")
        tracer = self.tracer
        for index in range(1, len(self._handlers)):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_main,
                args=(child_conn, self._handlers[index]),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
            if tracer is not None:
                tracer.name_thread(index + 1, f"shard-{index}")
                tracer.instant(
                    "worker.fork",
                    tid=index + 1,
                    cat="pool",
                    worker_pid=proc.pid,
                )

    def _teardown_procs(self) -> None:
        """Terminate and join every child, close every pipe; no zombies."""
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.kill()
                proc.join(timeout=5)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already gone
                pass
        self._conns = []
        self._procs = []

    def _send(self, tasks: Sequence[Any]) -> None:
        """Hand worker ``i`` (shard ``i + 1``) its task ``tasks[i]``."""
        for index, (conn, task) in enumerate(zip(self._conns, tasks), 1):
            try:
                conn.send(task)
            except (BrokenPipeError, OSError) as exc:
                raise WorkerCrashError(
                    f"MPC shard worker {index} died before the barrier"
                ) from exc

    def _recv(self) -> tuple[list[Any], list[Any]]:
        """Each worker's result and compute stamps, in shard order."""
        results: list[Any] = []
        stamps: list[Any] = []
        failure: tuple[str, str, str] | None = None
        for index, conn in enumerate(self._conns, 1):
            try:
                message = conn.recv()
            except (EOFError, OSError) as exc:
                raise WorkerCrashError(
                    f"MPC shard worker {index} died mid-round"
                ) from exc
            if message[0] == "fail":
                # Keep draining the remaining pipes so the pool stays
                # usable for shutdown, then raise the first failure.
                failure = failure or message[1]
                continue
            results.append(message[1])
            stamps.append(message[2])
        if failure is not None:
            raise rebuild_exception(*failure)
        return results, stamps

    def _trace_barrier(
        self, start: int, label: str, stamps: Sequence[Any]
    ) -> None:
        """A barrier window, plus shard ``i``'s ``stamps[i]`` on tid i+1."""
        tracer = self.tracer
        end = tracer.now_ns()
        tracer.complete(
            "barrier", start, end, cat="pool", kind=label,
            step=self._step_index,
        )
        for index, stamp in enumerate(stamps):
            # Worker stamps share the parent's monotonic domain under
            # fork; the clamp into the barrier window guards skew.
            tracer.complete(
                label, stamp[0], stamp[1], tid=index + 1, cat="worker",
                clamp=(start, end),
            )

    def step(
        self, tasks: Sequence[Any], overlap: Callable[[], Any] | None = None
    ) -> list[Any]:
        """One barrier: one task per shard, one result per shard.

        In order: the workers get their tasks, ``overlap()`` runs (the
        compiled backend's window step), then shard 0, then the workers'
        results are collected.  If sending, ``overlap`` or shard 0
        raises, the workers are torn down before the error propagates;
        so are they when a worker died, which raises
        :class:`WorkerCrashError`.
        """
        if len(tasks) != len(self._handlers):
            raise ValueError(
                f"expected {len(self._handlers)} tasks, got {len(tasks)}"
            )
        if len(self._procs) != len(self._handlers) - 1:
            raise RuntimeError("the shard pool is closed")
        self._step_index += 1
        tracer = self.tracer
        start = tracer.now_ns() if tracer is not None else 0
        try:
            self._send(tasks[1:])
            if overlap is not None:
                overlap()
            first = tracer.now_ns() if tracer is not None else 0
            results = [self._handlers[0](tasks[0])]
        except BaseException:
            self._teardown_procs()
            raise
        stamps = [(first, tracer.now_ns())] if tracer is not None else []
        try:
            gathered, worker_stamps = self._recv()
        except WorkerCrashError:
            self._teardown_procs()
            raise
        if tracer is not None:
            self._trace_barrier(
                start, _task_kind(tasks) or "barrier", stamps + worker_stamps
            )
        return results + gathered

    def step_all(self, task: Any) -> list[Any]:
        """Broadcast one task to every shard (e.g. ``("start", None)``)."""
        return self.step([task] * len(self._handlers))

    def close(self) -> None:
        """Shut every worker down; idempotent."""
        for conn in self._conns:
            try:
                conn.send(_STOP)
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5)
        self._teardown_procs()


def _task_kind(tasks: Sequence[Any]) -> str | None:
    """The ``("kind", payload)`` tag of a barrier's tasks, if recognizable."""
    first = tasks[0] if tasks else None
    if isinstance(first, tuple) and first and isinstance(first[0], str):
        return first[0]
    return None
