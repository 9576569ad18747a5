"""Process-parallel execution of one MPC instance's machines.

The simulator historically ran every machine of an instance machine-major
in a single interpreter: a 16-machine simulation got zero hardware
parallelism (the sweep pool only parallelizes *across* cells).  This
module supplies the missing layer — a pool of **shards**, each owning a
fixed subset of the instance's machines, executing their local per-round
computation concurrently (shard 0 in the caller's process, each other
shard in a forked worker) while every metered shuffle stays a barrier in
the parent process, overlapped with the workers' round where it can.

The plumbing deliberately mirrors the sweep runner's fork/pickle-once
discipline (:mod:`repro.sweep.runner`): the immutable instance state —
graph, partition, compiled programs/algorithms — crosses into the workers
exactly once at fork time (inherited copy-on-write under the ``fork``
start method, the same mechanism that ships the runner's prewarmed graph
cache), and only small mutable per-round deltas cross the pipes
afterwards: inboxes (native programs) or the round's metered send
batches (compiled CONGEST) down, ``(sends, stats-delta, finished)``
fragments up.  Platforms without ``fork`` fall back to the serial path
rather than paying a per-round pickle of the whole instance.

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
canonically :class:`~repro.mpc.machine.MemoryBudgetExceeded` from a
``Machine.charge`` during ``on_round`` — is shipped back as ``(unit id,
exception module, qualname, message)`` and re-raised in the parent as the
*same* exception type with the *same* message, never as a pickling or
``BrokenProcessPool`` error.  When several units fail in one round the
parent raises the smallest unit id's error: per-round unit computations
are independent, so that is exactly the error the serial ascending-id
loop would have hit first.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import signal
import time
import warnings
from collections.abc import Callable, Sequence
from typing import Any

#: Environment override for the default worker count: a
#: :class:`~repro.mpc.options.RunOptions` built without an explicit
#: ``workers`` resolves it from this variable (then falls back to 1, the
#: serial path).  Because the value is read when the options are built,
#: exporting it turns a whole sweep parallel without touching any cell
#: coordinates — which is how the parity acceptance gate runs one grid at
#: several worker counts and byte-compares the ledgers.
WORKERS_ENV_VAR = "REPRO_MPC_WORKERS"

#: Successful barriers between shard-state checkpoints of a recovering
#: pool.  Each checkpoint is an extra pipe round-trip, so the interval
#: trades steady-state overhead against replay length on crash: a crash
#: re-executes at most this many barriers of (deterministic) local
#: computation, and since every metered shuffle runs parent-side, no
#: shuffle is ever replayed whatever the interval.
CHECKPOINT_INTERVAL = 6

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

    **Crash recovery.**  A pool with a fault ``injector``
    (:class:`~repro.faults.inject.FaultInjector`) recovers from worker
    crashes.  Only forked shards can crash, so only they are checkpointed
    and replayed: every :data:`CHECKPOINT_INTERVAL`-th successful barrier
    is followed by a ``("checkpoint", None)`` broadcast to the workers,
    whose per-shard state blobs the parent retains (pipe pickling makes
    them deep copies for free); the workers' barrier tasks in between are
    recorded for replay.  A :class:`WorkerCrashError` then tears down
    every child, respawns fresh forks, replays ``("restore", blob)`` plus
    the recorded barriers (local computation is deterministic, so the
    replay reproduces the pre-crash state exactly) and retries the
    workers' half of the interrupted barrier.  Workers re-execute at most
    :data:`CHECKPOINT_INTERVAL` barriers of local computation, and since
    every metered shuffle happens parent-side, no shuffle is ever
    replayed: the ledger of a recovered run is byte-identical to a
    fault-free one.  After the plan's ``max_recoveries`` crashes the pool
    restores checkpoint-plus-replay onto the parent-side handlers and
    degrades to in-process serial execution, surfacing a
    :class:`~repro.faults.recovery.DegradedExecutionWarning`.

    **Fault injection.**  The ``injector`` gets a
    ``before_step(pool, step_index)`` callback at the top of every
    external :meth:`step`, before any task is sent.  Without one the pool
    neither injects nor checkpoints, and a worker crash tears the pool
    down and propagates.
    """

    def __init__(
        self,
        handlers: Sequence[Callable[[Any], Any]],
        injector: Any = None,
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
        self._injector = injector
        #: Optional :class:`repro.trace.TraceRecorder`: barrier windows on
        #: the main track, compute intervals on per-shard tracks (tid
        #: ``shard+1``), fork/checkpoint/restore/replay/degrade markers,
        #: and the injector's fault markers.  Observation only.
        self.tracer = tracer
        self._conns: list[Any] = []
        self._procs: list[Any] = []
        self._checkpoints: list[Any] | None = None
        #: Workers' barrier tasks since the last checkpoint (for replay).
        self._history: list[list[Any]] = []
        self._steps_since_checkpoint = 0
        self._step_index = 0
        self._recoveries = 0
        self._degraded = False
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

    @property
    def degraded(self) -> bool:
        """Whether the pool fell back to in-process serial execution."""
        return self._degraded

    @property
    def recoveries(self) -> int:
        """Crash recoveries performed so far (including the degrading one)."""
        return self._recoveries

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

    def kill_worker(self, index: int) -> bool:
        """SIGKILL shard ``index``'s worker (fault injection entry point).

        Shard 0 runs in the caller's process, so it has no worker to kill.
        """
        if self._degraded or not (1 <= index <= len(self._procs)):
            return False
        proc = self._procs[index - 1]
        if proc.pid is None or not proc.is_alive():
            return False
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=5)
        return True

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
            if stamp is not None:
                # Worker stamps share the parent's monotonic domain under
                # fork; the clamp into the barrier window guards skew.
                tracer.complete(
                    label, stamp[0], stamp[1], tid=index + 1, cat="worker",
                    clamp=(start, end),
                )

    def _barrier(self, tasks: Sequence[Any], label: str) -> list[Any]:
        """Workers-only barrier (checkpoint, restore, replay)."""
        start = self.tracer.now_ns() if self.tracer is not None else 0
        self._send(tasks)
        results, stamps = self._recv()
        if self.tracer is not None:
            self._trace_barrier(start, label, [None, *stamps])
        return results

    def _checkpoint(self) -> None:
        self._checkpoints = self._barrier(
            [("checkpoint", None)] * len(self._conns), "checkpoint"
        )
        self._history = []
        self._steps_since_checkpoint = 0

    def _after_barrier(self, tasks: Sequence[Any]) -> None:
        """Checkpoint every :data:`CHECKPOINT_INTERVAL` barriers, else record.

        Between checkpoints the barrier tasks are retained: local
        computation is deterministic, so replaying them against the last
        checkpoint reproduces the exact pre-crash state without paying a
        pipe round-trip on every step.
        """
        self._steps_since_checkpoint += 1
        if self._steps_since_checkpoint >= CHECKPOINT_INTERVAL:
            self._checkpoint()
        else:
            self._history.append(list(tasks))

    def _respawn(self) -> None:
        """Fresh forks replayed to the last completed barrier's state.

        The parent never runs a forked shard's handler during a parallel
        run (workers advance copy-on-write copies; the parent mirrors
        state back only at finalize), so a fresh fork *is* the pre-run
        state — ``restore`` with the last checkpoint blob brings it to
        the last checkpointed barrier (with no checkpoint yet the fresh
        fork is already that base), and replaying the retained barrier
        tasks since then (results discarded — the parent already
        consumed them) reproduces the pre-crash state exactly.
        """
        tracer = self.tracer
        respawn_start = tracer.now_ns() if tracer is not None else 0
        self._spawn()
        if self._checkpoints is not None:
            self._barrier(
                [("restore", blob) for blob in self._checkpoints], "restore"
            )
        for tasks in self._history:
            self._barrier(tasks, "replay")
        if tracer is not None:
            tracer.complete(
                "recovery.respawn",
                respawn_start,
                tracer.now_ns(),
                cat="recovery",
                restored=self._checkpoints is not None,
                replayed=len(self._history),
            )

    def _degrade(self) -> None:
        """Fall back to in-process serial execution of the handlers."""
        self._degraded = True
        if self.tracer is not None:
            self.tracer.instant(
                "recovery.degrade", cat="recovery",
                recoveries=self._recoveries - 1,
            )
        forked = self._handlers[1:]
        if self._checkpoints is not None:
            for handler, blob in zip(forked, self._checkpoints):
                handler(("restore", blob))
        for tasks in self._history:
            for handler, task in zip(forked, tasks):
                handler(task)
        self._history = []
        self._injector.note_degraded()
        warnings.warn(
            f"MPC shard pool exceeded its recovery budget "
            f"({self._recoveries - 1} recoveries); degrading to in-process "
            f"serial execution (results and ledger are unaffected)",
            _degraded_warning_class(),
            stacklevel=6,
        )

    def _crashed(self) -> None:
        """A worker died: tear every child down, then recover or give up.

        Called while handling the :class:`WorkerCrashError`.  With an
        injector the pool respawns at its next send (or degrades once its
        budget is spent); without one the error propagates, and no zombie
        workers outlive the failure.
        """
        if self.tracer is not None:
            self.tracer.instant(
                "worker.crash-detected", cat="recovery",
                step=self._step_index,
            )
        self._teardown_procs()
        if self._injector is None:
            raise
        self._recoveries += 1
        self._injector.note_recovery()
        if self._recoveries > self._injector.plan.max_recoveries:
            self._degrade()

    def _post(self, tasks: Sequence[Any]) -> bool:
        """Send the workers their tasks; False if a crash intervened."""
        try:
            if not self._procs:
                self._respawn()
            self._send(tasks)
            return True
        except WorkerCrashError:
            self._crashed()
            return False

    def step(
        self, tasks: Sequence[Any], overlap: Callable[[], Any] | None = None
    ) -> list[Any]:
        """One barrier: one task per shard, one result per shard.

        In order: the injector's hook, the workers get their tasks,
        ``overlap()`` runs (the compiled backend's window step), then
        shard 0, then the workers' results are collected — their half of
        the barrier is retried after a crash.  If ``overlap`` or shard 0
        raises, the workers are torn down before the error propagates.
        """
        if len(tasks) != len(self._handlers):
            raise ValueError(
                f"expected {len(self._handlers)} tasks, got {len(tasks)}"
            )
        if self._injector is not None and not self._degraded:
            self._injector.before_step(self, self._step_index)
        self._step_index += 1
        tracer = self.tracer
        start = tracer.now_ns() if tracer is not None else 0
        forked = tasks[1:]
        posted = bool(forked) and not self._degraded and self._post(forked)
        try:
            if overlap is not None:
                overlap()
            first = tracer.now_ns() if tracer is not None else 0
            results = [self._handlers[0](tasks[0])]
            stamps = [(first, tracer.now_ns()) if tracer is not None else None]
        except BaseException:
            self._teardown_procs()
            raise
        while forked:
            if self._degraded:
                results += [
                    handler(task)
                    for handler, task in zip(self._handlers[1:], forked)
                ]
                break
            if not (posted or self._post(forked)):
                continue
            try:
                gathered, worker_stamps = self._recv()
                # Finalize is the last barrier of a run — nothing left
                # to recover to, so skip the checkpoint bookkeeping.
                if self._injector is not None and not _is_finalize(tasks):
                    self._after_barrier(forked)
            except WorkerCrashError:
                self._crashed()
                posted = False
                continue
            results += gathered
            stamps += worker_stamps
            break
        if tracer is not None:
            self._trace_barrier(start, _task_kind(tasks) or "barrier", stamps)
        return results

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


def _is_finalize(tasks: Sequence[Any]) -> bool:
    first = tasks[0] if tasks else None
    return isinstance(first, tuple) and bool(first) and first[0] == "finalize"


def _task_kind(tasks: Sequence[Any]) -> str | None:
    """The ``("kind", payload)`` tag of a barrier's tasks, if recognizable."""
    first = tasks[0] if tasks else None
    if isinstance(first, tuple) and first and isinstance(first[0], str):
        return first[0]
    return None


def _degraded_warning_class() -> type:
    # Imported lazily: repro.faults depends on repro.mpc.machine, and the
    # fault-free path should not pay the import at module load.
    from repro.faults.recovery import DegradedExecutionWarning

    return DegradedExecutionWarning


class ProgramShard:
    """Shard handler for native :class:`~repro.mpc.machine.MachineProgram`s.

    Owns the programs of its machine ids (ascending) and advances them one
    task at a time: ``("start", None)`` runs every ``on_start``;
    ``("round", {mid: inbox})`` runs every live program's ``on_round``.
    Returns outboxes (materialized — generators cannot cross a pipe),
    newly finished ``(mid, output)`` pairs, and at most one typed error.
    The final ``("finalize", None)`` ships the shard's program objects
    back so the parent can mirror their post-run state (a serial run
    mutates the caller's objects in place; the parallel path must look
    the same to callers that read program attributes afterwards).

    ``("checkpoint", None)`` snapshots the shard's mutable state — per
    program only ``machine.stored_words`` plus the program ``__dict__``
    (the frozen ``MachineSpec`` never crosses) — and ``("restore",
    blob)`` applies such a snapshot in place, keeping the existing
    ``machine``/spec objects.  Pipe pickling turns the snapshot into a
    deep copy on the parent side for free.
    """

    def __init__(
        self, programs: Sequence[Any], machine_ids: Sequence[int]
    ) -> None:
        self._programs = [(mid, programs[mid]) for mid in sorted(machine_ids)]

    def _checkpoint(self) -> list[tuple[int, int, dict[str, Any]]]:
        return [
            (
                mid,
                prog.machine.snapshot(),
                {k: v for k, v in prog.__dict__.items() if k != "machine"},
            )
            for mid, prog in self._programs
        ]

    def _restore(self, blob: Sequence[tuple[int, int, dict[str, Any]]]) -> None:
        for (mid, stored_words, state), (own_mid, prog) in zip(
            blob, self._programs
        ):
            if mid != own_mid:  # pragma: no cover - plumbing bug guard
                raise RuntimeError(
                    f"checkpoint blob for machine {mid} applied to {own_mid}"
                )
            prog.machine.restore(stored_words)
            for key in [k for k in prog.__dict__ if k != "machine"]:
                del prog.__dict__[key]
            prog.__dict__.update(state)

    def __call__(self, task: Any) -> dict[str, Any]:
        kind, inboxes = task
        if kind == "checkpoint":
            return self._checkpoint()
        if kind == "restore":
            self._restore(inboxes)
            return {"restored": len(self._programs), "error": None}
        if kind == "finalize":
            return {"programs": list(self._programs), "error": None}
        sent: list[tuple[int, list[Any]]] = []
        finished: list[tuple[int, Any]] = []
        error: tuple[int, str, str, str] | None = None
        for mid, prog in self._programs:
            if kind != "start" and prog.done:
                continue
            try:
                # "start" runs unconditionally, exactly like the serial
                # list comprehension over every program.
                if kind == "start":
                    outbox = prog.on_start()
                else:
                    outbox = prog.on_round(inboxes.get(mid, []))
                outbox = None if outbox is None else list(outbox)
            except Exception as exc:
                error = describe_error(mid, exc)
                break
            if outbox:
                sent.append((mid, outbox))
            if prog.done:
                finished.append((mid, prog.output))
        return {"outboxes": sent, "finished": finished, "error": error}
