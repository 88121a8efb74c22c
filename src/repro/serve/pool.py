"""A multi-process solver pool: K workers, K truly parallel solves.

The thread scheduler overlaps solves only while NumPy holds the GIL
released; every Python-level step (assembly bookkeeping, convergence
checks, small models where kernel time does not dominate) serializes.
:class:`ProcessSolverPool` moves the *solve itself* into worker
processes — the service keeps its thread scheduler, retry budget,
circuit breaker and journal exactly as before, but each worker thread
dispatches the inner solve to a dedicated process over a duplex pipe
and blocks for the reply.  The inner solve is one :class:`SolveTask`
run by :func:`run_task` — in the worker process here, in place on the
worker thread under the service's thread executor — so both executors
build and run a job's solver the same way.

Design points, mirroring :mod:`repro.distributed`:

*   **Start method.**  Derived from the backend: ``spawn`` whenever
    the workers will run a native (OpenMP) backend, because libgomp
    state does not survive a fork, and ``fork`` for the reference
    backend where the platform has it.
*   **Systems shipped by signature.**  A worker receives the CSR
    arrays of a linear system *once* per
    :meth:`~repro.serve.jobs.SolveRequest.matrix_key` and memoizes the
    rebuilt matrix (LRU, :data:`WORKER_SYSTEM_MEMO` entries); repeat
    submissions and retries send only the key.  If a worker evicted
    (or, fresh from a respawn, never saw) a system it answers
    ``need-system`` and the parent re-ships — at most one round trip.
*   **Crash containment.**  A dead worker (injected ``serve.pool``
    kill, OOM, segfault in a native kernel) surfaces as
    :class:`~repro.errors.WorkerCrashError` — already retryable in the
    scheduler — and the pool respawns the process before the retry can
    land on it.  Fault directives travel *with the task* (the
    process-global injector does not cross process boundaries): the
    parent consumes the schedule via
    :meth:`~repro.resilience.faults.FaultInjector.scheduled`, so
    one-shot kills do not refire after a respawn.
*   **One OpenMP thread per worker** (``REPRO_POOL_OMP_THREADS`` to
    override): the pool already runs one process per slot, and nested
    OMP teams would thrash an oversubscribed host.

A pool may be **shared across services** (e.g. one service per model,
one pool per host): dispatch is thread-safe, workers are checked out
of an idle queue, and systems are memoized per worker regardless of
which service shipped them.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import queue
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro import backends
from repro.errors import (
    SingularSystemError,
    SolveJobError,
    ValidationError,
    WorkerCrashError,
)
from repro.resilience.faults import active_injector
from repro.solvers.result import SolverResult, StopReason

__all__ = ["ProcessSolverPool", "SolveTask", "run_task", "worker_main"]

#: Rebuilt systems memoized per worker process (matches the parent's
#: matrix memo, so steady-state traffic never re-ships).
WORKER_SYSTEM_MEMO = 64


@dataclass
class SolveTask:
    """One serve solve, picklable for the trip to a pool worker."""

    method: str
    tol: float
    max_iterations: int
    options: dict
    x0: np.ndarray | None = None
    time_budget_s: float | None = None


def run_task(A, task: SolveTask) -> SolverResult:
    """Build the solver for *task* on the rate matrix *A* and solve.

    The one place a serve job's solver is constructed: a pool worker
    calls it on its memoized system, the thread executor in place.
    """
    # Imported on first use: a spawned worker pins its OpenMP thread
    # count before any kernel library loads.
    from repro.solvers import SOLVER_REGISTRY

    solver = SOLVER_REGISTRY[task.method](
        A, tol=task.tol, max_iterations=task.max_iterations,
        **task.options)
    return solver.solve(x0=task.x0, time_budget_s=task.time_budget_s)


def _result_payload(result) -> dict:
    """A :class:`SolverResult` flattened for the pipe (history dropped —
    it can be large and nothing on the serve path reads it)."""
    return {
        "x": np.asarray(result.x),
        "iterations": int(result.iterations),
        "residual": float(result.residual),
        "stop_reason": result.stop_reason.value,
        "runtime_s": float(result.runtime_s),
    }


def worker_main(conn, backend_name: str | None, parent_pid: int) -> None:
    """Entry point of one pool worker process (module-level: picklable
    under both fork and spawn)."""
    # Pin before any kernel library loads (effective under spawn; under
    # fork the parent's runtime is inherited, which is why the pool
    # spawns whenever a native backend is in play).
    os.environ["OMP_NUM_THREADS"] = os.environ.get(
        "REPRO_POOL_OMP_THREADS", "1")
    import scipy.sparse as sp

    systems: OrderedDict[str, object] = OrderedDict()
    while True:
        try:
            if not conn.poll(0.2):
                if os.getppid() != parent_pid:
                    os._exit(2)  # orphaned: the parent died
                continue
            msg = conn.recv()
        except (EOFError, OSError):
            os._exit(0)
        op = msg[0]
        if op == "stop":
            conn.close()
            os._exit(0)
        if op == "system":
            _, key, shape, indptr, indices, data = msg
            systems[key] = sp.csr_matrix((data, indices, indptr),
                                         shape=shape)
            systems.move_to_end(key)
            while len(systems) > WORKER_SYSTEM_MEMO:
                systems.popitem(last=False)
            continue
        if op != "solve":  # pragma: no cover - protocol defensive
            conn.send(("error", {"error": "ProtocolError",
                                 "message": f"unknown op {op!r}"}))
            continue
        _, key, task, fault = msg
        if fault is not None:
            if fault.get("kind") == "kill":
                os._exit(1)
            time.sleep(float(fault.get("delay_s", 0.0)))
        A = systems.get(key)
        if A is None:
            conn.send(("need-system", key))
            continue
        systems.move_to_end(key)
        task.options.setdefault("backend", backend_name)
        try:
            conn.send(("ok", _result_payload(run_task(A, task))))
        except Exception as exc:  # noqa: BLE001 - marshalled to parent
            err = {"error": type(exc).__name__, "message": str(exc)}
            rows = getattr(exc, "rows", None)
            if rows is not None:
                err["rows"] = list(rows)
            try:
                conn.send(("error", err))
            except (OSError, BrokenPipeError):
                os._exit(0)


class _WorkerHandle:
    """Parent-side view of one worker: process, pipe, shipped systems."""

    __slots__ = ("idx", "proc", "conn", "shipped")

    def __init__(self, idx: int):
        self.idx = idx
        self.proc = None
        self.conn = None
        self.shipped: set[str] = set()


class ProcessSolverPool:
    """K solver worker processes behind an idle-checkout queue.

    Parameters
    ----------
    workers:
        Process count.
    backend:
        Kernel backend the workers will run (drives the fork/spawn
        choice, reported as ``stats["start_method"]``, and is folded
        into each task's solver options as the default).  ``None``
        resolves the ambient default.
    on_respawn:
        Optional hook fired after a dead worker is replaced (the
        service counts these as ``pool_respawns``).
    """

    def __init__(self, workers: int = 2, *, backend: str | None = None,
                 name: str = "serve-pool", on_respawn=None):
        if workers <= 0:
            raise ValidationError(
                f"workers must be positive, got {workers}")
        self.name = str(name)
        self.on_respawn = on_respawn
        resolved = backends.resolve(backend)
        self.backend_name = resolved.name
        # fork is cheap, but forking a live OpenMP runtime (libgomp
        # state does not survive fork) can deadlock — so spawn whenever
        # the workers will run a native backend.
        self.start_method = (
            "fork" if resolved.is_reference
            and "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        self._ctx = multiprocessing.get_context(self.start_method)
        self.workers = int(workers)
        self.respawns = 0
        self.dispatches = 0
        self.systems_shipped = 0
        self._lock = threading.Lock()
        self._closed = False
        self._handles = [_WorkerHandle(i) for i in range(self.workers)]
        for handle in self._handles:
            try:
                self._start_worker(handle)
            except BaseException:
                # No pool object reaches the caller, so nothing else
                # could ever stop the workers already running.
                self._stop_workers(self._handles[:handle.idx])
                raise
        self._idle: "queue.Queue[_WorkerHandle]" = queue.Queue()
        for handle in self._handles:
            self._idle.put(handle)

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "ProcessSolverPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _start_worker(self, handle: _WorkerHandle) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, self.backend_name, os.getpid()),
            daemon=True, name=f"{self.name}-{handle.idx}")
        proc.start()
        child_conn.close()  # our copy of the child end; EOF must propagate
        handle.proc = proc
        handle.conn = parent_conn
        handle.shipped = set()

    def _respawn(self, handle: _WorkerHandle) -> None:
        proc = handle.proc
        if proc.is_alive():  # pragma: no cover - defensive
            proc.terminate()
        proc.join(timeout=2.0)
        with contextlib.suppress(OSError):
            handle.conn.close()
        self._start_worker(handle)
        with self._lock:
            self.respawns += 1
        if self.on_respawn is not None:
            self.on_respawn()

    def close(self) -> None:
        """Stop every worker (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._stop_workers(self._handles)

    @staticmethod
    def _stop_workers(handles: list[_WorkerHandle]) -> None:
        """Ask each worker to stop, then join it (terminating stragglers)."""
        for handle in handles:
            with contextlib.suppress(OSError):
                handle.conn.send(("stop",))
        for handle in handles:
            handle.proc.join(timeout=2.0)
            if handle.proc.is_alive():
                handle.proc.terminate()
                handle.proc.join(timeout=2.0)
            with contextlib.suppress(OSError):
                handle.conn.close()

    @property
    def stats(self) -> dict:
        with self._lock:
            return {"workers": self.workers,
                    "start_method": self.start_method,
                    "dispatches": self.dispatches,
                    "systems_shipped": self.systems_shipped,
                    "respawns": self.respawns}

    # -- dispatch ------------------------------------------------------------

    def run(self, system_key: str, matrix, task: SolveTask) -> SolverResult:
        """Run :func:`run_task` on a pool worker; blocks for the result.

        Raises :class:`WorkerCrashError` if the worker dies mid-solve
        (after respawning it) and reconstructs solver-side exceptions
        (:class:`SingularSystemError` with its rows, validation
        errors) in the parent.
        """
        return self._to_result(self._dispatch(system_key, matrix, task))

    def solve(self, *, system_key: str, matrix, method: str, tol: float,
              max_iterations: int, options, x0=None,
              time_budget_s: float | None = None) -> SolverResult:
        """Run one solve on a pool worker; blocks for the result."""
        return self.run(system_key, matrix, SolveTask(
            method=method, tol=float(tol),
            max_iterations=int(max_iterations), options=dict(options),
            x0=x0, time_budget_s=time_budget_s))

    def _checkout(self) -> _WorkerHandle:
        while True:
            if self._closed:
                raise SolveJobError("solver pool is closed")
            try:
                return self._idle.get(timeout=0.2)
            except queue.Empty:
                continue

    def _dispatch(self, system_key: str, matrix, task: SolveTask):
        handle = self._checkout()
        try:
            with self._lock:
                self.dispatches += 1
            fault = None
            injector = active_injector()
            if injector is not None and injector.active_for("serve.pool"):
                spec = injector.scheduled(
                    "serve.pool", detail=f"worker {handle.idx}")
                if spec is not None:
                    fault = {"kind": spec.kind, "delay_s": spec.delay_s}
            for _attempt in range(2):  # one re-ship round trip at most
                try:
                    if system_key not in handle.shipped:
                        handle.conn.send(self._system_message(
                            system_key, matrix))
                        handle.shipped.add(system_key)
                        with self._lock:
                            self.systems_shipped += 1
                    handle.conn.send(("solve", system_key, task, fault))
                    reply = self._recv(handle)
                except (EOFError, OSError, BrokenPipeError) as exc:
                    pid = handle.proc.pid
                    self._respawn(handle)
                    raise WorkerCrashError(
                        f"pool worker {handle.idx} (pid {pid}) died "
                        f"mid-solve") from exc
                if reply[0] == "need-system":
                    # The worker evicted (or never saw) the system —
                    # e.g. it is fresh from a respawn; re-ship and retry.
                    handle.shipped.discard(system_key)
                    continue
                if reply[0] == "error":
                    self._raise_worker_error(reply[1])
                return reply[1]
            raise WorkerCrashError(
                f"pool worker {handle.idx} kept rejecting system "
                f"{system_key[:12]} after a re-ship")
        finally:
            self._idle.put(handle)

    def _recv(self, handle: _WorkerHandle):
        """Wait for a reply, detecting worker death while waiting."""
        while True:
            if handle.conn.poll(0.1):
                return handle.conn.recv()  # EOFError on a torn pipe
            if not handle.proc.is_alive():
                if handle.conn.poll(0):
                    return handle.conn.recv()
                raise EOFError("worker exited without replying")

    @staticmethod
    def _system_message(key: str, matrix):
        return ("system", key, tuple(matrix.shape),
                np.asarray(matrix.indptr), np.asarray(matrix.indices),
                np.asarray(matrix.data))

    @staticmethod
    def _to_result(payload: dict) -> SolverResult:
        return SolverResult(
            x=payload["x"], iterations=payload["iterations"],
            residual=payload["residual"],
            stop_reason=StopReason(payload["stop_reason"]),
            residual_history=[], runtime_s=payload["runtime_s"])

    @staticmethod
    def _raise_worker_error(payload: dict) -> None:
        import repro.errors as errors_mod

        name = payload.get("error", "")
        message = payload.get("message", "pool worker error")
        if name == "SingularSystemError":
            raise SingularSystemError(message, rows=payload.get("rows"))
        cls = getattr(errors_mod, name, None)
        if isinstance(cls, type) and issubclass(cls, Exception):
            try:
                exc = cls(message)
            except TypeError:  # pragma: no cover - exotic signature
                exc = None
            if exc is not None:
                raise exc
        raise SolveJobError(f"pool worker error ({name}): {message}")
