"""The sharded (domain-decomposed) Jacobi steady-state solver.

:class:`ShardedJacobiSolver` is :class:`~repro.solvers.jacobi.JacobiSolver`
with its sweeps run by a pool of worker processes.  The DFS-ordered
state space is split into contiguous, nnz-balanced row blocks
(:func:`repro.multigpu.partition.partition_rows` — the same partition
contract the multi-GPU traffic model analyzes), one worker sweeps each
block, and only boundary/halo entries cross between them, through
shared-memory buffers.  It models the paper's multi-GPU extension
*executionally* where :mod:`repro.multigpu` models it analytically.

Only :meth:`~ShardedJacobiSolver.advance` changes: it copies the
iterate into shared buffer 0 and runs *k* globally synchronized sweep
epochs, ping-ponging between the two buffers.  Everything else —
renormalization, the residual check (SciPy's ``A @ x`` in the parent),
the extrapolated stop, guardrails, hooks and checkpoint/resume — is
:meth:`repro.solvers.base.IterativeSolverBase.solve`'s loop.  The
parent decides the sweep's peeled band once on the whole matrix
(:func:`~repro.backends.reference.band_offsets`) and ships it to every
worker, so the blocks' sweeps reassemble the serial sweep bit for bit
and results, histories and stop reasons are **bitwise equal** to the
serial solver's.

A worker that dies mid-sweep is respawned and the sweep re-run from
its input buffer, which no shard writes during a sweep, so the answer
stays bitwise serial.  A shard that dies twice in one sweep raises
:class:`~repro.errors.WorkerCrashError`.  The ``"shard.worker"`` fault
site kills or stalls worker processes to exercise this.
"""

from __future__ import annotations

import multiprocessing
import os

from repro.backends.reference import band_offsets
from repro.distributed import shm as S
from repro.distributed.plan import build_specs
from repro.distributed.worker import worker_main
from repro.errors import ValidationError, WorkerCrashError
from repro.solvers.jacobi import JacobiSolver
from repro.solvers.result import SolverResult
from repro.telemetry import tracing
from repro.telemetry.metrics import get_registry

#: Per-epoch watchdog: a pool that fails to acknowledge a sweep within
#: this many seconds raises :class:`~repro.errors.WorkerCrashError`
#: instead of hanging the solve.
WORKER_TIMEOUT_S = 120.0


class _ShardPool:
    """The worker pool: shared state, processes and the epoch protocol."""

    def __init__(self, solver: "ShardedJacobiSolver"):
        from repro.resilience.faults import active_injector

        self.shards = solver.shards
        backend = solver._active_backend or solver._select_backend()
        self.backend_name = backend.name
        # fork is cheap, but forking a live OpenMP runtime (libgomp
        # state does not survive fork) can deadlock — so spawn whenever
        # the workers will run a native (OpenMP) backend.
        fork = (backend.is_reference
                and "fork" in multiprocessing.get_all_start_methods())
        self._ctx = multiprocessing.get_context("fork" if fork else "spawn")
        injector = active_injector()
        plan_json = None
        if injector is not None and injector.plan.for_site("shard.worker"):
            plan_json = injector.plan.to_json()
        self.state = S.SharedState.create(solver.n, self.shards)
        self._epoch = 0
        self.respawns = 0
        self._procs = []
        try:
            data_name, ctrl_name = self.state.names
            self.parts, self._specs = build_specs(
                solver.A, solver.diagonal, shards=self.shards,
                band=band_offsets(solver.A), damping=solver.damping,
                backend=self.backend_name,
                data_name=data_name, ctrl_name=ctrl_name,
                parent_pid=os.getpid(), plan_json=plan_json)
            for spec in self._specs:
                self._procs.append(self._spawn(spec))
        except BaseException:
            self.shutdown()
            raise

    def _spawn(self, spec):
        proc = self._ctx.Process(target=worker_main, args=(spec,),
                                 daemon=True, name=f"repro-shard-{spec.shard}")
        proc.start()
        return proc

    def _respawn(self, shard: int) -> None:
        """Replace a dead worker; it waits for the next epoch."""
        self._procs[shard].join(timeout=1.0)
        spec = self._specs[shard]
        spec.start_epoch = self._epoch
        self._procs[shard] = self._spawn(spec)
        self.respawns += 1
        get_registry().counter(
            "shard_respawns_total",
            "shard workers respawned after a crash").inc()

    def _publish(self, cmd: int, read: int = 0) -> int:
        ctrl = self.state.ctrl
        self._epoch += 1
        ctrl[S.IDX_READ] = read
        ctrl[S.IDX_CMD] = cmd
        ctrl[S.IDX_EPOCH] = self._epoch  # release: command is now live
        return self._epoch

    def _await(self, epoch: int) -> int | None:
        """Wait for every shard to acknowledge *epoch*; return a shard
        whose worker died first, or ``None`` when all acknowledged."""
        done = self.state.done
        procs = self._procs
        lost: list[int] = []

        def dead() -> bool:
            lost.extend(i for i, proc in enumerate(procs)
                        if int(done[i]) < epoch and not proc.is_alive())
            return bool(lost)

        if S.wait_until(lambda: bool((done >= epoch).all()),
                        timeout_s=WORKER_TIMEOUT_S, abort=dead):
            return None
        if lost:
            return lost[0]
        pending = [i for i in range(self.shards) if int(done[i]) < epoch]
        raise WorkerCrashError(
            f"sharded epoch {epoch} timed out after {WORKER_TIMEOUT_S}s "
            f"waiting on shards {pending}")

    def sweep(self, read: int) -> None:
        """One sweep from ``x[read]`` into ``x[1 - read]``.

        No shard writes ``x[read]`` during a sweep, so a sweep a worker
        died in is re-run, after a respawn, on unchanged input.
        """
        died: set[int] = set()
        while True:
            lost = self._await(self._publish(S.CMD_SWEEP, read))
            if lost is None:
                return
            if lost in died:
                raise WorkerCrashError(
                    f"shard {lost} worker died twice in one sweep")
            died.add(lost)
            self._respawn(lost)

    def advance(self, x, k: int):
        self.state.x(0)[:] = x
        with tracing.span("shard.sweep", shards=self.shards, sweeps=k):
            for i in range(k):
                self.sweep(i % 2)
        return self.state.x(k % 2).copy()

    def info(self) -> dict:
        """Distribution telemetry attached as ``result.sharding``."""
        sweeps = [int(v) for v in self.state.sweeps]
        halo_bytes = [int(v) for v in self.state.halo_bytes]
        reg = get_registry()
        reg.counter("shard_sweeps_total",
                    "sweeps attempted by shard workers").inc(sum(sweeps))
        reg.counter("shard_halo_bytes_total",
                    "halo bytes gathered by shard workers"
                    ).inc(sum(halo_bytes))
        return {
            "shards": self.shards,
            "sync": "barrier",
            "backend": self.backend_name,
            "rows": [[p.row_start, p.row_stop] for p in self.parts],
            "sweeps": sweeps,
            "halo_bytes": halo_bytes,
            "respawns": self.respawns,
        }

    def shutdown(self) -> None:
        """Stop every worker, reap it and unlink the shared segments."""
        try:
            if any(p.is_alive() for p in self._procs):
                epoch = self._publish(S.CMD_STOP)
                done = self.state.done
                procs = self._procs
                S.wait_until(
                    lambda: all(int(done[i]) >= epoch or not p.is_alive()
                                for i, p in enumerate(procs)),
                    timeout_s=5.0)
        finally:
            for proc in self._procs:
                proc.join(timeout=2.0)
                if proc.is_alive():  # pragma: no cover - defensive
                    proc.terminate()
                    proc.join(timeout=1.0)
            self.state.close()


class ShardedJacobiSolver(JacobiSolver):
    """:class:`~repro.solvers.jacobi.JacobiSolver` on a shard pool.

    Takes every :class:`~repro.solvers.jacobi.JacobiSolver` option,
    plus:

    shards:
        Worker-process count; rows are split into this many
        contiguous, nnz-balanced blocks.  Must not exceed ``n``.
    sync:
        ``"barrier"``, the only mode: every sweep is globally
        synchronized.

    The pool uses the ``spawn`` start method when the workers run the
    native (OpenMP) backend and ``fork`` otherwise, and each worker
    runs one OpenMP thread.  ``result.sharding`` carries the
    distribution telemetry: the partition's row ranges, per-shard
    attempted sweeps and halo bytes, and the respawn count.
    """

    span_name = "sharded"

    #: The live worker pool, only during :meth:`solve`.
    _pool: _ShardPool | None = None

    def __init__(self, matrix, *, shards: int = 2, sync: str = "barrier",
                 **options):
        if sync != "barrier":
            raise ValidationError(
                f"unknown sync mode {sync!r}; expected 'barrier'")
        super().__init__(matrix, **options)
        shards = int(shards)
        if shards <= 0:
            raise ValidationError(f"shards must be positive, got {shards}")
        if shards > self.n:
            raise ValidationError(
                f"cannot split {self.n} rows across {shards} shards")
        self.shards = shards

    def advance(self, x, k: int):
        """*k* sweeps on the shard pool, started on the first call;
        bitwise equal to :meth:`JacobiSolver.advance`."""
        if self._pool is None:
            self._pool = _ShardPool(self)
        return self._pool.advance(x, k)

    def solve(self, x0=None, *, time_budget_s: float | None = None,
              hooks=None, guardrails=None,
              validate_x0: bool = True, checkpointer=None) -> SolverResult:
        """:meth:`IterativeSolverBase.solve` with the pool's lifetime
        around it.

        A warm start already within tolerance returns without starting
        the pool, and with ``result.sharding`` left ``None``.
        """
        try:
            result = super().solve(
                x0, time_budget_s=time_budget_s, hooks=hooks,
                guardrails=guardrails, validate_x0=validate_x0,
                checkpointer=checkpointer)
            result.sharding = (None if self._pool is None
                               else self._pool.info())
        finally:
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None
        return result
