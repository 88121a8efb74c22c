"""The sharded (domain-decomposed) Jacobi steady-state solver.

:class:`ShardedJacobiSolver` partitions the DFS-ordered state space
into contiguous, nnz-balanced row blocks
(:func:`repro.multigpu.partition.partition_rows` — the same partition
contract the multi-GPU traffic model analyzes) and runs one worker
process per block, exchanging only boundary/halo entries through
shared-memory buffers between sweeps.  It models the paper's
multi-GPU extension *executionally* where :mod:`repro.multigpu`
models it analytically.

Two synchronization modes:

``sync="barrier"``
    Every sweep is globally synchronized on the epoch protocol and the
    parent drives exactly the batch/renormalize/check/rollback loop of
    :meth:`repro.solvers.base.IterativeSolverBase.solve` — including
    the product-reuse step, in-loop renormalization cadence, guardrail
    checkpoints and the warm-start fast path — so the iterates (and
    therefore results, histories and stop reasons) are **bitwise
    equal** to the serial :class:`~repro.solvers.jacobi.JacobiSolver`.
    This is the correctness anchor the conformance suite pins.

``sync="chaotic"``
    Free-running chaotic relaxation (asynchronous iterations in the
    sense of Chazan-Miranker; cf. the Cormie-Bowins comparison of
    synchronous vs. asynchronous GPU relaxation in PAPERS.md): workers
    sweep in place against whatever halo values their peers last
    published, with no global sync.  Each shard reports its block
    residual/iterate norms; the parent aggregates them into a global
    residual *estimate* and, when it looks converged (or a check is
    due), pauses the pool, renormalizes, and runs a true synchronized
    residual check before stopping — so a ``CONVERGED`` result always
    satisfies the serial tolerance even though intermediate iterates
    are nondeterministic.  Per-shard staleness counters record how far
    ahead of the slowest peer each shard ran.

Resilience reuses the existing machinery: guardrail checkpoints and
rollback cover shard results exactly as in the serial loop,
``solver.iterate`` corruptions apply to the shared iterate, and the
``"shard.worker"`` fault site kills/stalls worker processes — a killed
worker is respawned and the iterate rolled back to the last
checkpoint (counted against ``GuardrailPolicy.max_recoveries``).
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np

from repro import backends
from repro.distributed import shm as S
from repro.distributed.plan import build_specs
from repro.distributed.worker import worker_main
from repro.errors import SingularSystemError, ValidationError, \
    WorkerCrashError
from repro.solvers.base import IterativeSolverBase
from repro.solvers.normalization import renormalize
from repro.solvers.result import SolverResult, StopReason
from repro.solvers.stopping import StoppingCriterion
from repro.sparse.base import as_csr
from repro.telemetry import tracing
from repro.telemetry.metrics import get_registry

SYNC_MODES = ("barrier", "chaotic")

#: Environment override for the worker start method ("fork"/"spawn").
START_ENV_VAR = "REPRO_SHARD_START"


class _WorkerLost(RuntimeError):
    """Internal: a worker process died mid-epoch (carries the shard)."""

    def __init__(self, shard: int):
        super().__init__(f"shard {shard} worker died")
        self.shard = shard


class _ShardPool:
    """The worker pool: shared state, processes and the epoch protocol."""

    def __init__(self, solver, plan_json: str | None):
        self.n = solver.n
        self.shards = solver.shards
        self.timeout_s = solver.worker_timeout_s
        resolved = backends.resolve(solver.backend)
        self.backend_name = resolved.name
        method = solver.start_method or os.environ.get(START_ENV_VAR)
        if method is None:
            # fork is cheap, but forking a live OpenMP runtime (libgomp
            # state does not survive fork) can deadlock — so spawn
            # whenever the workers will run a native (OpenMP) backend.
            if not resolved.is_reference:
                method = "spawn"
            elif "fork" in multiprocessing.get_all_start_methods():
                method = "fork"
            else:
                method = "spawn"
        self.start_method = method
        self._ctx = multiprocessing.get_context(method)
        self.state = S.SharedState.create(self.n, self.shards)
        data_name, ctrl_name = self.state.names
        self.parts, self._specs = build_specs(
            solver.A, solver.diagonal, shards=self.shards,
            damping=solver.damping,
            max_iterations=solver.max_iterations,
            backend=self.backend_name,
            data_name=data_name, ctrl_name=ctrl_name,
            parent_pid=os.getpid(), plan_json=plan_json)
        self._epoch = 0
        self.respawns = 0
        self._procs = [self._spawn(spec) for spec in self._specs]

    def _spawn(self, spec):
        proc = self._ctx.Process(target=worker_main, args=(spec,),
                                 daemon=True, name=f"repro-shard-{spec.shard}")
        proc.start()
        return proc

    def respawn(self, shard: int, *, rejoin_current: bool = False) -> None:
        """Replace a dead worker.

        ``rejoin_current`` makes the replacement treat the *current*
        epoch as unseen (chaotic mode: it re-enters the free-run the
        parent never re-publishes); barrier mode waits for the next.
        """
        old = self._procs[shard]
        if old.is_alive():  # pragma: no cover - defensive
            old.terminate()
        old.join(timeout=1.0)
        spec = self._specs[shard]
        spec.start_epoch = self._epoch - 1 if rejoin_current else self._epoch
        self._procs[shard] = self._spawn(spec)
        self.respawns += 1

    # -- epoch protocol ---------------------------------------------------

    def publish(self, cmd: int, read: int = 0) -> int:
        ctrl = self.state.ctrl
        self._epoch += 1
        ctrl[S.IDX_READ] = read
        ctrl[S.IDX_CMD] = cmd
        ctrl[S.IDX_EPOCH] = self._epoch  # release: command is now live
        return self._epoch

    def await_all(self) -> None:
        """Wait for every shard to acknowledge the current epoch."""
        epoch = self._epoch
        done = self.state.done
        procs = self._procs
        lost: list[int] = []

        def acked() -> bool:
            return bool((done >= epoch).all())

        def dead() -> bool:
            for i, proc in enumerate(procs):
                if int(done[i]) < epoch and not proc.is_alive():
                    lost.append(i)
                    return True
            return False

        if S.wait_until(acked, timeout_s=self.timeout_s, abort=dead):
            return
        if lost:
            raise _WorkerLost(lost[0])
        pending = [i for i in range(self.shards) if int(done[i]) < epoch]
        raise WorkerCrashError(
            f"sharded epoch {epoch} timed out after {self.timeout_s}s "
            f"waiting on shards {pending}")

    def epoch(self, cmd: int, read: int = 0) -> None:
        self.publish(cmd, read)
        self.await_all()

    def dead_shards(self) -> list[int]:
        return [i for i, p in enumerate(self._procs) if not p.is_alive()]

    # -- teardown ---------------------------------------------------------

    def shutdown(self) -> None:
        try:
            if any(p.is_alive() for p in self._procs):
                epoch = self.publish(S.CMD_STOP)
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


class ShardedJacobiSolver(IterativeSolverBase):
    """Domain-decomposed Jacobi over a multi-process shard pool.

    Parameters mirror :class:`~repro.solvers.jacobi.JacobiSolver`
    (``tol``, ``max_iterations``, ``check_interval``,
    ``normalize_interval``, ``stagnation_tol``, ``damping``,
    ``backend``) plus:

    shards:
        Worker-process count; rows are split into this many
        contiguous, nnz-balanced blocks.  Must not exceed ``n``.
    sync:
        ``"barrier"`` (bitwise-equal to serial Jacobi) or
        ``"chaotic"`` (asynchronous relaxation on stale halos) — see
        the module docstring.
    start_method:
        Multiprocessing start method override (``"fork"``/``"spawn"``;
        also via the ``REPRO_SHARD_START`` env var).  Default: fork
        for reference backends, spawn when workers run the native
        (OpenMP) backend.
    worker_timeout_s:
        Per-epoch watchdog; a pool that fails to acknowledge within
        this window raises :class:`~repro.errors.WorkerCrashError`
        instead of hanging the solve.
    respawn_budget:
        Elastic degradation: how many times any single shard may be
        respawned before the solver stops trusting that slot and
        **re-partitions onto one fewer shard** (from the last guardrail
        checkpoint) instead of respawning forever — a host that keeps
        OOM-killing one worker degrades to a smaller, working pool.
        ``None`` (default) keeps the legacy respawn-until-guardrail-
        budget behaviour; degradations stop at ``min_shards``, below
        which a crashed worker raises
        :class:`~repro.errors.WorkerCrashError`.
    min_shards:
        Floor of the degradation ladder (default 1: a single surviving
        shard finishes the solve alone).

    ``result.sharding`` carries the distribution telemetry: per-shard
    attempted sweeps, halo traffic, staleness (chaotic), respawn count
    and the partition geometry.  In chaotic mode hooks fire once per
    *verification* (with the measured residual), not once per sweep —
    free-running shards have no global iteration to report.
    """

    span_name = "sharded"

    def __init__(self, matrix, *, tol: float = 1e-8,
                 max_iterations: int = 1_000_000,
                 check_interval: int = 100,
                 normalize_interval: int = 10,
                 stagnation_tol: float | None = 1e-6,
                 shards: int = 2,
                 sync: str = "barrier",
                 damping: float = 1.0,
                 backend=None,
                 start_method: str | None = None,
                 worker_timeout_s: float = 120.0,
                 respawn_budget: int | None = None,
                 min_shards: int = 1):
        if sync not in SYNC_MODES:
            raise ValidationError(
                f"unknown sync mode {sync!r}; expected one of {SYNC_MODES}")
        if normalize_interval is None:
            raise ValidationError("intervals must be positive")
        if not (0.0 < damping <= 1.0):
            raise ValidationError(f"damping must be in (0, 1], got {damping}")
        shards = int(shards)
        if shards <= 0:
            raise ValidationError(f"shards must be positive, got {shards}")
        if start_method is not None and start_method not in \
                multiprocessing.get_all_start_methods():
            raise ValidationError(
                f"unknown start method {start_method!r}; expected one of "
                f"{multiprocessing.get_all_start_methods()}")
        A = (matrix.to_scipy() if hasattr(matrix, "to_scipy")
             else as_csr(matrix))
        self._init_common(A, tol=tol, max_iterations=max_iterations,
                          check_interval=check_interval,
                          normalize_interval=normalize_interval,
                          stagnation_tol=stagnation_tol)
        if shards > self.n:
            raise ValidationError(
                f"cannot split {self.n} rows across {shards} shards")
        self.diagonal = self._derived["diagonal"]
        zero_rows = np.flatnonzero(self.diagonal == 0.0)
        if zero_rows.size:
            raise SingularSystemError(
                "Jacobi iteration needs a nonzero diagonal "
                f"(zero at rows {zero_rows[:5].tolist()})",
                rows=zero_rows[:5].tolist())
        self.shards = shards
        self.sync = sync
        self.damping = float(damping)
        self.backend = backend
        if backend is not None:
            backends.resolve(backend)  # fail fast on unknown names
        self.start_method = start_method
        self.worker_timeout_s = float(worker_timeout_s)
        if respawn_budget is not None and int(respawn_budget) < 0:
            raise ValidationError(
                f"respawn_budget must be >= 0 (or None), got {respawn_budget}")
        self.respawn_budget = (None if respawn_budget is None
                               else int(respawn_budget))
        min_shards = int(min_shards)
        if not 1 <= min_shards <= shards:
            raise ValidationError(
                f"min_shards must be in [1, shards={shards}], "
                f"got {min_shards}")
        self.min_shards = min_shards
        self.supports_product_step = True

    def _select_backend(self):
        """Resolve the kernel backend the shard workers will run."""
        return backends.serving("", "jacobi_sweep", self.backend)

    # -- solve -------------------------------------------------------------

    def solve(self, x0=None, *, time_budget_s: float | None = None,
              hooks=None, guardrails=None,
              validate_x0: bool = True, checkpointer=None) -> SolverResult:
        """Solve on the shard pool (see :meth:`IterativeSolverBase.solve`).

        The pool is started lazily — a warm start already within
        tolerance returns without spawning a single worker.  With a
        ``checkpointer``, the *parent* writes durable epoch snapshots
        at residual-check boundaries (iterate + loop state + shard
        topology); a resumed barrier-mode solve replays bitwise
        identically, whatever the shard count on either side, because
        the partition only distributes arithmetic, never changes it.
        """
        from repro.resilience.faults import active_injector
        from repro.resilience.guardrails import (
            GuardrailPolicy,
            RecoveryReport,
            count_recovery,
        )

        x = self._initial_iterate(x0, validate=validate_x0)
        if time_budget_s is not None and time_budget_s <= 0:
            raise ValidationError(
                f"time_budget_s must be positive, got {time_budget_s}")
        if guardrails is False:
            policy = None
        elif guardrails is None:
            policy = GuardrailPolicy()
        else:
            policy = guardrails

        injector = active_injector()
        inject = injector is not None and injector.active_for(
            "solver.iterate")
        sweep_guard = policy is not None and (policy.sweep_check or inject)
        report = RecoveryReport() if (policy is not None or inject) else None
        plan_json = None
        if injector is not None and injector.plan.for_site("shard.worker"):
            plan_json = injector.plan.to_json()

        self._active_backend = self._select_backend()
        accel = (self._active_backend
                 if self._active_backend is not None
                 and not self._active_backend.is_reference else None)
        criterion = StoppingCriterion(
            self.matrix_inf_norm, tol=self.tol,
            max_iterations=self.max_iterations,
            stagnation_tol=self.stagnation_tol,
            backend=accel)
        history: list[tuple[int, float]] = []
        t0 = time.perf_counter()
        iteration = 0
        reason = StopReason.MAX_ITERATIONS
        residual = float("inf")
        checkpoint = x.copy() if policy is not None else None
        checkpoint_iteration = 0
        checks_done = 0
        recoveries = 0
        best_residual = float("inf")
        pool: _ShardPool | None = None
        cur = 0          # which iterate buffer holds the current x
        pending = False  # pool.state.y holds A @ x for the current x
        requested_shards = self.shards
        per_shard_respawns: dict[int, int] = {}
        degradations: list[dict] = []

        def rollback(kind: str) -> np.ndarray:
            nonlocal recoveries
            recoveries += 1
            report.rollbacks += 1
            report.record(iteration, kind, "rollback",
                          detail=f"checkpoint@{checkpoint_iteration}")
            count_recovery(kind, iteration)
            return checkpoint.copy()

        def x_cur() -> np.ndarray:
            return pool.state.x(cur)

        def write_cur(values: np.ndarray) -> None:
            pool.state.x(cur)[:] = values

        def degrade(dead_shard: int) -> None:
            """Re-partition onto one fewer shard (elastic degradation).

            The old pool is torn down and a fresh one built over
            ``shards - 1`` nnz-balanced blocks, seeded from the last
            guardrail checkpoint — the same iterate a plain respawn
            rolls back to, so barrier-mode bitwise parity with the
            serial solver survives the topology change (the partition
            distributes arithmetic, it does not alter it).
            """
            nonlocal pool, cur, pending
            old = pool
            x_snapshot = (checkpoint.copy() if checkpoint is not None
                          else old.state.x(cur).copy())
            entry = {
                "iteration": iteration,
                "dead_shard": dead_shard,
                "from_shards": old.shards,
                "to_shards": old.shards - 1,
                "sweeps": [int(v) for v in old.state.sweeps],
                "halo_bytes": [int(v) for v in old.state.halo_bytes],
            }
            prior_respawns = old.respawns
            old.shutdown()
            self.shards = old.shards - 1
            pool = _ShardPool(self, plan_json)
            pool.respawns = prior_respawns
            pool.state.x(0)[:] = x_snapshot
            # Carry the chaos clock (per-shard attempted-sweep counters)
            # across the topology change: fault schedules index it, and
            # a degrade must not rewind it or one-shot kills would
            # refire in the replacement pool.
            pool.state.sweeps[:] = max(entry["sweeps"], default=0)
            cur = 0
            pending = False
            per_shard_respawns.clear()
            degradations.append(entry)
            if report is not None:
                report.record(iteration, "worker-crash", "degrade",
                              detail=f"shard {dead_shard} exhausted its "
                                     f"respawn budget; re-partitioned "
                                     f"{entry['from_shards']} -> "
                                     f"{entry['to_shards']} shards")
            count_recovery("worker-crash", iteration)
            get_registry().counter(
                "shard_degradations_total",
                "shard pools re-partitioned onto fewer shards after a "
                "worker exhausted its respawn budget").inc()

        def handle_death(shard: int, *, rejoin_current: bool) -> bool:
            """Respawn a crashed worker, degrade the pool, or give up.

            Returns whether the pool was *degraded* (replaced by a
            smaller one) rather than respawned in place.
            """
            if report is not None:
                report.faults_seen += 1
            if policy is None or recoveries >= policy.max_recoveries:
                raise WorkerCrashError(
                    f"shard {shard} worker died and "
                    + ("guardrails are disabled" if policy is None
                       else "the recovery budget is exhausted"))
            if (self.respawn_budget is not None
                    and per_shard_respawns.get(shard, 0)
                    >= self.respawn_budget):
                if pool.shards <= self.min_shards:
                    raise WorkerCrashError(
                        f"shard {shard} worker died, its respawn budget "
                        f"({self.respawn_budget}) is exhausted and the "
                        f"pool is already at min_shards={self.min_shards}")
                degrade(shard)
                return True
            per_shard_respawns[shard] = per_shard_respawns.get(shard, 0) + 1
            pool.respawn(shard, rejoin_current=rejoin_current)
            get_registry().counter(
                "shard_respawns_total",
                "shard workers respawned after a crash").inc()
            return False

        def product_epoch() -> bool:
            """Run ``y = A @ x`` on the pool; False if a shard died."""
            nonlocal pending
            halo0 = int(pool.state.halo_bytes.sum())
            try:
                pool.epoch(S.CMD_PRODUCT, read=cur)
            except _WorkerLost as lost:
                handle_death(lost.shard, rejoin_current=False)
                write_cur(rollback("worker-crash"))
                pending = False
                return False
            with tracing.span(
                    "shard.halo_exchange", shards=self.shards,
                    bytes=int(pool.state.halo_bytes.sum()) - halo0):
                pass
            return True

        def barrier_loop() -> None:
            """Mirror of :meth:`IterativeSolverBase.solve`'s batch loop.

            Every numerical decision — step order, renormalization
            cadence, guard conditions, checkpoint/rollback points —
            replays the serial loop exactly, with the iterate living
            in the shared ping-pong buffers; that is what makes the
            iterates bitwise equal to :class:`JacobiSolver`'s.
            """
            nonlocal iteration, reason, residual, checkpoint, \
                checkpoint_iteration, checks_done, best_residual, \
                cur, pending
            norm_every = self.normalize_interval
            guarded = inject or sweep_guard
            while True:
                budget = min(self.check_interval,
                             self.max_iterations - iteration)
                aborted = False
                with tracing.span("shard.sweep", shards=self.shards,
                                  sweeps=budget, iteration=iteration):
                    for i in range(budget):
                        cmd = (S.CMD_STEP_FROM_Y if pending
                               else S.CMD_SWEEP)
                        pending = False
                        try:
                            pool.epoch(cmd, read=cur)
                        except _WorkerLost as lost:
                            handle_death(lost.shard, rejoin_current=False)
                            write_cur(rollback("worker-crash"))
                            aborted = True
                            break
                        cur = 1 - cur
                        iteration += 1
                        if inject:
                            corrupted, spec = injector.corrupt(
                                "solver.iterate", x_cur().copy(),
                                iteration)
                            if spec is not None:
                                write_cur(corrupted)
                                if report is not None:
                                    report.faults_seen += 1
                                    report.record(
                                        iteration, f"fault:{spec.kind}",
                                        "injected",
                                        detail="site solver.iterate")
                        if sweep_guard and not np.all(
                                np.isfinite(x_cur())):
                            if recoveries < policy.max_recoveries:
                                write_cur(rollback("nan-inf"))
                            else:
                                break  # batch-end check reports DIVERGED
                        renorm = (norm_every is not None
                                  and iteration % norm_every == 0)
                        if renorm:
                            if guarded:
                                xv = x_cur()
                                if (np.all(np.isfinite(xv))
                                        and xv.sum() > 0):
                                    write_cur(renormalize(xv))
                                else:
                                    renorm = False
                            else:
                                write_cur(renormalize(x_cur()))
                        if hooks is not None and i < budget - 1:
                            hooks.on_iteration(iteration, None, renorm)
                if aborted:
                    continue
                xv = x_cur()
                finite = bool(np.all(np.isfinite(xv)))
                if finite:
                    if policy is not None:
                        try:
                            write_cur(renormalize(xv))
                        except ValidationError:
                            finite = False  # no mass left: recover below
                    else:
                        write_cur(renormalize(xv))
                if not finite:
                    if policy is not None \
                            and recoveries < policy.max_recoveries:
                        write_cur(rollback("nan-inf"))
                        if hooks is not None:
                            hooks.on_iteration(iteration, None, True)
                        continue
                    reason, residual = StopReason.DIVERGED, float("inf")
                    if hooks is not None:
                        hooks.on_iteration(iteration, residual, False)
                    return
                if not product_epoch():
                    continue
                stop, residual = criterion.check(iteration,
                                                 pool.state.y, x_cur())
                history.append((iteration, residual))
                if (policy is not None and stop is None
                        and np.isfinite(best_residual)
                        and residual
                        > policy.divergence_factor * best_residual):
                    if recoveries < policy.max_recoveries:
                        write_cur(rollback("divergence"))
                        if hooks is not None:
                            hooks.on_iteration(iteration, None, True)
                        continue
                    reason = StopReason.DIVERGED
                    if hooks is not None:
                        hooks.on_iteration(iteration, residual, True)
                    return
                # x survives this check unchanged, so the product seeds
                # the next batch's first step (no recomputation).
                pending = True
                best_residual = min(best_residual, residual)
                if hooks is not None:
                    hooks.on_iteration(iteration, residual, True)
                if stop is not None:
                    reason = stop
                    return
                if (time_budget_s is not None
                        and time.perf_counter() - t0 >= time_budget_s):
                    reason = StopReason.TIMED_OUT
                    return
                if iteration >= self.max_iterations:
                    reason = StopReason.MAX_ITERATIONS
                    return
                checks_done += 1
                if policy is not None \
                        and checks_done % policy.checkpoint_every == 0:
                    checkpoint = x_cur().copy()
                    checkpoint_iteration = iteration
                    report.checkpoints += 1
                durable_save()

        def durable_save() -> None:
            """Parent-side epoch snapshot + the ``shard.parent`` site.

            Fires at residual-check boundaries — the only points where
            the shared iterate is renormalized and globally consistent.
            The kill site is consulted *after* the save so a scheduled
            SIGKILL leaves an intact checkpoint at this very boundary,
            which is exactly what the crash-recovery suite resumes.
            """
            if checkpointer is not None:
                meta = self._checkpoint_meta(history, best_residual,
                                             checks_done, recoveries,
                                             criterion)
                meta["sharding"] = {
                    "shards": pool.shards,
                    "requested_shards": requested_shards,
                    "sync": self.sync,
                    "epoch": pool._epoch,
                    "rows": [[p.row_start, p.row_stop]
                             for p in pool.parts],
                    "degradations": len(degradations),
                }
                checkpointer.maybe_save(iteration, {"x": x_cur()}, meta)
            if injector is not None:
                injector.maybe_fail("shard.parent")

        def robust_epoch(cmd: int) -> None:
            """Chaotic-mode epoch: retry through worker deaths."""
            while True:
                try:
                    pool.epoch(cmd, read=0)
                    return
                except _WorkerLost as lost:
                    handle_death(lost.shard, rejoin_current=False)
                    if report is not None:
                        report.record(iteration, "worker-crash", "respawn",
                                      detail=f"shard {lost.shard}")

        def chaotic_loop() -> None:
            """Free-running relaxation with synchronized verification.

            Workers sweep in place against stale halos; the parent
            watches the per-shard norm reports and, when the
            aggregated residual estimate crosses the tolerance (or a
            check interval of sweeps has passed everywhere), pauses
            the pool, renormalizes and runs a *true* residual check —
            stopping only on verified convergence, so the reported
            residual always satisfies the serial tolerance.
            """
            nonlocal iteration, reason, residual, checkpoint, \
                checkpoint_iteration, checks_done, best_residual
            last_checked = 0
            robust_epoch(S.CMD_CHAOTIC)
            while True:
                time.sleep(0.001)
                degraded = False
                for shard in pool.dead_shards():
                    if handle_death(shard, rejoin_current=True):
                        degraded = True
                        break  # the stale dead-shard list is meaningless
                    if report is not None:
                        report.record(iteration, "worker-crash",
                                      "respawn",
                                      detail=f"shard {shard} (chaotic)")
                if degraded:
                    # Fresh pool, fresh sweep counters: restart the
                    # free-run and realign the check cadence.
                    last_checked = 0
                    robust_epoch(S.CMD_CHAOTIC)
                    continue
                # Always through pool.state (never a cached view):
                # degradation replaces the pool and its shared buffers.
                sweeps = pool.state.sweeps
                floor = int(sweeps.min())
                estimate = None
                xn = float(pool.state.xnorm.max())
                if xn > 0 and self.matrix_inf_norm > 0 and floor > 0:
                    estimate = float(pool.state.ynorm.max()) / (
                        self.matrix_inf_norm * xn)
                timed_out = (time_budget_s is not None
                             and time.perf_counter() - t0 >= time_budget_s)
                due = (floor - last_checked >= self.check_interval
                       or (estimate is not None and estimate <= self.tol)
                       or int(sweeps.max()) >= self.max_iterations
                       or timed_out)
                if not due:
                    continue
                with tracing.span("shard.sweep", shards=self.shards,
                                  mode="chaotic",
                                  sweeps=int(sweeps.max())):
                    robust_epoch(S.CMD_PAUSE)
                iteration = max(iteration, int(pool.state.sweeps.max()))
                last_checked = int(pool.state.sweeps.min())
                xv = x_cur()
                finite = bool(np.all(np.isfinite(xv)))
                if finite:
                    try:
                        write_cur(renormalize(xv))
                    except ValidationError:
                        finite = False
                if not finite:
                    if policy is not None \
                            and recoveries < policy.max_recoveries:
                        write_cur(rollback("nan-inf"))
                        robust_epoch(S.CMD_CHAOTIC)
                        continue
                    reason, residual = StopReason.DIVERGED, float("inf")
                    return
                robust_epoch(S.CMD_PRODUCT)
                xv = x_cur()  # re-fetch: a degrade mid-epoch swaps pools
                stop, residual = criterion.check(iteration, pool.state.y, xv)
                history.append((iteration, residual))
                if (policy is not None and stop is None
                        and np.isfinite(best_residual)
                        and residual
                        > policy.divergence_factor * best_residual):
                    if recoveries < policy.max_recoveries:
                        write_cur(rollback("divergence"))
                        robust_epoch(S.CMD_CHAOTIC)
                        continue
                    reason = StopReason.DIVERGED
                    return
                best_residual = min(best_residual, residual)
                if hooks is not None:
                    # Chaotic iterations have no global step to report
                    # per sweep; hooks fire once per verification.
                    hooks.on_iteration(iteration, residual, True)
                if stop is not None:
                    reason = stop
                    return
                if timed_out:
                    reason = StopReason.TIMED_OUT
                    return
                checks_done += 1
                if policy is not None \
                        and checks_done % policy.checkpoint_every == 0:
                    checkpoint = xv.copy()
                    checkpoint_iteration = iteration
                    report.checkpoints += 1
                durable_save()
                robust_epoch(S.CMD_CHAOTIC)

        # Durable resume (parent-side): restore the exact loop state of
        # a previous process before any worker spawns.  The iterate is
        # taken verbatim — saved post-renormalization at a check
        # boundary — so barrier mode stays bitwise-equal to both the
        # uninterrupted sharded run and the serial solver.
        resumed = None
        if checkpointer is not None and checkpointer.resume:
            resumed = checkpointer.load_latest(kind="solver")
        if resumed is not None:
            from repro.errors import CheckpointError
            rx = np.asarray(resumed.arrays.get("x"), dtype=np.float64)
            if rx.shape != (self.n,):
                raise CheckpointError(
                    f"checkpoint iterate has shape {rx.shape}, "
                    f"system needs ({self.n},)")
            x = rx.copy()
            iteration = int(resumed.iteration)
            meta = resumed.meta
            history = [(int(i), float(r)) for i, r in meta.get("history", [])]
            checks_done = int(meta.get("checks_done", 0))
            saved_best = meta.get("best_residual")
            best_residual = (float("inf") if saved_best is None
                             else float(saved_best))
            recoveries = int(meta.get("recoveries", 0))
            criterion.load_state(meta.get("criterion", {}))
            if policy is not None:
                checkpoint = x.copy()
                checkpoint_iteration = iteration

        span = tracing.span(f"{self.span_name}.solve", n=self.n,
                            method=type(self).__name__,
                            shards=self.shards, sync=self.sync)
        if self._active_backend is not None:
            span.set_attribute("backend", self._active_backend.name)
        try:
            with span:
                pending_y0 = None
                if resumed is not None:
                    span.set_attribute("resumed_iteration", iteration)
                    # Deterministic SpMV on the restored iterate — the
                    # same bits the uninterrupted run's product-reuse
                    # step carried into its next batch.
                    pending_y0 = self.A @ x
                elif x0 is not None:
                    # Warm-start fast path, serial on purpose: within
                    # tolerance it returns before any worker spawns.
                    y0 = self.A @ x
                    residual = criterion.normalized_residual(y0, x)
                    pending_y0 = y0
                    if residual <= self.tol:
                        history.append((0, residual))
                        if hooks is not None:
                            hooks.on_stop(StopReason.CONVERGED)
                        span.set_attribute("iterations", 0)
                        return SolverResult(
                            x=renormalize(x), iterations=0,
                            residual=residual,
                            stop_reason=StopReason.CONVERGED,
                            residual_history=history,
                            runtime_s=time.perf_counter() - t0)

                pool = _ShardPool(self, plan_json)
                span.set_attribute("start_method", pool.start_method)
                pool.state.x(0)[:] = x
                if pending_y0 is not None:
                    pool.state.y[:] = pending_y0
                    pending = True

                if self.sync == "barrier":
                    barrier_loop()
                else:
                    chaotic_loop()
                span.set_attribute("iterations", iteration)
                span.set_attribute("residual", residual)
                span.set_attribute("stop_reason", reason.value)
                if report is not None and (report.rollbacks
                                           or report.faults_seen):
                    span.set_attribute("rollbacks", report.rollbacks)
                    span.set_attribute("faults_seen", report.faults_seen)
                if reason is not StopReason.DIVERGED:
                    x = renormalize(x_cur())
                else:
                    x = x_cur().copy()
        finally:
            sharding = None
            if pool is not None:
                sharding = self._sharding_info(
                    pool, degradations=degradations,
                    requested_shards=requested_shards)
                pool.shutdown()
            self.shards = requested_shards  # degradation is per-solve
        runtime = time.perf_counter() - t0
        if hooks is not None:
            hooks.on_stop(reason)
        recovery = report if report is not None \
            and (report.rollbacks or report.faults_seen or report.events) \
            else None
        result = SolverResult(x=x, iterations=iteration, residual=residual,
                              stop_reason=reason, residual_history=history,
                              runtime_s=runtime, recovery=recovery)
        result.sharding = sharding
        return result

    def _sharding_info(self, pool: _ShardPool, *,
                       degradations: list[dict] = (),
                       requested_shards: int | None = None) -> dict:
        """Distribution telemetry attached as ``result.sharding``."""
        state = pool.state
        sweeps = [int(v) for v in state.sweeps]
        halo_bytes = [int(v) for v in state.halo_bytes]
        reg = get_registry()
        reg.counter("shard_sweeps_total",
                    "sweeps attempted by shard workers").inc(sum(sweeps))
        reg.counter("shard_halo_bytes_total",
                    "halo bytes gathered by shard workers"
                    ).inc(sum(halo_bytes))
        return {
            "shards": pool.shards,
            "requested_shards": (self.shards if requested_shards is None
                                 else requested_shards),
            "degradations": list(degradations),
            "sync": self.sync,
            "backend": pool.backend_name,
            "start_method": pool.start_method,
            "rows": [[p.row_start, p.row_stop] for p in pool.parts],
            "halo_sizes": [p.halo_size for p in pool.parts],
            "sweeps": sweeps,
            "halo_bytes": halo_bytes,
            "staleness": [int(v) for v in state.staleness],
            "respawns": pool.respawns,
        }
