"""The solve service façade: cache + warm start + scheduler in one.

:class:`SolveService` turns the repo's one-shot ``solve_steady_state``
into a job-serving layer for the paper's exploratory workload — many
rate conditions of one network:

*   The state space is enumerated **once** per service (rate changes
    never alter reachability for strictly-positive propensities, the
    same structure-reuse the serial sweep exploits) and shared across
    all worker threads; assembled rate matrices are memoized per rate
    condition so retries and repeated conditions skip assembly.
*   Submissions are **content-addressed**: a request's cache key is
    checked first (hit → the job completes synchronously, no queue
    space consumed), then deduplicated onto any in-flight job with the
    same key (**single-flight** — concurrent identical submits solve
    once), and only then admitted to the bounded queue.
*   Completed solves feed the :class:`~repro.serve.cache.SolutionCache`
    and the :class:`~repro.serve.warmstart.WarmStartIndex`, so later
    neighbors start from a converged nearby landscape instead of the
    uniform vector.

Example
-------
>>> from repro import toggle_switch
>>> from repro.serve import SolveService
>>> with SolveService(toggle_switch(max_protein=12), workers=4,
...                   warm_start=True) as svc:          # doctest: +SKIP
...     jobs = [svc.submit({"degA": d}) for d in (0.5, 1.0, 2.0)]
...     outcomes = [j.result() for j in jobs]
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import logging
import signal
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Iterable, Mapping

from repro.cme.landscape import ProbabilityLandscape
from repro.durability.journal import JobJournal
from repro.cme.network import ReactionNetwork
from repro.cme.ratematrix import build_rate_matrix
from repro.cme.statespace import StateSpace, enumerate_state_space
from repro.errors import (
    CircuitOpenError,
    JobTimeoutError,
    SingularSystemError,
    SolveJobError,
    ValidationError,
    WorkerCrashError,
)
from repro.resilience.backoff import RetryPolicy
from repro.resilience.circuit import CircuitBreaker
from repro.resilience.faults import active_injector
from repro.serve.cache import CacheEntry, SolutionCache, state_space_layout
from repro.serve.fairness import FairPriorityQueue
from repro.serve.jobs import (
    SolveJob,
    SolveOutcome,
    SolveRequest,
    matrix_signature,
)
from repro.serve.metrics import ServiceMetrics
from repro.serve.pool import ProcessSolverPool, SolveTask, run_task
from repro.serve.scheduler import SolveScheduler, settle
from repro.serve.warmstart import WarmStartIndex, blend_donors
from repro.solvers import DEFAULT_DAMPING
from repro.solvers.result import SolverResult, StopReason
from repro.telemetry import tracing

log = logging.getLogger("repro.serve")

#: Assembled matrices memoized per service (CSR of a small sweep point
#: is a few MB; 64 conditions bound the worst case while covering any
#: realistic retry/duplicate pattern).
MATRIX_MEMO_ENTRIES = 64


class _Workspace:
    """Per-service shared solve state: state space + matrix memo."""

    def __init__(self, network: ReactionNetwork, *, reuse_state_space: bool):
        self.network = network
        self.reuse_state_space = reuse_state_space
        self._lock = threading.Lock()
        self._space: StateSpace | None = None
        self._layout: str | None = None
        self._matrices: OrderedDict[str, object] = OrderedDict()

    def space(self) -> StateSpace:
        """The base network's state space, enumerated once."""
        with self._lock:
            if self._space is None:
                self._space = enumerate_state_space(self.network)
                self._layout = state_space_layout(self._space.states)
            return self._space

    def layout(self) -> str:
        self.space()
        assert self._layout is not None
        return self._layout

    def space_for(self, request: SolveRequest) -> StateSpace:
        """The (possibly rebound) state space for one request.

        With ``reuse_state_space`` the shared DFS state list is rebound
        to the varied network so propensities use the new rates over
        identical state indices — bitwise the same construction as the
        serial sweep.  Without it, each condition enumerates afresh.
        """
        varied = request.varied_network()
        if not self.reuse_state_space:
            return enumerate_state_space(varied)
        base = self.space()
        if not request.overrides:
            return base
        return StateSpace(network=varied, states=base.states)

    def matrix(self, request: SolveRequest):
        """The assembled rate matrix for one request (memoized).

        Keyed by :meth:`SolveRequest.matrix_key`, so requests differing
        only in tolerance or solver options share one assembly — and
        batched companions are guaranteed the identical matrix object.
        """
        memo_key = request.matrix_key()
        with self._lock:
            A = self._matrices.get(memo_key)
            if A is not None:
                self._matrices.move_to_end(memo_key)
                return A
        A = build_rate_matrix(self.space_for(request))
        with self._lock:
            self._matrices[memo_key] = A
            while len(self._matrices) > MATRIX_MEMO_ENTRIES:
                self._matrices.popitem(last=False)
        return A


class SolveService:
    """Concurrent, cached, warm-starting steady-state solve service.

    Every answer is a Jacobi solve of the full enumerated space
    (:class:`~repro.solvers.JacobiSolver`, or one
    :class:`~repro.solvers.batched.BatchedJacobiSolver` for a batch);
    adaptive FSP has its own entry points,
    :class:`repro.fsp.AdaptiveFspController` and ``repro fsp``.

    Parameters
    ----------
    network:
        The base reaction network every request varies.
    workers:
        Worker-thread count (NumPy/SciPy release the GIL inside the
        SpMV kernels, so threads overlap the hot loop).
    cache:
        ``True`` (default) for an in-memory cache, ``False``/``None``
        to disable, or a preconfigured :class:`SolutionCache` (e.g.
        with a disk directory) to share across services/runs.
    warm_start:
        Seed each solve from the inverse-distance-weighted blend of the
        two nearest already-solved rate points (two, not one: a single
        asymmetric donor excites a bistable network's slow switching
        mode, see :mod:`repro.serve.warmstart`).
    queue_capacity:
        Pending jobs the fair queue holds; a submission to a full queue
        is rejected (see :mod:`repro.serve.fairness`).
    timeout_s:
        Optional per-attempt wall-clock budget; an expired attempt
        raises :class:`~repro.errors.JobTimeoutError` and consumes a
        retry.
    retries:
        Extra attempts per job after the first, spaced by
        :class:`repro.resilience.backoff.RetryPolicy`'s exponential
        backoff with seeded jitter.
    warm_audit_interval:
        Every Nth warm-started solve is *audited*: the uniform-start
        solve runs alongside on the same system and the measured
        iteration difference feeds the
        ``warm_start_iterations_saved`` metric.  Audits cost one extra
        solve each, so the default samples 1 in 8; set ``1`` to audit
        every warm start, ``0`` to disable auditing.
    batch_max:
        When > 1, a worker picking up a job
        also *drains* up to ``batch_max - 1`` queued jobs describing
        the same linear system
        (:meth:`SolveRequest.matrix_key`) with the same loop parameters
        (only ``tol`` may differ) and answers them all in one
        :class:`~repro.solvers.batched.BatchedJacobiSolver` multi-RHS
        solve — one fused product per sweep instead of one solve per
        job.  Companions that cannot be answered by the batch (a
        per-column timeout, a batch failure) go back through the queue
        for an individual attempt.  ``1`` (default) disables batching.
    tol, max_iterations, solver_options:
        Request defaults (overridable per submit).  The kernel backend
        is chosen with ``solver_options={"backend": ...}``.  A request
        whose options carry no ``damping`` gets
        :data:`~repro.solvers.DEFAULT_DAMPING` (see :meth:`request`).
    reuse_state_space:
        Rebind one enumerated state space to every rate condition, as
        in :class:`repro.sweep.ParameterSweep`.
    journal:
        Optional write-ahead job journal (a
        :class:`repro.durability.JobJournal` or a path to create one
        at).  Every admitted job is durably recorded *before* it enters
        the scheduler and marked off when it completes, fails or is
        cancelled; a service constructed over an existing journal
        **replays** the accepted-but-unfinished entries exactly once
        per key, so a crash between acceptance and completion cannot
        silently drop work (see DESIGN.md §15).
    metrics_registry:
        Optional shared :class:`repro.telemetry.MetricsRegistry` to
        register the service's counters/histograms in (one exposition
        across services and solver/gpusim telemetry); a private
        registry by default.
    executor:
        ``"thread"`` (default) runs solves on the scheduler's worker
        threads; ``"process"`` dispatches each solve to a
        :class:`~repro.serve.pool.ProcessSolverPool` of ``workers``
        worker *processes*, so K workers run K native solve loops with
        no shared GIL.  Matrices ship to a worker once per linear
        system (content-keyed) and stay resident, so repeated
        conditions pay no re-pickling.
    pool:
        A preconstructed (possibly shared) pool to dispatch to;
        implies ``executor="process"``.  The service never closes a
        pool it did not create, so several services (one per model)
        can serve through one pool.
    tenant_weights:
        ``tenant -> weight`` map for the
        :class:`~repro.serve.fairness.FairPriorityQueue`, which runs
        deficit round robin over per-tenant lanes, so a heavy tenant
        cannot starve a light one regardless of arrival rates.
        Unlisted tenants queue at weight 1; without a map every tenant
        does, so the backlogs of two tenants alternate.

    Every attempt runs behind a
    :class:`~repro.resilience.circuit.CircuitBreaker` at its default
    settings: after five consecutive attempt failures the service sheds
    further attempts (fail-fast :class:`~repro.errors.CircuitOpenError`)
    until 30 s have passed and a probe succeeds.
    """

    def __init__(self, network: ReactionNetwork, *, workers: int = 1,
                 cache: SolutionCache | bool | None = True,
                 warm_start: bool = False,
                 queue_capacity: int = 1024,
                 timeout_s: float | None = None,
                 retries: int = 0,
                 warm_audit_interval: int = 8,
                 batch_max: int = 1,
                 tol: float = 1e-8, max_iterations: int = 200_000,
                 solver_options: Mapping | None = None,
                 reuse_state_space: bool = True,
                 journal: JobJournal | str | Path | None = None,
                 metrics_registry=None,
                 executor: str = "thread",
                 pool: ProcessSolverPool | None = None,
                 tenant_weights: Mapping[str, int] | None = None):
        if timeout_s is not None and timeout_s <= 0:
            raise ValidationError("timeout_s must be positive")
        self.network = network
        if cache is None or cache is False:
            self.cache = None
        elif cache is True:
            self.cache = SolutionCache()
        else:
            # Identity checks, not truthiness: an *empty* cache
            # instance is len()==0 and must still count.
            self.cache = cache
        self.warm_start = bool(warm_start)
        if self.warm_start and self.cache is None:
            raise ValidationError(
                "warm_start needs the solution cache for donor vectors")
        if warm_audit_interval < 0:
            raise ValidationError("warm_audit_interval must be >= 0")
        self.warm_audit_interval = int(warm_audit_interval)
        if batch_max < 1:
            raise ValidationError(
                f"batch_max must be >= 1, got {batch_max}")
        self.batch_max = int(batch_max)
        self._warm_count = itertools.count()
        self.timeout_s = timeout_s
        executor = str(executor).lower()
        if executor not in ("thread", "process"):
            raise ValidationError(
                f"executor must be 'thread' or 'process', got {executor!r}")
        if pool is not None:
            executor = "process"
        self.executor = executor
        self._breaker = CircuitBreaker(name="solve.jacobi")
        self.tol = float(tol)
        self.max_iterations = int(max_iterations)
        self.solver_options = dict(solver_options or {})
        self.metrics = ServiceMetrics(metrics_registry)
        self._workspace = _Workspace(network,
                                     reuse_state_space=reuse_state_space)
        self._warm_index = WarmStartIndex() if self.warm_start else None
        self._inflight: dict[str, SolveJob] = {}
        self._lock = threading.Lock()
        self._job_seq = itertools.count(1)
        self._closed = False
        if isinstance(journal, (str, Path)):
            journal = JobJournal(journal)
        self.journal = journal
        # The queue and the scheduler validate their arguments before
        # any thread starts, and before an owned pool spawns processes.
        self._pool = pool
        self._own_pool = False
        self._scheduler = SolveScheduler(
            self._execute, workers=workers,
            queue=FairPriorityQueue(queue_capacity, weights=tenant_weights),
            retries=retries, retry_policy=RetryPolicy(),
            on_retry=lambda job, exc: self.metrics.incr("retried"),
            on_done=self._on_done)
        if self.executor == "process" and pool is None:
            try:
                self._pool = ProcessSolverPool(
                    workers=workers,
                    backend=self.solver_options.get("backend"),
                    name=f"serve-{network.name}",
                    on_respawn=lambda: self.metrics.incr("pool_respawns"))
            except BaseException:
                self._scheduler.close(wait=False)
                raise
            self._own_pool = True
        self.metrics.bind_queue_depth(lambda: self._scheduler.queue_depth)
        if self.journal is not None:
            try:
                self._replay_journal()
            except BaseException:
                self.close(wait=False)
                raise

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self, *, wait: bool = True) -> None:
        """Stop workers; pending jobs are cancelled.

        Cancelled-but-accepted jobs keep their journal entries open,
        so a journal-backed service replays them on the next start —
        use :meth:`drain` for a clean shutdown that finishes them.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._scheduler.close(wait=wait)
        if self._own_pool and self._pool is not None:
            self._pool.close()
        if self.journal is not None:
            self.journal.close()

    def drain(self, *, timeout_s: float | None = None) -> bool:
        """Stop accepting work and wait for in-flight jobs to finish.

        Returns ``True`` when every in-flight job reached a terminal
        state inside the budget (a *clean* drain — the journal
        compacts to empty), ``False`` when ``timeout_s`` expired
        first; whatever did not finish stays open in the journal and
        is replayed by the next process.
        """
        with self._lock:
            if self._closed:
                return True
            self._closed = True
            pending = list(self._inflight.values())
        deadline = (None if timeout_s is None
                    else time.perf_counter() + timeout_s)
        clean = True
        for job in pending:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.perf_counter())
            with contextlib.suppress(SolveJobError):
                job.result(timeout=remaining)
            if not job.done():
                clean = False
        self._scheduler.close(wait=True)
        if self._own_pool and self._pool is not None:
            self._pool.close()
        if self.journal is not None:
            self.journal.compact()
            self.journal.close()
        return clean

    def install_sigterm_handler(self, *,
                                timeout_s: float | None = None):
        """Drain gracefully when the process receives ``SIGTERM``.

        Main-thread only (the interpreter's signal rule).  The
        previously-installed handler is chained after the drain and
        also returned, so callers can restore it.
        """
        if threading.current_thread() is not threading.main_thread():
            raise ValidationError(
                "install_sigterm_handler must run on the main thread")
        previous = signal.getsignal(signal.SIGTERM)

        def _handler(signum, frame):
            log.info("SIGTERM received: draining solve service")
            self.drain(timeout_s=timeout_s)
            if callable(previous):
                previous(signum, frame)

        signal.signal(signal.SIGTERM, _handler)
        return previous

    # -- submission ---------------------------------------------------------

    def request(self, overrides: Mapping[str, float] | None = None, *,
                tol: float | None = None, max_iterations: int | None = None,
                solver_options: Mapping | None = None) -> SolveRequest:
        """Build a request with this service's defaults filled in.

        A request whose effective solver options carry no ``damping``
        gets :data:`~repro.solvers.DEFAULT_DAMPING` here, so it participates
        in the cache key like any other option and identical requests
        keep colliding onto one line; an explicit ``damping``
        (``1.0`` included) wins.  Undamped Jacobi stagnates on
        bipartite-structured systems: the toggle switch at symmetric
        rate points oscillates between its two modes for >100k
        iterations where ``damping=0.9`` converges in a few hundred.
        """
        options = dict(self.solver_options if solver_options is None
                       else solver_options)
        options.setdefault("damping", DEFAULT_DAMPING)
        return SolveRequest(
            self.network, overrides,
            tol=self.tol if tol is None else tol,
            max_iterations=(self.max_iterations if max_iterations is None
                            else max_iterations),
            solver_options=options)

    def submit(self, overrides: Mapping[str, float] | None = None, *,
               priority: int = 0, tol: float | None = None,
               max_iterations: int | None = None,
               solver_options: Mapping | None = None,
               deadline_s: float | None = None,
               tenant: str = "default") -> SolveJob:
        """Admit one solve; returns a job to block on.

        Cache hits complete the returned job synchronously; a submit
        whose key matches an in-flight job returns *that* job
        (single-flight).  A full queue raises
        :class:`~repro.errors.JobRejectedError`.  ``deadline_s``
        propagates an end-to-end deadline into the worker: whatever
        remains of it when an attempt starts caps the solver's
        ``time_budget_s``.

        ``tenant`` identifies the submitter for fair queuing.  It does
        not participate in the cache key, so tenants asking the same
        question share one answer.
        """
        if self._closed:
            raise SolveJobError("service is closed")
        if deadline_s is not None and deadline_s <= 0:
            raise ValidationError(
                f"deadline_s must be positive, got {deadline_s}")
        tenant = str(tenant) or "default"
        req = self.request(overrides, tol=tol, max_iterations=max_iterations,
                           solver_options=solver_options)
        key = req.cache_key()
        self.metrics.incr("submitted")

        if self.cache is not None:
            injector = active_injector()
            if injector is not None \
                    and injector.active_for("serve.cache") \
                    and injector.maybe_fail(
                        "serve.cache", detail=key[:12]) is not None:
                # An injected cache fault: skip the lookup, forcing the
                # cold path this submission.
                self.metrics.incr("cache_faults")
            else:
                entry = self.cache.get(key, layout=self._workspace.layout())
                if entry is not None:
                    job = self._new_job(req, priority, tenant)
                    job.finish(self._outcome_from_entry(req, entry))
                    self.metrics.incr("cache_hits")
                    self.metrics.observe_solve_latency(0.0)
                    self.metrics.incr_tenant(tenant, "completed")
                    return job

        with self._lock:
            inflight = self._inflight.get(key)
            if inflight is not None and not inflight.done():
                self.metrics.incr("coalesced")
                return inflight
            job = self._new_job(req, priority, tenant)
            if deadline_s is not None:
                job.deadline_at = time.perf_counter() + deadline_s
            self._inflight[key] = job
        if self.journal is not None:
            # Write-ahead: the accept record is durable *before* the
            # job can enter the scheduler, so a crash at any later
            # point leaves an open entry the next process replays.
            try:
                self.journal.accepted(
                    key, self._journal_payload(req, priority, tenant))
            except BaseException:
                # Nothing was accepted: a later identical submit must
                # not coalesce onto a job that will never run.
                self._release(job)
                job.cancel()
                raise
        try:
            self._scheduler.submit(job)
        except SolveJobError:
            self._release(job)
            self.metrics.incr("rejected")
            if self.journal is not None:
                self.journal.cancelled(key)
            job.cancel()
            raise
        self.metrics.incr("scheduled")
        return job

    def solve(self, overrides: Mapping[str, float] | None = None,
              **kwargs) -> SolveOutcome:
        """Submit and block for the outcome (convenience wrapper)."""
        return self.submit(overrides, **kwargs).result()

    def map(self, conditions: Iterable[Mapping[str, float]],
            *, progress=None) -> list[SolveOutcome]:
        """Solve many conditions; outcomes come back in input order.

        Jobs are all admitted up front (subject to backpressure) and
        gathered in order, so workers overlap while callers still see
        deterministic, input-ordered results.  ``progress(outcome)``
        fires per condition in input order.
        """
        jobs = [self.submit(cond) for cond in conditions]
        outcomes = []
        for job in jobs:
            outcome = job.result()
            outcomes.append(outcome)
            if progress is not None:
                progress(outcome)
        return outcomes

    # -- execution (worker threads) ------------------------------------------

    def _execute(self, job: SolveJob) -> SolveOutcome:
        """One attempt: fault sites and the breaker around the solve."""
        injector = active_injector()
        if injector is not None and injector.active_for("serve.worker"):
            try:
                # kind "kill" raises WorkerCrashError (retryable);
                # kind "stall" sleeps for the spec's delay.
                injector.maybe_fail("serve.worker", detail=f"job {job.id}")
            except WorkerCrashError:
                self.metrics.incr("worker_faults")
                raise
        if not self._breaker.allow():
            self.metrics.incr("breaker_open")
            raise CircuitOpenError(
                f"job {job.id} shed: {self._breaker.name} breaker open "
                f"after repeated failures", key=job.key,
                failure={"breaker": self._breaker.snapshot()})
        try:
            outcome = self._execute_solve(job)
        except Exception:
            self._breaker.record_failure()
            raise
        self._breaker.record_success()
        return outcome

    def _attempt_budget(self, job: SolveJob) -> float | None:
        """The per-attempt time budget: timeout clamped to the deadline."""
        budget = self.timeout_s
        if job.deadline_at is not None:
            remaining = job.deadline_at - time.perf_counter()
            if remaining <= 0:
                self.metrics.incr("deadline_expired")
                raise JobTimeoutError(
                    f"job {job.id} deadline expired before attempt "
                    f"{job.attempts}", key=job.key,
                    failure={"reason": "deadline-expired"})
            budget = remaining if budget is None else min(budget, remaining)
        return budget

    def _execute_solve(self, job: SolveJob) -> SolveOutcome:
        """One attempt: a solo solve, or a batched one with companions.

        Companions are finished (or re-queued) here directly — the
        scheduler only knows about the primary, whose outcome (or
        timeout) is returned/raised exactly as in a solo solve, so its
        retry/breaker handling is the same either way.
        """
        req = job.request
        t0 = time.perf_counter()
        time_budget_s = self._attempt_budget(job)
        with tracing.span("serve.execute", job=job.id,
                          key=job.key[:12]) as ex_span:
            with tracing.span("serve.assemble"):
                A = self._workspace.matrix(req)
                space = self._workspace.space_for(req)

            x0 = None
            if self._warm_index is not None and self.cache is not None:
                hints = self._warm_index.select_donors(
                    req.log_rate_vector(), exclude_key=job.key)
                donors, distances = [], []
                for hint in hints:
                    entry = self.cache.peek(hint.key,
                                            layout=self._workspace.layout())
                    if entry is not None:
                        donors.append(entry.p)
                        distances.append(hint.distance)
                if donors:
                    x0 = blend_donors(donors, distances)
            warm = x0 is not None

            companions: list[SolveJob] = []
            if self.batch_max > 1:
                companions = self._drain_companions(job)
                self.metrics.incr("batched", len(companions))
            task = SolveTask(
                method="jacobi", tol=req.tol,
                max_iterations=req.max_iterations,
                options=req.solver_options, x0=x0,
                time_budget_s=time_budget_s,
                tols=([req.tol] + [j.request.tol for j in companions]
                      if companions else None))
            solve_t0 = time.perf_counter()
            try:
                with tracing.span("serve.solve", warm=warm,
                                  k=1 + len(companions),
                                  executor=self.executor):
                    primary, *rest = self._run(job, A, task)
            except Exception:
                # The batch never produced answers: release the
                # companions back to the queue for individual attempts,
                # then let the primary's error flow through the normal
                # retry path.
                self._requeue_solo(companions)
                raise
            self.metrics.observe_stage(
                "solve", time.perf_counter() - solve_t0)
            for companion, result in zip(companions, rest):
                if result.stop_reason is StopReason.TIMED_OUT:
                    self._requeue_solo([companion])
                    continue
                outcome = self._record(companion, result, space, warm, t0)
                companion.finished_at = time.perf_counter()
                settle(companion, self._on_done, outcome)

            ex_span.set_attribute("iterations", primary.iterations)
            ex_span.set_attribute("stop_reason", primary.stop_reason.value)
            if primary.stop_reason is StopReason.TIMED_OUT:
                raise JobTimeoutError(
                    f"job {job.id} exceeded its {time_budget_s:.3g}s budget "
                    f"after {primary.iterations} iterations", key=job.key,
                    iterations=primary.iterations, residual=primary.residual)
            if warm and not companions:
                self._maybe_audit(job, A, task, primary)
            return self._record(job, primary, space, warm, t0)

    def _run(self, job: SolveJob, A, task: SolveTask) -> list[SolverResult]:
        """Run *task* on the process pool, or in place on this thread.

        A zero diagonal or all-zero row is a property of the system,
        not of this attempt — surface it as a terminal SolveJobError
        (with the offending matrix's signature in the failure payload)
        so the scheduler never burns retries on it.  The pool raises
        the same SingularSystemError from the worker-side solver
        construction.
        """
        try:
            if self._pool is None:
                return run_task(A, task)
            return self._pool.run(job.request.matrix_key(), A, task)
        except SingularSystemError as exc:
            raise SolveJobError(
                f"job {job.id} is unsolvable: {exc}",
                key=job.key,
                failure={"error": "singular-system",
                         "rows": list(exc.rows),
                         "matrix_signature": matrix_signature(A)},
            ) from exc

    def _record(self, job: SolveJob, result: SolverResult, space,
                warm: bool, t0: float) -> SolveOutcome:
        """Cache *job*'s answer, index it as a warm-start donor, and
        build its outcome (solo and batched jobs alike)."""
        self.metrics.incr("warm_started" if warm else "cold_started")
        cache_t0 = time.perf_counter()
        with tracing.span("serve.cache_put"):
            if self.cache is not None:
                self.cache.put(CacheEntry(
                    key=job.key, p=result.x,
                    iterations=result.iterations,
                    residual=result.residual,
                    stop_reason=result.stop_reason.value,
                    runtime_s=result.runtime_s,
                    layout=self._workspace.layout()))
        self.metrics.observe_stage("cache", time.perf_counter() - cache_t0)
        if self._warm_index is not None:
            self._warm_index.add(job.key, job.request.log_rate_vector(),
                                 result.iterations)
        return SolveOutcome(
            result=result,
            landscape=ProbabilityLandscape(space, result.x),
            key=job.key, cached=False, warm_started=warm,
            solve_seconds=time.perf_counter() - t0)

    # -- batched execution ---------------------------------------------------

    def _drain_companions(self, primary: SolveJob) -> list[SolveJob]:
        """Pull queued jobs that can share *primary*'s batched solve.

        Compatible means: the identical linear system (matrix key) with
        identical loop parameters — only the tolerance may differ per
        column.  Jobs carrying a deadline stay solo so their budget
        arithmetic is never entangled with a batch.
        """
        req = primary.request

        def compatible(other: SolveJob) -> bool:
            r = other.request
            return (other.deadline_at is None
                    and r.matrix_key() == req.matrix_key()
                    and r.solver_options == req.solver_options
                    and r.max_iterations == req.max_iterations)

        drained = self._scheduler.queue.drain_matching(
            compatible, self.batch_max - 1)
        companions = []
        for j in drained:
            if j.mark_running():
                j.started_at = time.perf_counter()
                companions.append(j)
        return companions

    def _requeue_solo(self, companions: list[SolveJob]) -> None:
        """Send batch companions back through the queue, one by one."""
        for j in companions:
            if not j.requeue():
                continue  # already terminal (e.g. cancelled meanwhile)
            try:
                self._scheduler.queue.put(j)
            except SolveJobError as exc:
                error = SolveJobError(
                    f"job {j.id} could not return to the queue after its "
                    f"batch: {exc}", key=j.key, attempts=j.attempts)
                error.__cause__ = exc
                j.finished_at = time.perf_counter()
                settle(j, self._on_done, error=error)

    def _maybe_audit(self, job: SolveJob, A, task: SolveTask,
                     warm_result: SolverResult) -> None:
        """Measure one warm start against the uniform start, sampled.

        The uniform-start version of *task* runs on the *same* system
        (on the same executor) and the observed iteration difference
        is recorded — a measurement, not a model, so the savings
        metric stays honest even though cold cost varies across the
        grid.  The audit result is discarded and an audit failure
        swallowed; neither can affect the job's answer.
        """
        if self.warm_audit_interval == 0:
            return
        if next(self._warm_count) % self.warm_audit_interval != 0:
            return
        try:
            [cold] = self._run(job, A, dataclasses.replace(
                task, x0=None, time_budget_s=self.timeout_s))
        except SolveJobError:
            return
        if cold.stop_reason is StopReason.TIMED_OUT:
            return
        self.metrics.record_warm_audit(
            cold_iterations=cold.iterations,
            warm_iterations=warm_result.iterations)

    def _on_done(self, job: SolveJob, error: SolveJobError | None) -> None:
        self._release(job)
        if self.journal is not None:
            # Terminal record: pairs with the job's (possibly
            # previous-process) accept, closing the journal entry.
            (self.journal.failed if error is not None
             else self.journal.completed)(job.key)
        self.metrics.incr("failed" if error is not None else "completed")
        self.metrics.incr_tenant(
            job.tenant, "failed" if error is not None else "completed")
        if job.started_at is not None and job.submitted_at is not None:
            self.metrics.observe_stage(
                "queue", job.started_at - job.submitted_at)
        if job.submitted_at is not None and job.finished_at is not None:
            # End-to-end: queue wait + every attempt, the latency a
            # caller actually experiences (solve_latency_seconds).
            self.metrics.observe_solve_latency(
                job.finished_at - job.submitted_at)

    # -- journal replay ------------------------------------------------------

    def _journal_payload(self, req: SolveRequest, priority: int,
                         tenant: str = "default") -> dict:
        """Everything needed to rebuild *req* in a fresh process."""
        return {
            "network": self.network.canonical_signature(),
            "overrides": dict(req.overrides),
            "tol": req.tol,
            "max_iterations": req.max_iterations,
            "solver_options": dict(req.solver_options),
            "priority": int(priority),
            "tenant": str(tenant),
        }

    def _replay_journal(self) -> None:
        """Re-admit accepted-but-unfinished jobs from a prior process.

        Replayed jobs are scheduled **without** a new accept record:
        the original durable accept pairs with the job's eventual
        terminal record, keeping the open/closed bookkeeping exact.
        Entries answered by the (disk-backed) cache are closed as
        ``completed`` without a solve; entries that no longer make
        sense — a different network, an unparseable payload, a key the
        rebuilt request no longer reproduces — are closed as
        ``cancelled`` with a logged warning.
        """
        assert self.journal is not None
        entries = self.journal.open_entries()
        if not entries:
            return
        net_sig = self.network.canonical_signature()
        replayed = 0
        for record in entries:
            key = record.get("key", "")
            payload = record.get("payload") or {}
            if payload.get("network") != net_sig:
                log.warning(
                    "journal entry %s was accepted for a different "
                    "network; cancelling instead of replaying", key[:12])
                self.journal.cancelled(key)
                continue
            try:
                req = self.request(
                    payload.get("overrides") or None,
                    tol=payload.get("tol"),
                    max_iterations=payload.get("max_iterations"),
                    solver_options=payload.get("solver_options"))
            except ValidationError as exc:
                log.warning("journal entry %s is not replayable (%s); "
                            "cancelling", key[:12], exc)
                self.journal.cancelled(key)
                continue
            priority = int(payload.get("priority", 0))
            tenant = str(payload.get("tenant", "default"))
            if req.cache_key() != key:
                # The payload no longer reproduces the accepted key
                # (request hashing changed between versions): close
                # the stale entry and re-admit under the new key.
                log.warning("journal entry %s rebuilds under a "
                            "different key; re-admitting as a fresh "
                            "submission", key[:12])
                self.journal.cancelled(key)
                with contextlib.suppress(SolveJobError):
                    self.submit(payload.get("overrides") or None,
                                priority=priority,
                                tol=payload.get("tol"),
                                max_iterations=payload.get(
                                    "max_iterations"),
                                solver_options=payload.get(
                                    "solver_options"),
                                tenant=tenant)
                continue
            if self.cache is not None:
                entry = self.cache.get(key,
                                       layout=self._workspace.layout())
                if entry is not None:
                    # The previous process (or its disk cache) already
                    # holds the answer: the promise is kept without a
                    # new solve.
                    self.journal.completed(key)
                    replayed += 1
                    continue
            with self._lock:
                if key in self._inflight:
                    continue
                job = self._new_job(req, priority, tenant)
                self._inflight[key] = job
            try:
                self._scheduler.submit(job)
            except SolveJobError as exc:
                self._release(job)
                log.warning("journal entry %s could not be re-admitted "
                            "(%s); cancelling", key[:12], exc)
                self.journal.cancelled(key)
                job.cancel()
                continue
            replayed += 1
        if replayed:
            self.metrics.incr("journal_replayed", replayed)
            log.info("replayed %d accepted-but-unfinished journal "
                     "entries", replayed)
        self.journal.compact()

    # -- helpers -------------------------------------------------------------

    def _new_job(self, req: SolveRequest, priority: int,
                 tenant: str = "default") -> SolveJob:
        # next() on itertools.count is atomic in CPython, so this is
        # safe to call both with and without the service lock held.
        return SolveJob(req, job_id=next(self._job_seq), priority=priority,
                        tenant=tenant)

    def _release(self, job: SolveJob) -> None:
        """Drop *job* from the single-flight map if it still holds it."""
        with self._lock:
            if self._inflight.get(job.key) is job:
                del self._inflight[job.key]

    def _outcome_from_entry(self, req: SolveRequest,
                            entry: CacheEntry) -> SolveOutcome:
        result = entry.to_result()
        space = self._workspace.space_for(req)
        return SolveOutcome(
            result=result,
            landscape=ProbabilityLandscape(space, result.x),
            key=entry.key, cached=True, warm_started=False,
            solve_seconds=0.0)

    def snapshot(self) -> dict:
        """Metrics snapshot with cache, breaker and journal merged in.

        A process-executor service adds a ``pool`` section
        (dispatch/respawn accounting), and ``tenants`` holds per-tenant
        completion counters once any job has finished.
        """
        out = self.metrics.snapshot(
            cache_stats=self.cache.stats if self.cache is not None else None,
            breaker=self._breaker.snapshot(), journal=self.journal)
        if self._pool is not None:
            out["pool"] = self._pool.stats
        tenants = self.metrics.tenant_snapshot()
        if tenants:
            out["tenants"] = tenants
        return out

    def render_metrics(self) -> str:
        """Printable metrics table (the CLI's ``serve`` output)."""
        return self.metrics.render(
            cache_stats=self.cache.stats if self.cache is not None else None,
            breaker=self._breaker.snapshot(), journal=self.journal,
            title=f"serve metrics · {self.network.name}")
