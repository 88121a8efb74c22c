"""The unified steady-state solver API (protocol + shared loop).

Every solver in :mod:`repro.solvers` presents the same front:

* constructed from ``matrix`` (plus solver-specific options);
* ``solve(x0=None, *, time_budget_s=None, hooks=None) -> SolverResult``.

:class:`SteadyStateSolver` is the structural protocol that front-door
code (:func:`repro.solve_steady_state`, the serve layer, the sweep)
programs against; :class:`IterativeSolverBase` is the shared
batch-iterate / renormalize / residual-check loop from Section IV that
Jacobi, Gauss-Seidel and power iteration all run — each subclass only
supplies :meth:`~IterativeSolverBase.step_once` and its constructor
(and may override :meth:`~IterativeSolverBase.advance` to fuse sweeps).

Centralizing the loop means every solver gets, identically:

* wall-clock budgets (``time_budget_s`` →
  :attr:`~repro.solvers.result.StopReason.TIMED_OUT`);
* the instrumentation hook protocol
  (:class:`repro.telemetry.hooks.SolverHooks`) — ``on_iteration`` fires
  exactly once per iteration, ``on_stop`` exactly once per solve, and
  without hooks (or an active fault injector) the loop advances a
  whole renormalization interval per
  :meth:`~IterativeSolverBase.advance` call (one backend call for
  Jacobi);
* a tracing span per solve
  (:func:`repro.telemetry.tracing.span`, a no-op unless a recorder is
  installed);
* the warm-start fast path: a caller-supplied ``x0`` already within
  tolerance returns immediately with ``iterations=0``.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Protocol, runtime_checkable

import numpy as np

from repro import backends
from repro.errors import (
    IterateSizeError,
    SingularSystemError,
    ValidationError,
)
from repro.solvers.normalization import renormalize, uniform_probability
from repro.solvers.result import SolverResult, StopReason
from repro.solvers.stopping import StoppingCriterion
from repro.telemetry import tracing

#: Matrix-derived quantities (row sums, inf-norm, diagonal) cached per
#: matrix *object*.  SciPy CSR matrices are unhashable, so entries are
#: keyed by ``id()`` and guarded by a weak reference: a stale id reuse
#: misses (the guard compares identity) and collection evicts the entry.
_DERIVED_CACHE: dict[int, tuple] = {}
_DERIVED_LOCK = threading.Lock()


def matrix_derived(A) -> dict:
    """Row sums, ``||A||_inf``, zero rows and the diagonal of *A*, cached.

    Repeated solver constructions on the same matrix object (warm-started
    re-solves, serve retries/audits, batched sweeps) skip the O(nnz)
    re-derivation; the first call on a matrix pays it once.
    """
    key = id(A)
    with _DERIVED_LOCK:
        hit = _DERIVED_CACHE.get(key)
        if hit is not None and hit[0]() is A:
            return hit[1]
    if A.nnz:
        row_sums = np.asarray(abs(A).sum(axis=1), dtype=np.float64).ravel()
        inf_norm = float(row_sums.max())
    else:
        row_sums = np.zeros(A.shape[0], dtype=np.float64)
        inf_norm = 0.0
    derived = {
        "row_sums": row_sums,
        "inf_norm": inf_norm,
        "zero_rows": np.flatnonzero(row_sums == 0.0),
        "diagonal": np.asarray(A.diagonal(), dtype=np.float64),
    }

    def _evict(dying_ref, _key=key):
        with _DERIVED_LOCK:
            cur = _DERIVED_CACHE.get(_key)
            if cur is not None and cur[0] is dying_ref:
                del _DERIVED_CACHE[_key]

    try:
        ref = weakref.ref(A, _evict)
    except TypeError:
        return derived
    with _DERIVED_LOCK:
        _DERIVED_CACHE[key] = (ref, derived)
    return derived


@runtime_checkable
class SteadyStateSolver(Protocol):
    """Structural interface of every steady-state solver.

    Conformance (checked by ``tests/solvers/test_protocol.py`` against
    all concrete solvers): construction from ``matrix``, a system size
    ``n``, and the unified ``solve`` signature.
    """

    n: int

    def solve(self, x0=None, *, time_budget_s: float | None = None,
              hooks=None) -> SolverResult: ...


class IterativeSolverBase:
    """The shared iterate / renormalize / check loop (Section IV).

    Subclasses set (in their constructor):

    ``A``
        The generator as SciPy CSR — used for residual evaluation.
    ``n``
        System size.
    ``tol, max_iterations, check_interval, stagnation_tol``
        Stopping parameters (see :class:`StoppingCriterion`).
    ``normalize_interval``
        Renormalize the iterate every this many steps; ``None`` for
        norm-preserving iterations (power iteration) that only
        renormalize at residual checks against floating-point drift.
    ``matrix_inf_norm``
        ``||A||_inf``, precomputed.

    and implement :meth:`step_once`.
    """

    #: Name used for the per-solve tracing span and hook events.
    span_name = "solver"

    #: Explicit kernel-backend selection (a name, an instance, or
    #: ``None`` for the ambient resolution — see
    #: :func:`repro.backends.resolve`).  Subclasses that accept a
    #: ``backend=`` constructor argument overwrite this.
    backend = None

    #: Kernel backend resolved by the most recent :meth:`solve`
    #: (``None`` before the first solve).  Refreshed at the top of
    #: every solve from :meth:`_select_backend` so ambient selections
    #: (``use()`` contexts, ``REPRO_BACKEND``) are honored per solve,
    #: not per construction.
    _active_backend = None

    A: object
    n: int
    tol: float
    max_iterations: int
    check_interval: int
    normalize_interval: int | None
    stagnation_tol: float | None
    matrix_inf_norm: float

    def _init_common(self, A, *, tol: float, max_iterations: int,
                     check_interval: int,
                     normalize_interval: int | None,
                     stagnation_tol: float | None) -> None:
        """Validate and store the loop parameters shared by all solvers."""
        if A.shape[0] != A.shape[1]:
            raise ValidationError("steady-state solve needs a square matrix")
        if check_interval <= 0:
            raise ValidationError("intervals must be positive")
        if normalize_interval is not None and normalize_interval <= 0:
            raise ValidationError("intervals must be positive")
        self.A = A
        self.n = A.shape[0]
        self.tol = float(tol)
        self.max_iterations = int(max_iterations)
        self.check_interval = int(check_interval)
        self.normalize_interval = (None if normalize_interval is None
                                   else int(normalize_interval))
        self.stagnation_tol = stagnation_tol
        self._derived = matrix_derived(A)
        self.matrix_inf_norm = self._derived["inf_norm"]
        # An all-zero row is an isolated state: nothing flows in or out,
        # so the chain is reducible and the stationary distribution is
        # not unique — no amount of iterating (or retrying) fixes that.
        zero_rows = self._derived["zero_rows"]
        if zero_rows.size:
            shown = ", ".join(str(r) for r in zero_rows[:5])
            more = "" if zero_rows.size <= 5 else \
                f" (+{zero_rows.size - 5} more)"
            raise SingularSystemError(
                f"generator has {zero_rows.size} all-zero row(s) "
                f"[{shown}{more}]: isolated states make the steady state "
                f"non-unique", rows=zero_rows[:5].tolist())

    # -- to be provided by subclasses ----------------------------------------

    #: When true, :meth:`step_from_product` can advance the iterate from
    #: a residual product ``y = A @ x`` the loop already computed at a
    #: check, so a check iteration costs no extra SpMV (the loop performs
    #: exactly one product per iteration, plus the final check's).
    supports_product_step: bool = False

    def _select_backend(self):
        """Resolve the kernel backend serving this solve.

        The base loop only consumes the ``residual`` primitive (inside
        :class:`StoppingCriterion`); solvers whose *steps* dispatch
        through :mod:`repro.backends` override this with the op they
        run (e.g. Jacobi resolves ``jacobi_sweep``) so telemetry
        attributes the solve to the right kernel.
        """
        return backends.serving("", "residual", self.backend)

    def step_once(self, x: np.ndarray) -> np.ndarray:
        """One iteration of the method (no renormalization)."""
        raise NotImplementedError

    def advance(self, x: np.ndarray, k: int) -> np.ndarray:
        """*k* iterations (no renormalization) — the uninstrumented
        loop's unit of work, one renormalization interval at most.

        Loops :meth:`step_once`; solvers whose kernel backend can run
        several sweeps in one call override it.  Must be numerically
        identical to *k* :meth:`step_once` calls.
        """
        for _ in range(k):
            x = self.step_once(x)
        return x

    def step_from_product(self, x: np.ndarray,
                          y: np.ndarray) -> np.ndarray:
        """One iteration reusing ``y = A @ x`` (already computed).

        Must be numerically identical to :meth:`step_once` on the same
        ``x``; only solvers setting :attr:`supports_product_step` need it.
        """
        raise NotImplementedError

    # -- the unified solve loop ----------------------------------------------

    @staticmethod
    def _checkpoint_meta(history, best_residual, checks_done, recoveries,
                         criterion) -> dict:
        """JSON-serializable loop state for a durable checkpoint."""
        return {
            "history": [[int(i), float(r)] for i, r in history],
            "best_residual": (None if not np.isfinite(best_residual)
                              else float(best_residual)),
            "checks_done": int(checks_done),
            "recoveries": int(recoveries),
            "criterion": criterion.state_dict(),
        }

    def _initial_iterate(self, x0, *, validate: bool = True) -> np.ndarray:
        """Validate *x0* and project it onto the probability simplex.

        ``validate=False`` skips the O(n) finiteness/negativity scans for
        callers that hand back an iterate a previous solve produced (warm
        restarts in the FSP controller re-solve the same system dozens of
        times); the shape check and renormalization always run.
        """
        if x0 is None:
            return uniform_probability(self.n)
        x = np.asarray(x0, dtype=np.float64)
        if x.shape != (self.n,):
            # A typed size error (not a bare shape complaint): when the
            # caller remaps iterates across changing projections, this
            # is the failure that pinpoints a remap bug.
            raise IterateSizeError(self.n, x.shape)
        if validate:
            if not np.all(np.isfinite(x)):
                raise ValidationError("x0 contains non-finite entries")
            if np.any(x < 0.0):
                raise ValidationError("x0 contains negative entries")
        return renormalize(x)

    def solve(self, x0=None, *, time_budget_s: float | None = None,
              hooks=None, guardrails=None,
              validate_x0: bool = True, checkpointer=None) -> SolverResult:
        """Iterate from *x0* (uniform by default) until a criterion fires.

        Parameters
        ----------
        x0:
            Optional initial guess (e.g. a warm start from a nearby
            rate condition).  Must have length ``n``, be finite and
            non-negative with positive mass; it is renormalized onto
            the probability simplex before iterating.  A warm start
            already within tolerance returns immediately
            (``iterations=0``), charged one residual evaluation.
        time_budget_s:
            Optional wall-clock budget, checked at every residual
            check; on expiry the solve returns with
            :attr:`StopReason.TIMED_OUT` instead of raising, so callers
            can inspect the partial iterate.
        hooks:
            Optional :class:`~repro.telemetry.hooks.SolverHooks`.
            ``on_iteration(k, residual, renormalized)`` fires exactly
            once per iteration (``residual`` only on check iterations)
            and ``on_stop(reason)`` exactly once.  ``None`` (default)
            runs the uninstrumented loop.
        guardrails:
            Numerical recovery policy
            (:class:`~repro.resilience.guardrails.GuardrailPolicy`).
            ``None`` (default) applies the default policy: the iterate
            is checkpointed periodically, and a non-finite or diverging
            iterate **rolls back** to the checkpoint and renormalizes
            (up to ``max_recoveries`` times) instead of aborting.  Pass
            ``False`` for the legacy fail-fast behaviour (a non-finite
            batch stops with :attr:`StopReason.DIVERGED` immediately).
            Any corrective action taken is reported in
            ``result.recovery``.
        validate_x0:
            Skip the finiteness/negativity scans of *x0* when false.
            Only safe when *x0* is an iterate a previous solve returned
            (the FSP controller's warm restarts); the shape check and
            renormalization still run.
        checkpointer:
            Optional :class:`~repro.durability.Checkpointer`.  The loop
            writes a durable checkpoint (iterate, iteration count,
            residual history, stopping-criterion state) whenever the
            checkpointer's policy says one is due — always at a
            residual-check boundary, where the iterate is renormalized
            and consistent.  When ``checkpointer.resume`` is set and an
            intact checkpoint matching the signature exists, the solve
            restores it (ignoring *x0*) and continues **bitwise
            identically** to the uninterrupted run: the iterate is
            taken verbatim (no re-renormalization), the stopping
            criterion's stagnation state is reloaded, and the reusable
            residual product is recomputed deterministically.
        """
        # Lazy imports: repro.resilience imports repro.solvers (for the
        # registry and result types), so a module-level import here
        # would be circular.
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
        inject = injector is not None and injector.active_for("solver.iterate")
        sweep_guard = policy is not None and inject
        report = RecoveryReport() if (policy is not None or inject) else None

        self._active_backend = self._select_backend()
        criterion = StoppingCriterion(
            self.matrix_inf_norm, tol=self.tol,
            max_iterations=self.max_iterations,
            stagnation_tol=self.stagnation_tol,
            backend=self._active_backend)
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

        def rollback(kind: str) -> np.ndarray:
            nonlocal recoveries
            recoveries += 1
            report.rollbacks += 1
            report.record(iteration, kind, "rollback",
                          detail=f"checkpoint@{checkpoint_iteration}")
            count_recovery(kind, iteration)
            return checkpoint.copy()

        # The residual product ``y = A @ x`` of the latest check, valid
        # for the *current* x.  When the solver supports product-reuse
        # steps, the next batch's first iteration consumes it instead of
        # recomputing the same product — one SpMV per iteration total.
        pending_y = None
        reuse = self.supports_product_step

        # Durable resume: restore the exact mid-solve state a previous
        # process persisted.  The iterate is taken verbatim — it was
        # saved post-renormalization, and renormalizing again would
        # break bitwise parity with the uninterrupted run.
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
            history = [(int(i), float(r))
                       for i, r in meta.get("history", [])]
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
                            method=type(self).__name__)
        if self._active_backend is not None:
            span.set_attribute("backend", self._active_backend.name)
        with span:
            if resumed is not None:
                span.set_attribute("resumed_iteration", iteration)
                if reuse:
                    # Deterministic SpMV on the restored iterate: the
                    # same bits the uninterrupted loop carried forward.
                    pending_y = self.A @ x
            elif x0 is not None:
                # A warm start may already satisfy the tolerance (e.g. a
                # cached neighbor with identical dynamics); charge one
                # residual evaluation instead of a full check interval.
                y0 = self.A @ x
                residual = criterion.normalized_residual(y0, x)
                if reuse:
                    pending_y = y0
                if residual <= self.tol:
                    history.append((0, residual))
                    if hooks is not None:
                        hooks.on_stop(StopReason.CONVERGED)
                    span.set_attribute("iterations", 0)
                    return SolverResult(
                        x=renormalize(x), iterations=0, residual=residual,
                        stop_reason=StopReason.CONVERGED,
                        residual_history=history,
                        runtime_s=time.perf_counter() - t0)
            norm_every = self.normalize_interval
            # Hooks and the fault injector see every sweep; otherwise one
            # advance() call runs up to the next renormalization (Jacobi
            # runs it in one backend call).  The first sweep after a
            # check consumes the check's product.
            stepwise = hooks is not None or inject
            while True:
                budget = min(self.check_interval,
                             self.max_iterations - iteration)
                done = 0
                while done < budget:
                    if pending_y is not None:
                        k = 1
                        x = self.step_from_product(x, pending_y)
                        pending_y = None
                    elif stepwise:
                        k = 1
                        x = self.step_once(x)
                    else:
                        k = budget - done
                        if norm_every is not None:
                            k = min(k, norm_every - iteration % norm_every)
                        x = self.advance(x, k)
                    iteration += k
                    done += k
                    if inject:
                        x, spec = injector.corrupt(
                            "solver.iterate", x, iteration)
                        if spec is not None:
                            report.faults_seen += 1
                            report.record(
                                iteration, f"fault:{spec.kind}",
                                "injected", detail="site solver.iterate")
                        # Scanning every sweep costs a pass over x, paid
                        # only while faults are injected, where waiting
                        # for the batch-end check would discard up to
                        # check_interval good sweeps per fault.
                        if sweep_guard and not np.all(np.isfinite(x)):
                            if recoveries < policy.max_recoveries:
                                x = rollback("nan-inf")
                            else:
                                break  # batch-end check reports DIVERGED
                    renorm = (norm_every is not None
                              and iteration % norm_every == 0)
                    if renorm:
                        try:
                            x = renormalize(x)
                        except ValidationError:
                            renorm = False  # the batch-end check recovers
                    # The batch's final iteration is reported after the
                    # residual check below, so its on_iteration call can
                    # carry the measured residual.
                    if hooks is not None and done < budget:
                        hooks.on_iteration(iteration, None, renorm)
                try:
                    x = renormalize(x)
                except ValidationError:
                    # Non-finite, or no mass left: roll back or stop.
                    if policy is not None \
                            and recoveries < policy.max_recoveries:
                        x = rollback("nan-inf")
                        if hooks is not None:
                            hooks.on_iteration(iteration, None, True)
                        continue
                    reason, residual = StopReason.DIVERGED, float("inf")
                    if hooks is not None:
                        hooks.on_iteration(iteration, residual, False)
                    break
                y = self.A @ x
                stop, residual = criterion.check(iteration, y, x)
                history.append((iteration, residual))
                if (policy is not None and stop is None
                        and np.isfinite(best_residual)
                        and residual
                        > policy.divergence_factor * best_residual):
                    if recoveries < policy.max_recoveries:
                        x = rollback("divergence")
                        if hooks is not None:
                            hooks.on_iteration(iteration, None, True)
                        continue
                    reason = StopReason.DIVERGED
                    if hooks is not None:
                        hooks.on_iteration(iteration, residual, True)
                    break
                # x survives this check unchanged, so the residual product
                # seeds the next batch's first step (no recomputation).
                if reuse:
                    pending_y = y
                best_residual = min(best_residual, residual)
                if hooks is not None:
                    hooks.on_iteration(iteration, residual, True)
                if stop is not None:
                    reason = stop
                    break
                if (time_budget_s is not None
                        and time.perf_counter() - t0 >= time_budget_s):
                    reason = StopReason.TIMED_OUT
                    break
                if iteration >= self.max_iterations:
                    reason = StopReason.MAX_ITERATIONS
                    break
                checks_done += 1
                if policy is not None \
                        and checks_done % policy.checkpoint_every == 0:
                    checkpoint = x.copy()
                    checkpoint_iteration = iteration
                    report.checkpoints += 1
                if checkpointer is not None:
                    checkpointer.maybe_save(
                        iteration, {"x": x},
                        self._checkpoint_meta(history, best_residual,
                                              checks_done, recoveries,
                                              criterion))
            span.set_attribute("iterations", iteration)
            span.set_attribute("residual", residual)
            span.set_attribute("stop_reason", reason.value)
            if report is not None and (report.rollbacks or report.faults_seen):
                span.set_attribute("rollbacks", report.rollbacks)
                span.set_attribute("faults_seen", report.faults_seen)
        runtime = time.perf_counter() - t0
        if hooks is not None:
            hooks.on_stop(reason)
        if reason is not StopReason.DIVERGED:
            x = renormalize(x)
        recovery = report if report is not None \
            and (report.rollbacks or report.faults_seen or report.events) \
            else None
        return SolverResult(x=x, iterations=iteration, residual=residual,
                            stop_reason=reason, residual_history=history,
                            runtime_s=runtime, recovery=recovery)
