"""A self-healing steady-state solver: guardrails plus a fallback chain.

:class:`ResilientSolver` presents the unified
:class:`~repro.solvers.base.SteadyStateSolver` front while running a
*chain* of methods behind it — by default the paper's Jacobi first,
then Gauss-Seidel (immune to Jacobi's bipartite oscillation and to its
need for damping), then GMRES on the normalization-constrained system
as a last resort.  Each attempt runs under the numerical guardrails of
:mod:`repro.resilience.guardrails`; a method that cannot even be
*constructed* (a singular splitting —
:class:`~repro.errors.SingularSystemError`) or that fails to converge
hands its final iterate to the next method as a warm start.

The combined :class:`~repro.solvers.result.SolverResult` reports the
total iteration count across attempts and carries a
:class:`~repro.resilience.guardrails.RecoveryReport` whose
``fallback_chain`` lists every method tried, in order.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import SingularSystemError, ValidationError
from repro.resilience.guardrails import RecoveryReport
from repro.solvers.jacobi import JACOBI_OPTIONS
from repro.telemetry import tracing

# NOTE: repro.solvers types (SolverResult, StopReason, SOLVER_REGISTRY)
# are imported lazily inside methods — repro.solvers/__init__ imports
# this module to register "resilient", after ``repro.solvers.jacobi``
# (imported above) but before the registry is complete.

#: The default fallback order (see module docstring).
DEFAULT_CHAIN = ("jacobi", "gauss-seidel", "gmres")

#: Constructor/solve options each chain method understands; anything a
#: caller passes is validated against the union and filtered per
#: method, so one options dict can configure the whole chain.
_METHOD_OPTIONS = {
    "jacobi": JACOBI_OPTIONS,
    "gauss-seidel": frozenset({"check_interval", "normalize_interval",
                               "stagnation_tol", "backend"}),
    "power": frozenset({"check_interval", "stagnation_tol",
                        "uniformization_factor", "backend"}),
    "gmres": frozenset({"restart"}),
}

#: GMRES is O(restart * n) memory per cycle and exists as a last
#: resort; cap its outer iterations independently of the relaxation
#: methods' (much larger) sweep budgets.
GMRES_MAX_ITERATIONS = 2000


class _SuppressStop:
    """Forward ``on_iteration`` but swallow per-attempt ``on_stop``.

    The chain fires the caller's ``on_stop`` exactly once, with the
    final stop reason, preserving the hooks contract across fallbacks.
    """

    def __init__(self, hooks) -> None:
        self._hooks = hooks

    def on_iteration(self, iteration, residual, renormalized) -> None:
        self._hooks.on_iteration(iteration, residual, renormalized)

    def on_stop(self, reason) -> None:
        pass


class ResilientSolver:
    """Steady-state solver with automatic method fallback.

    Parameters
    ----------
    matrix:
        The generator, as anything the chain members accept (SciPy
        sparse, dense, or a device :class:`~repro.sparse.base.SparseFormat`).
    tol, max_iterations:
        Stopping parameters applied to every chain member (GMRES's
        outer-iteration cap is additionally bounded by
        :data:`GMRES_MAX_ITERATIONS`).
    chain:
        Method names tried in order (keys of
        :data:`repro.solvers.SOLVER_REGISTRY` plus ``"gmres"``).
    guardrails:
        Forwarded to each iterative attempt (see
        :meth:`~repro.solvers.base.IterativeSolverBase.solve`).
    **options:
        Extra per-method options, filtered by :data:`_METHOD_OPTIONS`
        (e.g. ``damping=0.8`` reaches only the Jacobi attempt).
    """

    span_name = "resilient"

    def __init__(self, matrix, *, tol: float = 1e-8,
                 max_iterations: int = 500_000,
                 chain=DEFAULT_CHAIN,
                 guardrails=None,
                 **options):
        from repro.sparse.base import as_csr
        self.matrix = matrix
        if hasattr(matrix, "to_scipy"):
            self._csr = as_csr(matrix.to_scipy())
        else:
            self._csr = as_csr(matrix)
        if self._csr.shape[0] != self._csr.shape[1]:
            raise ValidationError("steady-state solve needs a square matrix")
        self.n = self._csr.shape[0]
        self.tol = float(tol)
        self.max_iterations = int(max_iterations)
        self.chain = tuple(str(m).lower().replace("_", "-") for m in chain)
        if not self.chain:
            raise ValidationError("chain must name at least one method")
        unknown = [m for m in self.chain if m not in _METHOD_OPTIONS]
        if unknown:
            raise ValidationError(
                f"unknown chain methods {unknown}; expected a subset of "
                f"{sorted(_METHOD_OPTIONS)}")
        allowed = frozenset().union(*(_METHOD_OPTIONS[m]
                                      for m in self.chain))
        bad = set(options) - allowed
        if bad:
            raise ValidationError(
                f"unknown solver options {sorted(bad)} for chain "
                f"{self.chain}; expected a subset of {sorted(allowed)}")
        self.options = dict(options)
        self.guardrails = guardrails

    def _options_for(self, method: str) -> dict:
        keys = _METHOD_OPTIONS[method]
        return {k: v for k, v in self.options.items() if k in keys}

    def _attempt(self, method: str, x0, budget_s, hooks,
                 validate_x0: bool = True) -> "SolverResult":
        """Run one chain member (may raise SingularSystemError)."""
        from repro.solvers import SOLVER_REGISTRY
        from repro.solvers.gmres import gmres_steady_state
        if method == "gmres":
            return gmres_steady_state(
                self._csr, tol=self.tol,
                max_iterations=min(self.max_iterations,
                                   GMRES_MAX_ITERATIONS),
                x0=x0, **self._options_for(method))
        solver = SOLVER_REGISTRY[method](
            self.matrix, tol=self.tol, max_iterations=self.max_iterations,
            **self._options_for(method))
        return solver.solve(x0=x0, time_budget_s=budget_s, hooks=hooks,
                            guardrails=self.guardrails,
                            validate_x0=validate_x0)

    def solve(self, x0=None, *, time_budget_s: float | None = None,
              hooks=None, validate_x0: bool = True) -> "SolverResult":
        """Try the chain until a method converges (or budget expires).

        A failed attempt's final iterate, when finite, warm-starts the
        next method — a stagnated Jacobi iterate oscillates *around*
        the answer, which Gauss-Seidel then reaches in a handful of
        sweeps.
        """
        from repro.solvers.result import SolverResult, StopReason
        if time_budget_s is not None and time_budget_s <= 0:
            raise ValidationError(
                f"time_budget_s must be positive, got {time_budget_s}")
        t0 = time.perf_counter()
        report = RecoveryReport()
        chain_hooks = None if hooks is None else _SuppressStop(hooks)
        total_iterations = 0
        chosen: SolverResult | None = None
        best: SolverResult | None = None
        last_error: Exception | None = None
        next_x0 = x0
        # Once a chain member's own iterate becomes the warm start, the
        # x0 scans are redundant (solver output is finite by the check
        # below); the caller's flag only governs the caller's x0.
        next_validate = validate_x0
        with tracing.span("resilient.solve", n=self.n,
                          chain=",".join(self.chain)) as span:
            for method in self.chain:
                budget = None
                if time_budget_s is not None:
                    budget = time_budget_s - (time.perf_counter() - t0)
                    if budget <= 0:
                        if report.fallback_chain:
                            break
                        # The first attempt always runs: a TIMED_OUT
                        # result with a partial iterate beats raising.
                        budget = min(time_budget_s, 1e-6)
                report.fallback_chain.append(method)
                try:
                    result = self._attempt(method, next_x0, budget,
                                           chain_hooks, next_validate)
                except SingularSystemError as exc:
                    last_error = exc
                    report.record(total_iterations, "singular-system",
                                  f"fallback:{method}", detail=str(exc))
                    continue
                total_iterations += result.iterations
                report.absorb(result.recovery)
                if result.converged \
                        or result.stop_reason is StopReason.TIMED_OUT:
                    chosen = result
                    break
                report.record(total_iterations, result.stop_reason.value,
                              f"fallback:{method}",
                              detail=f"residual {result.residual:.3e}")
                if best is None or result.residual < best.residual:
                    best = result
                if np.all(np.isfinite(result.x)):
                    next_x0 = result.x
                    next_validate = False
            if chosen is None:
                chosen = best
            if chosen is None:
                if last_error is not None:
                    raise last_error
                raise ValidationError(
                    "time budget expired before any chain attempt")
            span.set_attribute("iterations", total_iterations)
            span.set_attribute("stop_reason", chosen.stop_reason.value)
            span.set_attribute("methods_tried", len(report.fallback_chain))
        if hooks is not None:
            hooks.on_stop(chosen.stop_reason)
        return SolverResult(
            x=chosen.x, iterations=total_iterations,
            residual=chosen.residual, stop_reason=chosen.stop_reason,
            residual_history=chosen.residual_history,
            runtime_s=time.perf_counter() - t0,
            landscape=chosen.landscape, recovery=report)
