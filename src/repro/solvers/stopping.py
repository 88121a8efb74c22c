"""The paper's stopping criterion (Section IV).

Since the right-hand side is zero, the residual is normalized by the
matrix and solution norms::

    ||A x||_inf / (||A||_inf * ||x||_inf)  <=  epsilon

A practical criterion also caps the iteration count and detects
*stagnation* — the residual no longer decreasing (or decreasing too
slowly) between consecutive checks::

    (||r_{k+1}||_inf - ||r_k||_inf) / ||r_k||_inf  >=  -stagnation_tol

Because the residual evaluation costs about as much as an iteration,
the solver invokes this object only every ``check_interval`` steps.

:class:`Extrapolator` can end the loop sooner: near convergence the
error of a stationary iteration shrinks by a near-constant ratio ``r``
per check, so the last three checked iterates extrapolate to the limit
of their geometric tail.  The extrapolation is returned only when it
passes the same residual test.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.solvers.normalization import renormalize
from repro.solvers.result import StopReason


class StoppingCriterion:
    """Stateful convergence test for zero-RHS iterations.

    Parameters
    ----------
    matrix_inf_norm:
        ``||A||_inf`` (precomputed once).
    tol:
        The paper's ``epsilon`` (1e-8 in Section VII-D).
    max_iterations:
        Hard cap (1e6 in Section VII-D).
    stagnation_tol:
        Minimum relative residual decrease per check to keep going;
        ``None`` disables the stagnation test.
    min_checks_before_stagnation:
        Grace period — early checks often plateau before the dominant
        eigen-gap kicks in.
    stagnation_patience:
        Consecutive stagnant checks required before stopping; guards
        against the oscillating residuals of operators with complex
        subdominant eigenvalues (the Brusselator's rotating dynamics).
    backend:
        Optional :class:`~repro.backends.protocol.KernelBackend` whose
        ``residual`` primitive computes the two inf-norms (``None``
        keeps the inline NumPy reductions).  Both produce the exact
        same floats — ``|.|`` and ``max`` involve no rounding.
    """

    def __init__(self, matrix_inf_norm: float, *, tol: float = 1e-8,
                 max_iterations: int = 1_000_000,
                 stagnation_tol: float | None = 1e-6,
                 min_checks_before_stagnation: int = 5,
                 stagnation_patience: int = 3,
                 backend=None):
        if matrix_inf_norm < 0:
            raise ValidationError("matrix norm must be non-negative")
        if tol <= 0:
            raise ValidationError("tol must be positive")
        if max_iterations <= 0:
            raise ValidationError("max_iterations must be positive")
        self.matrix_inf_norm = float(matrix_inf_norm)
        self.tol = float(tol)
        self.max_iterations = int(max_iterations)
        self.stagnation_tol = stagnation_tol
        self.min_checks = int(min_checks_before_stagnation)
        self.stagnation_patience = max(1, int(stagnation_patience))
        self._backend = backend
        self._best_residual: float | None = None
        self._checks = 0
        self._stagnant_streak = 0

    def normalized_residual(self, residual_vec: np.ndarray,
                            x: np.ndarray) -> float:
        """``||r||_inf / (||A||_inf ||x||_inf)`` (0 when degenerate)."""
        if self._backend is not None:
            y_norm, x_norm = self._backend.residual(residual_vec, x)
        else:
            x_norm = float(np.abs(x).max()) if x.size else 0.0
            y_norm = None
        denom = self.matrix_inf_norm * x_norm
        if denom == 0.0:
            return 0.0
        if y_norm is None:
            y_norm = float(np.abs(residual_vec).max())
        return y_norm / denom

    def check(self, iteration: int, residual_vec: np.ndarray,
              x: np.ndarray) -> tuple[StopReason | None, float]:
        """Evaluate the criterion; returns ``(reason or None, residual)``."""
        if not np.all(np.isfinite(x)):
            return StopReason.DIVERGED, float("inf")
        res = self.normalized_residual(residual_vec, x)
        self._checks += 1
        if res <= self.tol:
            return StopReason.CONVERGED, res
        # Stagnation against the best residual seen so far: residuals of
        # operators with complex subdominant eigenvalues *oscillate*
        # while their envelope decreases, so a previous-check comparison
        # would fire spuriously mid-swing.
        if self._best_residual is None or not np.isfinite(self._best_residual):
            self._best_residual = res
        elif (self.stagnation_tol is not None
              and self._checks > self.min_checks
              and self._best_residual > 0):
            improvement = (self._best_residual - res) / self._best_residual
            if improvement < self.stagnation_tol:
                self._stagnant_streak += 1
                if self._stagnant_streak >= self.stagnation_patience:
                    return StopReason.STAGNATED, res
            else:
                self._stagnant_streak = 0
        self._best_residual = min(self._best_residual, res)
        if iteration >= self.max_iterations:
            return StopReason.MAX_ITERATIONS, res
        return None, res

    def reset(self) -> None:
        """Clear the stagnation state for a fresh solve."""
        self._best_residual = None
        self._checks = 0
        self._stagnant_streak = 0

    def state_dict(self) -> dict:
        """The mutable criterion state, JSON-serializable.

        Captured into durable checkpoints so a resumed solve makes the
        *same* stagnation decisions the uninterrupted one would — the
        test compares against the best residual seen so far, which
        would otherwise restart empty.
        """
        return {"best_residual": self._best_residual,
                "checks": self._checks,
                "stagnant_streak": self._stagnant_streak}

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (checkpoint resume)."""
        best = state.get("best_residual")
        self._best_residual = None if best is None else float(best)
        self._checks = int(state.get("checks", 0))
        self._stagnant_streak = int(state.get("stagnant_streak", 0))


class Extrapolator:
    """The extrapolated stop, from the last three checked iterates.

    A loop hands every checked, renormalized iterate that did not stop
    to :meth:`stop`.  With the two previous ones ``x0`` and ``x1`` and
    the current ``x2``::

        d1 = x1 - x0,   d2 = x2 - x1,   r = (d2 . d1) / (d1 . d1)

    and for ``0 < r < 1`` the candidate is ``x2 + d2 r / (1 - r)``,
    clipped at 0 and renormalized: the limit of a geometric tail with
    ratio ``r``.  :meth:`stop` returns it only when its own residual
    passes the criterion's ``tol``.  A rejected candidate is discarded;
    the loop's iterate and product are untouched, so the trajectory is
    the plain loop's.

    It holds two n-vectors.  Each candidate costs one more product.
    The vectors are contiguous copies and the dot products NumPy's
    pairwise sums, so any loop that feeds it the same iterates gets the
    same bits (a strided batch column included).  A rollback clears it
    (:meth:`reset`): the iterates must come from consecutive checks.
    """

    def __init__(self):
        self._x0: np.ndarray | None = None
        self._x1: np.ndarray | None = None

    @property
    def depth(self) -> int:
        """Checked iterates held (0, 1 or 2)."""
        return (self._x0 is not None) + (self._x1 is not None)

    @property
    def previous(self) -> np.ndarray | None:
        """The iterate checked before the latest one (checkpoints save
        it; the latest is the loop's own iterate)."""
        return self._x0

    def reset(self) -> None:
        self._x0 = self._x1 = None

    def restore(self, x: np.ndarray, previous: np.ndarray | None,
                depth: int) -> None:
        """Reload the state a checkpoint saved with the iterate *x*.
        A depth-2 state whose *previous* is missing restarts empty."""
        self.reset()
        if depth >= 2 and previous is None:
            return
        if depth >= 1:
            self._x1 = np.array(x, dtype=np.float64)
        if depth >= 2:
            self._x0 = np.array(previous, dtype=np.float64)

    def candidate(self, x: np.ndarray) -> np.ndarray | None:
        """Record the checked iterate *x*; return the extrapolation of
        the last three, or ``None`` when ``r`` is outside (0, 1)."""
        x2 = np.array(x, dtype=np.float64)
        z = None
        if self._x0 is not None:
            d1 = self._x1 - self._x0
            d2 = x2 - self._x1
            dd = float((d1 * d1).sum())
            r = float((d2 * d1).sum()) / dd if dd > 0.0 else 0.0
            if 0.0 < r < 1.0:
                try:
                    z = renormalize(x2 + d2 * (r / (1.0 - r)))
                except ValidationError:
                    z = None
        self._x0, self._x1 = self._x1, x2
        return z

    def stop(self, x: np.ndarray, product, criterion: StoppingCriterion
             ) -> tuple[np.ndarray, float] | None:
        """``(candidate, its residual)`` when the candidate of *x*
        passes ``criterion.tol``, else ``None``.  ``product(z)`` is the
        loop's ``A @ z``."""
        z = self.candidate(x)
        if z is None:
            return None
        res = criterion.normalized_residual(product(z), z)
        return (z, res) if res <= criterion.tol else None
