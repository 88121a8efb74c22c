"""Power iteration on the uniformized stochastic matrix.

The paper's closing observation — the GPU steady-state machinery
"can be generalized to operation on stochastic matrices (Markov
models)" — corresponds to iterating ``x <- S x`` with
``S = I + A / Lambda`` (uniformization): ``S`` is a column-stochastic
matrix whose dominant eigenvector is the CME steady state.  Unlike the
Jacobi iteration, each step preserves the unit L1 norm exactly, so
renormalization is only needed against floating-point drift (the
unified loop renormalizes at residual checks only —
``normalize_interval=None``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import ValidationError
from repro.solvers.base import IterativeSolverBase
from repro.sparse.base import as_csr


class PowerIterationSolver(IterativeSolverBase):
    """Steady state via power iteration on the uniformized matrix.

    Parameters
    ----------
    matrix:
        The rate matrix (generator), anything convertible to CSR.
    uniformization_factor:
        ``Lambda = factor * max exit rate`` (> 1 guards aperiodicity).
    tol, max_iterations, check_interval, stagnation_tol:
        As in :class:`~repro.solvers.jacobi.JacobiSolver`; the residual
        is measured on the original generator.  ``solve(x0=None, *,
        time_budget_s=None, hooks=None)`` is the unified loop.
    """

    span_name = "power"

    def __init__(self, matrix, *,
                 uniformization_factor: float = 1.05,
                 tol: float = 1e-8, max_iterations: int = 1_000_000,
                 check_interval: int = 100,
                 stagnation_tol: float | None = 1e-6,
                 backend=None):
        self.backend = backend
        self._init_common(as_csr(matrix), tol=tol,
                          max_iterations=max_iterations,
                          check_interval=check_interval,
                          normalize_interval=None,
                          stagnation_tol=stagnation_tol)
        if uniformization_factor <= 1.0:
            raise ValidationError("uniformization_factor must exceed 1")
        exit_rates = -self.A.diagonal()
        lam = float(exit_rates.max())
        if lam <= 0:
            raise ValidationError("matrix has no outgoing transitions")
        lam *= uniformization_factor
        self.S = as_csr(sp.eye(self.n, format="csr")
                        + self.A.multiply(1.0 / lam))

    def step_once(self, x: np.ndarray) -> np.ndarray:
        """One stochastic step ``x <- S x`` (norm-preserving)."""
        return self.S @ x
