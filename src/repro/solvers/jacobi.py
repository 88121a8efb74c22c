"""The Jacobi steady-state solver (Section IV).

For ``A x = 0`` the component-wise iteration is::

    x_i^(k+1) = -(1/a_ii) * sum_{j != i} a_ij x_j^(k)

i.e. one off-diagonal SpMV plus a division — which is why the paper
builds the solver directly on its SpMV formats.  Because the steady
state is the eigenvector of the iteration matrix ``M = I - D^{-1} A``
at eigenvalue exactly 1 (the spectral radius for an irreducible
generator), the iterate's scale drifts; it is renormalized to a
probability vector every ``normalize_interval`` steps, and the
(expensive) residual test runs only every ``check_interval`` steps —
both as prescribed in Section IV.

Every iteration is the kernel backend's fused sweep
``x' = -(A x - d∘x) / d`` on the CSR generator, one ``jacobi_sweep``
call per renormalization interval (the native backend sweeps an 8-row
sliced copy of the matrix; the ``numpy`` reference evaluates the NumPy
expression).  The iterates are bitwise identical on every backend.  The
formats' own ``jacobi_step`` methods keep the exact arithmetic of the
corresponding fused GPU/CPU kernels for the gpusim cross-checks.
"""

from __future__ import annotations

import numpy as np

from repro import backends
from repro.errors import SingularSystemError, ValidationError
from repro.solvers.base import IterativeSolverBase
from repro.sparse.base import as_csr

#: The damping the library applies where it chooses one for the caller:
#: :class:`~repro.serve.SolveService`'s ``default_damping`` and adaptive
#: FSP's inner ``jacobi`` solves.  A generator whose Jacobi iteration
#: matrix has an eigenvalue at -1 (phage lambda's does) makes undamped
#: sweeps oscillate with period 2 at a flat residual; damping ``omega``
#: moves that eigenvalue to ``1 - 2*omega``, inside the unit circle.
DEFAULT_DAMPING = 0.9


class JacobiSolver(IterativeSolverBase):
    """Steady-state Jacobi solver on the kernel backend's fused sweep.

    Parameters
    ----------
    matrix:
        The generator: anything with a ``to_scipy()`` method (every
        device format, :class:`~repro.cpu.baseline.CSRDIABaseline`) or
        anything convertible to SciPy CSR.
    tol, max_iterations:
        The paper's ``epsilon = 1e-8`` and ``10^6`` cap (Section VII-D).
    check_interval:
        Iterations between residual evaluations.
    normalize_interval:
        Iterations between probability renormalizations.
    stagnation_tol:
        Stagnation threshold (``None`` disables).
    damping:
        Weighted-Jacobi factor ``omega`` in (0, 1]: the update becomes
        ``x <- (1 - omega) x + omega J(x)``.  ``1.0`` is the paper's
        plain iteration; any ``omega < 1`` pulls every non-unit
        eigenvalue of the iteration matrix strictly inside the unit
        circle, restoring convergence for operators with rotating
        spectra (oscillatory networks on their limit cycle).
    backend:
        Kernel backend for the fused sweep (a name, a
        :class:`~repro.backends.protocol.KernelBackend` instance, or
        ``None`` for the ambient selection — see
        :func:`repro.backends.resolve`).  Every backend's iterates are
        bitwise identical.
    """

    span_name = "jacobi"

    #: The sweep's product is the CSR ``A @ x`` the residual check also
    #: computes, so the check's product seeds the next step bit-for-bit.
    supports_product_step = True

    def __init__(self, matrix, *, tol: float = 1e-8,
                 max_iterations: int = 1_000_000,
                 check_interval: int = 100,
                 normalize_interval: int = 10,
                 stagnation_tol: float | None = 1e-6,
                 damping: float = 1.0,
                 backend=None):
        if normalize_interval is None:
            raise ValidationError("intervals must be positive")
        if not (0.0 < damping <= 1.0):
            raise ValidationError(f"damping must be in (0, 1], got {damping}")
        self.damping = float(damping)
        A = (matrix.to_scipy() if hasattr(matrix, "to_scipy")
             else as_csr(matrix))
        self._init_common(A, tol=tol, max_iterations=max_iterations,
                          check_interval=check_interval,
                          normalize_interval=normalize_interval,
                          stagnation_tol=stagnation_tol)
        # The diagonal comes from the shared derived-quantity cache, so
        # repeated solver constructions on one matrix skip re-extraction.
        self.diagonal = self._derived["diagonal"]
        zero_rows = np.flatnonzero(self.diagonal == 0.0)
        if zero_rows.size:
            raise SingularSystemError(
                "Jacobi iteration needs a nonzero diagonal "
                f"(zero at rows {zero_rows[:5].tolist()})",
                rows=zero_rows[:5].tolist())
        self.backend = backend
        if backend is not None:
            backends.resolve(backend)   # fail fast on unknown names

    # -- steps -----------------------------------------------------------------

    def _select_backend(self):
        """Resolve the kernel backend once per solve (see base class)."""
        return backends.serving("", "jacobi_sweep", self.backend)

    def step_once(self, x: np.ndarray) -> np.ndarray:
        """One (possibly damped) Jacobi iteration."""
        return self.advance(x, 1)

    def advance(self, x: np.ndarray, k: int) -> np.ndarray:
        """*k* Jacobi iterations in one fused ``jacobi_sweep(sweeps=k)``
        call, bitwise equal to *k* single sweeps."""
        be = self._active_backend or self._select_backend()
        return be.jacobi_sweep(self.A, self.diagonal, x,
                               damping=self.damping, sweeps=k)

    def step_from_product(self, x: np.ndarray,
                          y: np.ndarray) -> np.ndarray:
        """One iteration from an existing ``y = A @ x``."""
        new = -(y - self.diagonal * x) / self.diagonal
        if self.damping != 1.0:
            return (1.0 - self.damping) * x + self.damping * new
        return new

    # ``solve(x0=None, *, time_budget_s=None, hooks=None)`` comes from
    # IterativeSolverBase — the unified Section IV loop.
