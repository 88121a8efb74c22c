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

Two step backends:

``"fast"``
    The CSR sweep ``x' = -(A x - d∘x) / d``.  A non-reference kernel
    backend runs it fused, one ``jacobi_sweep`` call per
    renormalization interval (the native backend sweeps an 8-row
    sliced copy of the matrix); the reference evaluates the NumPy
    expression.  The iterates are bitwise identical either way.
``"format"``
    The format object's own ``jacobi_step`` — the exact arithmetic of
    the corresponding fused GPU/CPU kernel (ELL+DIA, warped ELL+DIA,
    CSR+DIA); tests cross-check the two backends.
"""

from __future__ import annotations

import numpy as np

from repro import backends
from repro.errors import SingularSystemError, ValidationError
from repro.solvers.base import IterativeSolverBase
from repro.sparse.base import SparseFormat, as_csr

STEP_BACKENDS = ("fast", "format")

#: The damping the library applies where it chooses one for the caller:
#: :class:`~repro.serve.SolveService`'s ``default_damping`` and adaptive
#: FSP's inner ``jacobi`` solves.  A generator whose Jacobi iteration
#: matrix has an eigenvalue at -1 (phage lambda's does) makes undamped
#: sweeps oscillate with period 2 at a flat residual; damping ``omega``
#: moves that eigenvalue to ``1 - 2*omega``, inside the unit circle.
DEFAULT_DAMPING = 0.9


class JacobiSolver(IterativeSolverBase):
    """Steady-state Jacobi solver over any Jacobi-capable format.

    Parameters
    ----------
    matrix:
        Either a device format with a ``jacobi_step`` method
        (:class:`~repro.sparse.ell_dia.ELLDIAMatrix`,
        :class:`~repro.sparse.warped_ell.WarpedELLMatrix` with
        ``separate_diagonal=True``, :class:`~repro.sparse.csr.CSRMatrix`,
        :class:`~repro.cpu.baseline.CSRDIABaseline`) or anything
        convertible to SciPy CSR (used directly with the fast backend).
    tol, max_iterations:
        The paper's ``epsilon = 1e-8`` and ``10^6`` cap (Section VII-D).
    check_interval:
        Iterations between residual evaluations.
    normalize_interval:
        Iterations between probability renormalizations.
    stagnation_tol:
        Stagnation threshold (``None`` disables).
    step:
        ``"fast"`` or ``"format"`` (see module docstring).
    damping:
        Weighted-Jacobi factor ``omega`` in (0, 1]: the update becomes
        ``x <- (1 - omega) x + omega J(x)``.  ``1.0`` is the paper's
        plain iteration; any ``omega < 1`` pulls every non-unit
        eigenvalue of the iteration matrix strictly inside the unit
        circle, restoring convergence for operators with rotating
        spectra (oscillatory networks on their limit cycle).
    backend:
        Kernel backend for the fast step's fused sweep (a name, a
        :class:`~repro.backends.protocol.KernelBackend` instance, or
        ``None`` for the ambient selection — see
        :func:`repro.backends.resolve`).  A non-reference backend runs
        the fused ``jacobi_sweep`` primitive; the reference keeps the
        historical inline NumPy step.  Either way the iterates are
        bitwise identical.
    """

    span_name = "jacobi"

    def __init__(self, matrix, *, tol: float = 1e-8,
                 max_iterations: int = 1_000_000,
                 check_interval: int = 100,
                 normalize_interval: int = 10,
                 stagnation_tol: float | None = 1e-6,
                 step: str = "fast",
                 damping: float = 1.0,
                 backend=None):
        if step not in STEP_BACKENDS:
            raise ValidationError(
                f"unknown step backend {step!r}; expected {STEP_BACKENDS}")
        if normalize_interval is None:
            raise ValidationError("intervals must be positive")
        if not (0.0 < damping <= 1.0):
            raise ValidationError(f"damping must be in (0, 1], got {damping}")
        self.damping = float(damping)
        self.format = matrix if hasattr(matrix, "jacobi_step") else None
        if step == "format" and self.format is None:
            raise ValidationError(
                f"{type(matrix).__name__} has no jacobi_step; "
                f"use step='fast' or a Jacobi-capable format")
        if isinstance(matrix, SparseFormat) or hasattr(matrix, "to_scipy"):
            A = matrix.to_scipy()
        elif hasattr(matrix, "csr") and hasattr(matrix, "dia"):
            # CSRDIABaseline-style split object.
            A = as_csr(matrix.csr.to_scipy() + matrix.dia.to_scipy())
        else:
            A = as_csr(matrix)
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
        self.step_backend = step
        self.backend = backend
        if backend is not None:
            backends.resolve(backend)   # fail fast on unknown names
        # The fast backend's product is the CSR ``A @ x`` the residual
        # check also computes, so the check's product can seed the next
        # step bit-for-bit.  The format backend's own traversal order
        # differs at the bit level, so it keeps the plain loop.
        self.supports_product_step = step == "fast"

    # -- steps -----------------------------------------------------------------

    def _select_backend(self):
        """Resolve the kernel backend once per solve (see base class)."""
        if self.step_backend != "fast":
            # The format step keeps the format's own kernel; the solve
            # still resolves a backend for the residual primitive.
            return super()._select_backend()
        return backends.serving("", "jacobi_sweep", self.backend)

    def _fast_step(self, x: np.ndarray) -> np.ndarray:
        y = self.A @ x
        return -(y - self.diagonal * x) / self.diagonal

    def _format_step(self, x: np.ndarray) -> np.ndarray:
        return self.format.jacobi_step(x)

    def step_once(self, x: np.ndarray) -> np.ndarray:
        """One (possibly damped) Jacobi iteration."""
        be = self._active_backend
        if (self.step_backend == "fast" and be is not None
                and not be.is_reference):
            # The fused sweep folds the product, update and damping into
            # one kernel call; its iterates match the inline path bitwise.
            return be.jacobi_sweep(self.A, self.diagonal, x,
                                   damping=self.damping)
        new = (self._format_step(x) if self.step_backend == "format"
               else self._fast_step(x))
        if self.damping != 1.0:
            return (1.0 - self.damping) * x + self.damping * new
        return new

    def advance(self, x: np.ndarray, k: int) -> np.ndarray:
        """*k* Jacobi iterations; a non-reference backend runs all of
        them in one fused ``jacobi_sweep(sweeps=k)`` call, bitwise equal
        to *k* :meth:`step_once` calls."""
        be = self._active_backend
        if (self.step_backend == "fast" and be is not None
                and not be.is_reference):
            return be.jacobi_sweep(self.A, self.diagonal, x,
                                   damping=self.damping, sweeps=k)
        return super().advance(x, k)

    def step_from_product(self, x: np.ndarray,
                          y: np.ndarray) -> np.ndarray:
        """One fast-backend iteration from an existing ``y = A @ x``."""
        new = -(y - self.diagonal * x) / self.diagonal
        if self.damping != 1.0:
            return (1.0 - self.damping) * x + self.damping * new
        return new

    # ``solve(x0=None, *, time_budget_s=None, hooks=None)`` comes from
    # IterativeSolverBase — the unified Section IV loop.
