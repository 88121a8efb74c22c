"""The solver loop's exact count: one sweep per iteration, one product
per residual check.

Every iteration is a sweep, and each residual check computes its own
product ``A @ x``: the check's product sums each row in CSR order, so
it cannot stand in for the next sweep, which sums the paper's ELL+DIA
split in its own order.  A solve of ``I`` iterations therefore runs
exactly ``I`` sweeps and ``C + E`` products: one per residual check
(the warm start's included) and one for each of the ``E`` extrapolated
candidates the stop tests (counted by a spy on
:class:`~repro.solvers.stopping.Extrapolator`).  The sweeps are
counted through the kernel backend; the native one runs at most one
kernel call per renormalization interval.
"""

import numpy as np
import scipy.sparse as sp

from repro.backends.native import NativeBackend
from repro.backends.reference import NumpyBackend
from repro.sparse.base import as_csr
from repro.solvers.base import matrix_derived
from repro.solvers.jacobi import JacobiSolver


class CountingCSR(sp.csr_matrix):
    """A CSR matrix that counts its ``@`` products."""

    def __matmul__(self, other):
        self.matmul_count = getattr(self, "matmul_count", 0) + 1
        return super().__matmul__(other)


def birth_death_generator(n=80, birth=4.0, death=1.0):
    ks = np.arange(n)
    up = np.full(n - 1, birth)
    down = death * ks[1:]
    A = sp.diags([up, -(np.r_[up, 0.0] + np.r_[0.0, down]), down],
                 offsets=[-1, 0, 1], format="csr")
    return as_csr(A)


class Counting:
    """A backend counting its fused sweeps and kernel calls."""

    def __init__(self):
        self.sweeps = 0
        self.calls = 0

    def jacobi_sweep(self, A, diag, X, damping=1.0, out=None, sweeps=1):
        self.sweeps += sweeps
        self.calls += 1
        return super().jacobi_sweep(A, diag, X, damping, out, sweeps)


class CountingNumpy(Counting, NumpyBackend):
    pass


class CountingNative(Counting, NativeBackend):
    pass


def counting_solver(backend, **kwargs):
    A = birth_death_generator()
    solver = JacobiSolver(A, backend=backend, **kwargs)
    counted = CountingCSR(solver.A)
    counted.matmul_count = 0
    solver.A = counted
    return solver, counted


def checks(result, warm=False) -> int:
    """Residual checks of a solve: one per checked iteration in its
    history (an extrapolated stop adds an entry at the same
    iteration), plus a warm start's check of ``x0``."""
    return len({i for i, _ in result.residual_history}) + int(warm)


def test_one_spmv_per_iteration_cold_start(candidates):
    # damping < 1: the bipartite birth-death chain oscillates plain.
    be = CountingNumpy()
    solver, counted = counting_solver(be, tol=1e-10, check_interval=25,
                                      damping=0.6)
    result = solver.solve()
    assert result.converged
    assert result.iterations > 25  # several check batches exercised
    assert candidates  # the stop's products are exercised too
    assert be.sweeps == result.iterations
    assert counted.matmul_count == checks(result) + len(candidates)


def test_one_spmv_per_iteration_warm_start(candidates):
    be = CountingNumpy()
    solver, counted = counting_solver(be, tol=1e-12, check_interval=30,
                                      damping=0.6)
    x0 = np.random.default_rng(0).random(solver.n)
    result = solver.solve(x0=x0)
    assert be.sweeps == result.iterations
    assert counted.matmul_count == checks(result, warm=True) \
        + len(candidates)


def test_one_spmv_per_iteration_with_damping(candidates):
    be = CountingNumpy()
    solver, counted = counting_solver(be, tol=1e-10, check_interval=20,
                                      damping=0.8)
    result = solver.solve()
    assert be.sweeps == result.iterations
    assert counted.matmul_count == checks(result) + len(candidates)


def test_one_product_per_iteration_native(candidates):
    """Native: the same sweeps and products, and one kernel call per
    renormalization interval (30 iterations between checks are three
    whole intervals)."""
    be = CountingNative()
    solver, counted = counting_solver(be, tol=1e-10, check_interval=30,
                                      damping=0.6)
    result = solver.solve(x0=np.random.default_rng(2).random(solver.n))
    assert result.converged
    assert result.iterations > 30
    assert candidates
    assert be.sweeps == result.iterations
    assert counted.matmul_count == checks(result, warm=True) \
        + len(candidates)
    assert be.calls == result.iterations // solver.normalize_interval


def test_matrix_derived_cached_per_object():
    A = birth_death_generator()
    first = matrix_derived(A)
    assert matrix_derived(A) is first  # same dict, no re-derivation
    # The solver's canonicalized copy gets its own entry, and the
    # solver's diagonal is exactly that entry's cached array.
    s1 = JacobiSolver(A)
    assert matrix_derived(s1.A)["diagonal"] is s1.diagonal
    # A different (equal-valued) object derives its own entry.
    B = birth_death_generator()
    assert matrix_derived(B) is not first
