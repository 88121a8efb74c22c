"""The solver loop performs exactly one SpMV per iteration.

Historically each residual check recomputed ``A @ x`` on top of the
product :meth:`step_once` had already formed, charging an extra SpMV
every ``check_interval`` iterations.  With product reuse
(:attr:`IterativeSolverBase.supports_product_step`), a solve of ``I``
iterations performs exactly ``I + 1`` products: one per iteration plus
the final check's product, whose iterate is never advanced again.

The scipy ``@`` counts below pin the reference backend, whose sweeps
are those products; the native counterpart counts its fused sweeps
through the backend instead.
"""

import numpy as np
import scipy.sparse as sp

from repro.backends.native import NativeBackend
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


class CountingNative(NativeBackend):
    """The native backend, counting fused sweeps and kernel calls."""

    def __init__(self):
        self.sweeps = 0
        self.calls = 0

    def jacobi_sweep(self, A, diag, X, damping=1.0, out=None, sweeps=1):
        self.sweeps += sweeps
        self.calls += 1
        return super().jacobi_sweep(A, diag, X, damping, out, sweeps)


def counting_solver(backend="numpy", **kwargs):
    A = birth_death_generator()
    solver = JacobiSolver(A, backend=backend, **kwargs)
    counted = CountingCSR(solver.A)
    counted.matmul_count = 0
    solver.A = counted
    return solver, counted


def test_one_spmv_per_iteration_cold_start():
    # damping < 1: the bipartite birth-death chain oscillates plain.
    solver, counted = counting_solver(tol=1e-10, check_interval=25,
                                      damping=0.6)
    result = solver.solve()
    assert result.converged
    assert result.iterations > 25  # several check batches exercised
    assert counted.matmul_count == result.iterations + 1


def test_one_spmv_per_iteration_warm_start():
    solver, counted = counting_solver(tol=1e-12, check_interval=30,
                                      damping=0.6)
    x0 = np.random.default_rng(0).random(solver.n)
    result = solver.solve(x0=x0)
    assert counted.matmul_count == result.iterations + 1


def test_one_spmv_per_iteration_with_damping():
    solver, counted = counting_solver(tol=1e-10, check_interval=20,
                                      damping=0.8)
    result = solver.solve()
    assert counted.matmul_count == result.iterations + 1


def test_one_product_per_iteration_native():
    """Native: scipy products (checks) plus fused sweeps, one interval
    per kernel call, still total one product per iteration."""
    be = CountingNative()
    solver, counted = counting_solver(backend=be, tol=1e-10,
                                      check_interval=25, damping=0.6)
    result = solver.solve(x0=np.random.default_rng(2).random(solver.n))
    assert result.converged
    assert result.iterations > 25
    assert counted.matmul_count + be.sweeps == result.iterations + 1
    # One kernel call per renormalization interval, split at most once
    # more by each residual check.
    intervals = -(-result.iterations // solver.normalize_interval)
    assert 0 < be.calls <= intervals + len(result.residual_history)


def test_product_reuse_matches_plain_loop():
    """Product reuse must not change the answer at the bit level."""
    A = birth_death_generator()
    reference = JacobiSolver(A, tol=1e-10, check_interval=17, damping=0.6)
    reference.supports_product_step = False
    baseline = reference.solve()
    reused = JacobiSolver(A, tol=1e-10, check_interval=17,
                          damping=0.6).solve()
    assert reused.iterations == baseline.iterations
    assert reused.residual == baseline.residual
    np.testing.assert_array_equal(reused.x, baseline.x)


def test_step_from_product_equals_step_once():
    A = birth_death_generator()
    solver = JacobiSolver(A, damping=0.9)
    x = np.random.default_rng(1).random(solver.n)
    np.testing.assert_array_equal(solver.step_from_product(x, solver.A @ x),
                                  solver.step_once(x))


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
