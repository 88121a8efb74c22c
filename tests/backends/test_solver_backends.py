"""Solver-level backend wiring: selection, parity, fast re-validation.

The conformance suite proves kernel-level parity; these tests prove the
*solvers* keep that parity end to end — same iterates, same residuals,
same iteration counts — regardless of which backend serves the sweep,
and that backend selection reaches every solver entry point (ctor arg,
``use()`` context, batched modes, the resilient chain).
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import (
    GaussSeidelSolver,
    JacobiSolver,
    build_rate_matrix,
    enumerate_state_space,
    toggle_switch,
)
from repro import backends, sparse
from repro.cpu.baseline import CSRDIABaseline
from repro.errors import ValidationError
from repro.solvers.batched import BatchedJacobiSolver
from repro.sparse.base import SparseFormat

#: Every available non-reference backend — each must reproduce the
#: reference solve bit for bit.  References pin ``backend="numpy"``:
#: the ambient default is ``native`` wherever it compiles.
NATIVE = [n for n in backends.available_backends()
          if not backends.get_backend(n).is_reference]


def small_generator():
    space = enumerate_state_space(toggle_switch(max_protein=6))
    return build_rate_matrix(space)


@pytest.mark.parametrize("name", NATIVE)
def test_jacobi_solve_bitwise_matches_reference(name):
    # A bounded budget keeps this fast: parity means identical
    # trajectories, so the capped runs must match exactly too.
    A = small_generator()
    kw = dict(tol=1e-10, max_iterations=3000, stagnation_tol=None)
    ref = JacobiSolver(A, **kw, backend="numpy").solve()
    got = JacobiSolver(A, **kw, backend=name).solve()
    assert got.iterations == ref.iterations
    assert got.residual == ref.residual
    assert np.array_equal(got.x, ref.x)


@pytest.mark.parametrize("name", NATIVE)
def test_jacobi_damped_solve_bitwise_matches_reference(name):
    A = small_generator()
    ref = JacobiSolver(A, tol=1e-10, damping=0.9, backend="numpy").solve()
    got = JacobiSolver(A, tol=1e-10, damping=0.9, backend=name).solve()
    assert got.iterations == ref.iterations
    assert np.array_equal(got.x, ref.x)


@pytest.mark.parametrize("name", NATIVE)
def test_use_context_reaches_solver_sweeps(name):
    A = small_generator()
    backends.reset_kernel_stats()
    with backends.use(name):
        JacobiSolver(A, tol=1e-10, max_iterations=500,
                     stagnation_tol=None).solve()
    stats = backends.kernel_stats()
    assert stats.get((name, "", "jacobi_sweep"), 0) >= 1


def assert_batched_matches_reference(systems, name):
    kw = dict(tol=1e-10, max_iterations=1000, stagnation_tol=None)
    ref = BatchedJacobiSolver.stacked(systems, **kw, backend="numpy")
    expected = ref.solve_many()
    nat = BatchedJacobiSolver.stacked(systems, **kw, backend=name)
    got = nat.solve_many()
    for a, b in zip(expected, got):
        assert b.iterations == a.iterations
        assert b.stop_reason is a.stop_reason
        assert np.array_equal(b.x, a.x)
    # Amortization accounting is backend-independent: one product per
    # stacked sweep, plus one per column per residual check.
    assert nat.sweeps == ref.sweeps
    checks = sum(len({i for i, _ in r.residual_history}) for r in got)
    assert nat.products == ref.products == nat.sweeps + checks


@pytest.mark.parametrize("name", NATIVE)
def test_batched_shared_matches_reference(name):
    A = small_generator()
    assert_batched_matches_reference([A] * 3, name)  # one shared generator


@pytest.mark.parametrize("name", NATIVE)
def test_batched_stacked_matches_reference(name):
    A = small_generator()
    # Same steady state, distinct rates.
    assert_batched_matches_reference([A, A * 1.5], name)


@pytest.mark.parametrize("name", NATIVE)
def test_gauss_seidel_accepts_backend(name):
    # Gauss-Seidel has no fused sweep; the backend serves only the
    # residual primitive, which is rounding-free — results must be
    # bitwise independent of the selection.
    A = small_generator()
    ref = GaussSeidelSolver(A, tol=1e-10, backend="numpy").solve()
    got = GaussSeidelSolver(A, tol=1e-10, backend=name).solve()
    assert got.iterations == ref.iterations
    assert np.array_equal(got.x, ref.x)


@pytest.mark.skipif("native" not in backends.available_backends(),
                    reason="native kernels do not build here")
def test_native_solves_leave_no_dead_iterates_alive():
    """Every iterate a native sweep hands back is collectable once the
    solve returns — nothing (e.g. a pointer cache on the matrix) pins
    them, while the solvers and their matrices stay alive."""
    import gc
    import weakref

    from repro.backends.native import NativeBackend

    refs = []

    class Recording(NativeBackend):
        def jacobi_sweep(self, *args, **kwargs):
            out = super().jacobi_sweep(*args, **kwargs)
            refs.append(weakref.ref(out))
            return out

        def jacobi_sweep_many(self, *args, **kwargs):
            out = super().jacobi_sweep_many(*args, **kwargs)
            refs.append(weakref.ref(out))
            return out

    A = small_generator()
    kw = dict(tol=1e-10, max_iterations=300, stagnation_tol=None,
              backend=Recording())
    single = JacobiSolver(A, **kw)
    single.solve()
    stacked = BatchedJacobiSolver.stacked([A, A * 1.5], **kw)
    stacked.solve_many()
    gc.collect()
    assert len(refs) > 2
    assert all(r() is None for r in refs)


def test_unknown_backend_fails_at_construction():
    A = small_generator()
    from repro.errors import BackendError
    with pytest.raises(BackendError):
        JacobiSolver(A, backend="no-such-backend")
    with pytest.raises(BackendError):
        BatchedJacobiSolver.stacked([A], backend="no-such-backend")


# -- warm-start re-validation ------------------------------------------------


def test_validate_x0_true_rejects_bad_iterates():
    A = small_generator()
    solver = JacobiSolver(A, tol=1e-10)
    n = A.shape[0]
    bad = np.ones(n)
    bad[3] = -1.0
    with pytest.raises(ValidationError):
        solver.solve(x0=bad)
    nan = np.ones(n)
    nan[3] = np.nan
    with pytest.raises(ValidationError):
        solver.solve(x0=nan)


def test_validate_x0_false_preserves_results():
    """Skipping the scans is a fast path, never a different answer."""
    A = small_generator()
    # Damping breaks the bipartite oscillation, so this converges in
    # a handful of sweeps instead of running to the stagnation check.
    solver = JacobiSolver(A, tol=1e-10, damping=0.9)
    first = solver.solve()
    again = solver.solve(x0=first.x)
    fast = solver.solve(x0=first.x, validate_x0=False)
    assert np.array_equal(fast.x, again.x)
    assert fast.iterations == again.iterations


def test_resilient_solver_forwards_backend_and_validate():
    from repro.solvers import SOLVER_REGISTRY
    A = small_generator()
    cls = SOLVER_REGISTRY["resilient"]
    be = NATIVE[0] if NATIVE else "numpy"
    result = cls(A, tol=1e-10, damping=0.9, backend=be).solve()
    assert result.converged
    baseline = cls(A, tol=1e-10, damping=0.9).solve()
    assert np.array_equal(result.x, baseline.x)


# -- spmv, the one product entry point ----------------------------------------

def test_spmv_is_the_only_product():
    """No format, nor the CPU baseline, offers a multi-RHS product or
    an alias of ``spmv``; no backend op or native kernel is left for
    one."""
    formats = [obj for obj in vars(sparse).values()
               if isinstance(obj, type) and issubclass(obj, SparseFormat)]
    assert len(formats) >= 10          # SparseFormat and nine formats
    for cls in formats + [CSRDIABaseline]:
        for name in ("spmm", "matmat", "matvec"):
            assert not hasattr(cls, name), (cls.__name__, name)
    assert "spmm" not in backends.OPS
    if "native" in backends.available_backends():
        from repro.backends.native import get_library

        lib = get_library()
        for fmt in ("csr", "ell", "ellr", "sell", "dia"):
            assert not hasattr(lib, f"{fmt}_spmm")
            assert hasattr(lib, f"{fmt}_spmv")


def test_direct_spmv_override_is_refused():
    """Overriding the entry point would bypass backend dispatch, so the
    class statement itself raises."""
    def product(self, x):               # a direct override
        return self.d * x

    with pytest.raises(TypeError, match="_reference_spmv"):
        type("LegacyDiag", (SparseFormat,), {"spmv": product})


def test_modern_subclass_does_not_warn():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")

        class ModernDiag(SparseFormat):
            format_name = "modern-diag"

            def __init__(self, d):
                self.d = np.asarray(d, dtype=np.float64)
                self.shape = (self.d.size, self.d.size)

            def _reference_spmv(self, x):
                return self.d * x

            def to_scipy(self):
                return sp.diags(self.d).tocsr()

            def footprint(self):
                return self.d.nbytes

    m = ModernDiag([2.0, 4.0])
    assert np.array_equal(m.spmv(np.ones(2)), np.array([2.0, 4.0]))
