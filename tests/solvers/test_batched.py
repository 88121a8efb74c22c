"""BatchedJacobiSolver: lockstep multi-RHS solves match serial answers.

The contract: each column of a batched solve reproduces the serial
:class:`JacobiSolver` fast-backend result (same iterate, iterations and
residual), while the whole batch performs far fewer products than the
serial solves combined — one fused product advances every live column.

The workhorse system is a small birth-death generator (bipartite, so
every solve uses ``damping=0.6``; see ``test_jacobi.py``) — it
converges in hundreds of iterations, keeping the serial-vs-batched
cross-checks fast.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import backends
from repro.backends import native
from repro.backends.native import NativeBackend
from repro.errors import ValidationError
from repro.solvers import BatchedJacobiSolver, JacobiSolver
from repro.solvers.result import StopReason
from repro.sparse.base import as_csr

DAMPING = 0.6


def chain(n=60, birth=4.0, death=1.0):
    """A birth-death CME generator (columns sum to zero)."""
    ks = np.arange(n)
    up = np.full(n - 1, birth)
    down = death * ks[1:]
    return as_csr(sp.diags(
        [up, -(np.r_[up, 0.0] + np.r_[0.0, down]), down],
        offsets=[-1, 0, 1], format="csr"))


def serial(A, **kwargs):
    return JacobiSolver(A, damping=DAMPING, **kwargs).solve()


def zero_transition(A, i, j):
    """Generator *A* with its ``j -> i`` rate zeroed and the outflow
    taken off ``A[j, j]``: one stored entry fewer than *A*."""
    L = A.tolil(copy=True)
    L[j, j] += L[i, j]
    L[i, j] = 0.0
    return as_csr(L.tocsr())


needs_native = pytest.mark.skipif(
    "native" not in backends.available_backends(),
    reason="native kernels do not build here")


class KernelSpy:
    """The native library, recording the width of every call to the two
    kernels the stacked sweep op chooses between."""

    KERNELS = ("csr_jacobi_sweep_stacked", "sliced_jacobi_sweep_column")

    def __init__(self, lib):
        self._lib = lib
        self.widths = {name: [] for name in self.KERNELS}

    def __getattr__(self, name):
        kernel = getattr(self._lib, name)
        if name not in self.KERNELS:
            return kernel

        def spy(*args):
            self.widths[name].append(args[1])  # (n, m, ...)
            return kernel(*args)
        return spy


def assert_same_results(got, ref):
    for a, b in zip(ref, got):
        assert b.stop_reason is a.stop_reason
        assert b.iterations == a.iterations
        assert b.residual == a.residual
        np.testing.assert_array_equal(b.x, a.x)


class TestSharedMode:
    def test_columns_match_serial(self):
        A = chain()
        tols = [1e-6, 1e-9, 1e-12]
        expected = [serial(A, tol=t) for t in tols]
        batched = BatchedJacobiSolver(A, damping=DAMPING).solve_many(
            k=3, tols=tols)
        for s, b in zip(expected, batched):
            assert b.stop_reason is s.stop_reason
            assert b.iterations == s.iterations
            assert b.residual == s.residual
            np.testing.assert_array_equal(b.x, s.x)

    def test_fewer_products_than_serial(self):
        A = chain()
        tols = [1e-6, 1e-9, 1e-12]
        serial_products = sum(
            serial(A, tol=t).iterations + 1 for t in tols)
        solver = BatchedJacobiSolver(A, damping=DAMPING)
        results = solver.solve_many(k=3, tols=tols)
        # One fused product per sweep: the batch costs the *slowest*
        # column's products, not the sum.
        assert solver.products == max(r.iterations for r in results) + 1
        assert solver.products < serial_products

    def test_early_retirement_shrinks_block(self):
        A = chain()
        solver = BatchedJacobiSolver(A, damping=DAMPING)
        loose, tight = solver.solve_many(k=2, tols=[1e-4, 1e-12])
        assert loose.iterations < tight.iterations
        assert loose.stop_reason is StopReason.CONVERGED
        assert tight.stop_reason is StopReason.CONVERGED

    def test_warm_column_retires_immediately(self):
        A = chain()
        solved = serial(A, tol=1e-10)
        solver = BatchedJacobiSolver(A, tol=1e-8, damping=DAMPING)
        warm, cold = solver.solve_many([solved.x, None])
        assert warm.stop_reason is StopReason.CONVERGED
        assert warm.iterations == 0
        assert cold.iterations > 0
        np.testing.assert_array_equal(cold.x, serial(A, tol=1e-8).x)

    def test_undamped_matches_serial(self):
        # A parity-mixing system (extra 2-step transitions) converges
        # without damping — cover the damping=1.0 code path too.
        A = chain().tolil()
        n = A.shape[0]
        for i in range(0, n - 2, 7):
            A[i + 2, i] += 0.3
            A[i, i] -= 0.3
        A = as_csr(A.tocsr())
        expected = JacobiSolver(A, tol=1e-9).solve()
        got = BatchedJacobiSolver(A, tol=1e-9).solve_many(k=1)[0]
        assert got.iterations == expected.iterations
        np.testing.assert_array_equal(got.x, expected.x)

    def test_time_budget_times_out(self):
        A = chain(n=200)
        solver = BatchedJacobiSolver(A, tol=1e-300, stagnation_tol=None,
                                     max_iterations=10_000_000,
                                     damping=DAMPING)
        results = solver.solve_many(k=2, time_budget_s=0.05)
        assert all(r.stop_reason is StopReason.TIMED_OUT for r in results)

    def test_max_iterations(self):
        A = chain()
        results = BatchedJacobiSolver(
            A, tol=1e-300, max_iterations=150, stagnation_tol=None,
            damping=DAMPING).solve_many(k=2)
        assert all(r.stop_reason is StopReason.MAX_ITERATIONS
                   for r in results)
        assert all(r.iterations == 150 for r in results)


class TestStackedMode:
    def test_conditions_match_serial(self):
        mats = [chain(death=d) for d in (0.8, 1.0, 1.3)]
        expected = [serial(A, tol=1e-9) for A in mats]
        solver = BatchedJacobiSolver.stacked(mats, tol=1e-9,
                                             damping=DAMPING)
        batched = solver.solve_many()
        for s, b in zip(expected, batched):
            assert b.iterations == s.iterations
            assert b.residual == s.residual
            np.testing.assert_array_equal(b.x, s.x)
        assert solver.products == max(s.iterations for s in expected) + 1

    @pytest.mark.skipif("native" not in backends.available_backends(),
                        reason="native kernels do not build here")
    def test_native_retirements_stay_on_stacked_kernel(self):
        """Columns retiring at different sweeps compact the interleaved
        block; every later sweep must stay on the fused stacked kernel
        (zero single-system sweeps) and match the reference bitwise."""

        class Counting(NativeBackend):
            single = stacked = 0

            def jacobi_sweep(self, *args, **kwargs):
                self.single += 1
                return super().jacobi_sweep(*args, **kwargs)

            def jacobi_sweep_many(self, *args, **kwargs):
                self.stacked += 1
                return super().jacobi_sweep_many(*args, **kwargs)

        be = Counting()
        mats = [chain(death=d) for d in (0.8, 1.0, 1.3, 1.6)]
        tols = [1e-5, 1e-7, 1e-9, 1e-11]
        kw = dict(damping=DAMPING, check_interval=20)
        got = BatchedJacobiSolver.stacked(
            mats, backend=be, **kw).solve_many(tols=tols)
        ref = BatchedJacobiSolver.stacked(
            mats, backend="numpy", **kw).solve_many(tols=tols)
        assert len({r.iterations for r in got}) == len(mats)
        assert be.single == 0
        assert be.stacked > 0
        for a, b in zip(ref, got):
            assert b.iterations == a.iterations
            assert b.residual == a.residual
            np.testing.assert_array_equal(b.x, a.x)

    @needs_native
    def test_narrow_intervals_run_the_sliced_kernel(self, monkeypatch):
        """Once at most ``stacked_narrow_max()`` columns are live, each
        interval's sweeps run one sliced sweep per system inside the
        stacked op (still zero ``jacobi_sweep`` calls), wider intervals
        run the interleaved kernel, and only the systems still live at
        a narrow width get a sliced copy."""
        lib = native.get_library()
        top = lib.stacked_narrow_max()
        spy = KernelSpy(lib)
        monkeypatch.setattr(native, "_lib", spy)

        def single_sweep(*args, **kwargs):
            raise AssertionError("a stacked solve called jacobi_sweep")

        monkeypatch.setattr(NativeBackend, "jacobi_sweep", single_sweep)
        m = top + 2
        mats = [chain(death=1.0 + 0.02 * c) for c in range(m)]
        tols = [10.0 ** -(4 + c) for c in range(m)]
        kw = dict(damping=DAMPING, check_interval=10)
        solver = BatchedJacobiSolver.stacked(mats, backend="native", **kw)
        got = solver.solve_many(tols=tols)
        ref = BatchedJacobiSolver.stacked(
            mats, backend="numpy", **kw).solve_many(tols=tols)
        assert_same_results(got, ref)
        iterations = [r.iterations for r in got]
        # Columns retire one at a time, so the block passes every width.
        assert len(set(iterations)) == m
        narrow = spy.widths["sliced_jacobi_sweep_column"]
        wide = spy.widths["csr_jacobi_sweep_stacked"]
        assert set(narrow) == set(range(1, top + 1))
        assert set(wide) == {top + 1, top + 2}
        last_live = set(np.argsort(iterations)[-top:])
        assert [getattr(A, native._SLICED_ATTR, None) is not None
                for A in solver._systems] == [c in last_live
                                              for c in range(m)]

    @needs_native
    def test_wide_retirements_build_no_sliced_copy(self):
        """Columns that all retire while the block is wide leave no
        sliced copy behind."""
        top = native.get_library().stacked_narrow_max()
        mats = [chain(death=1.1) for _ in range(top + 1)]
        solver = BatchedJacobiSolver.stacked(mats, backend="native",
                                             damping=DAMPING)
        results = solver.solve_many()
        assert len({r.iterations for r in results}) == 1
        assert all(r.stop_reason is StopReason.CONVERGED for r in results)
        assert all(getattr(A, native._SLICED_ATTR, None) is None
                   for A in solver._systems)

    @needs_native
    def test_stacks_whose_sparsity_differs(self, monkeypatch):
        """One condition zeroes a rate, so the systems share no
        sparsity pattern.  At widths on both sides of
        ``stacked_narrow_max()`` the native stacked solve runs one
        sliced sweep per system while that condition is live (the
        interleaved kernel only once it retires) and equals the numpy
        stacked solve and K serial solves bitwise."""
        lib = native.get_library()
        top = lib.stacked_narrow_max()
        spy = KernelSpy(lib)
        monkeypatch.setattr(native, "_lib", spy)
        for m in (top, top + 2):
            mats = [chain(death=1.0 + 0.05 * c) for c in range(m)]
            mats[-1] = zero_transition(mats[-1], 19, 20)
            assert mats[-1].nnz == mats[0].nnz - 1
            kw = dict(tol=1e-9, damping=DAMPING)
            got = BatchedJacobiSolver.stacked(
                mats, backend="native", **kw).solve_many()
            ref = BatchedJacobiSolver.stacked(
                mats, backend="numpy", **kw).solve_many()
            assert all(r.converged for r in got)
            assert_same_results(got, ref)
            assert_same_results(got, [
                JacobiSolver(A, backend="numpy", **kw).solve()
                for A in mats])
            # Columns retire at their own sweeps, so the block narrows.
            assert max(spy.widths["sliced_jacobi_sweep_column"]) == m
            assert all(w < m for w in spy.widths["csr_jacobi_sweep_stacked"])
            for widths in spy.widths.values():
                widths.clear()

    def test_stacked_per_column_tols(self):
        mats = [chain(death=d) for d in (0.9, 1.1)]
        solver = BatchedJacobiSolver.stacked(mats, damping=DAMPING)
        loose, tight = solver.solve_many(tols=[1e-4, 1e-12])
        assert loose.iterations < tight.iterations

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            BatchedJacobiSolver.stacked([chain(n=60), chain(n=50)])

    def test_empty_stack_rejected(self):
        with pytest.raises(ValidationError):
            BatchedJacobiSolver.stacked([])

    def test_column_count_mismatch_rejected(self):
        solver = BatchedJacobiSolver.stacked([chain(), chain()],
                                             damping=DAMPING)
        with pytest.raises(ValidationError):
            solver.solve_many(k=3)


class TestValidation:
    def test_needs_k_or_x0s(self):
        with pytest.raises(ValidationError):
            BatchedJacobiSolver(chain()).solve_many()

    def test_k_and_x0s_must_agree(self):
        with pytest.raises(ValidationError):
            BatchedJacobiSolver(chain()).solve_many([None, None], k=3)

    def test_bad_x0_rejected(self):
        A = chain()
        n = A.shape[0]
        solver = BatchedJacobiSolver(A)
        with pytest.raises(ValidationError):
            solver.solve_many([np.ones(n - 1)])
        with pytest.raises(ValidationError):
            solver.solve_many([np.full(n, -1.0)])
        with pytest.raises(ValidationError):
            solver.solve_many([np.full(n, np.nan)])

    def test_tols_length_checked(self):
        with pytest.raises(ValidationError):
            BatchedJacobiSolver(chain()).solve_many(k=2, tols=[1e-8])

    def test_bad_params_rejected(self):
        A = chain()
        with pytest.raises(ValidationError):
            BatchedJacobiSolver(A, check_interval=0)
        with pytest.raises(ValidationError):
            BatchedJacobiSolver(A, damping=0.0)
        with pytest.raises(ValidationError):
            BatchedJacobiSolver(A).solve_many(k=1, time_budget_s=0)

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            BatchedJacobiSolver(sp.random(4, 5, density=0.5, format="csr"))

    def test_zero_columns(self):
        assert BatchedJacobiSolver(chain()).solve_many(k=0) == []


class TestSweepBatch:
    GRID = {"death": [0.9, 1.0, 1.1], "birth": [3.5, 4.0]}

    def test_batched_sweep_matches_serial(self, birth_death_network):
        from repro.sweep import ParameterSweep
        kwargs = dict(tol=1e-7, solver_kwargs={"damping": DAMPING})
        serial = ParameterSweep(birth_death_network, self.GRID).run(**kwargs)
        batched = ParameterSweep(birth_death_network, self.GRID).run(
            batch=4, **kwargs)
        assert len(batched) == len(serial)
        for s, b in zip(serial, batched):
            assert b.overrides == s.overrides
            assert b.result.iterations == s.result.iterations
            np.testing.assert_array_equal(b.result.x, s.result.x)

    @pytest.mark.parametrize("name", backends.available_backends())
    def test_batched_sweep_takes_backend(self, birth_death_network, name):
        """``backend`` reaches the batched solver, and every backend's
        points equal the serial sweep's bitwise."""
        from repro.sweep import ParameterSweep
        serial = ParameterSweep(birth_death_network, self.GRID).run(
            tol=1e-7, solver_kwargs={"damping": DAMPING})
        batched = ParameterSweep(birth_death_network, self.GRID).run(
            batch=4, tol=1e-7,
            solver_kwargs={"damping": DAMPING, "backend": name})
        assert [b.overrides for b in batched] == [s.overrides
                                                  for s in serial]
        assert_same_results([b.result for b in batched],
                            [s.result for s in serial])

    def test_unsupported_solver_kwargs_rejected(self, birth_death_network):
        from repro.sweep import ParameterSweep
        sweep = ParameterSweep(birth_death_network, {"death": [0.9, 1.1]})
        with pytest.raises(ValidationError):
            sweep.run(batch=2, solver_kwargs={"step": "format"})

    def test_bad_batch_rejected(self, birth_death_network):
        from repro.sweep import ParameterSweep
        with pytest.raises(ValidationError):
            ParameterSweep(birth_death_network,
                           {"death": [0.9]}).run(batch=0)
