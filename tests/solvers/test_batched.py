"""BatchedJacobiSolver: lockstep stacked solves match serial answers.

The contract: each column of a stacked solve reproduces the serial
:class:`JacobiSolver` result on its own generator (same iterate,
iterations and residual), while the whole batch performs far fewer
products than the serial solves combined — one fused sweep advances
every live column, and each column's check is its own product.

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
from repro.backends.reference import NumpyBackend
from repro.cme.ratematrix import build_rate_matrix
from repro.errors import ValidationError
from repro.solvers import BatchedJacobiSolver, JacobiSolver
from repro.solvers.result import StopReason
from repro.sparse.base import as_csr
from repro.sparse.conversion import from_scipy

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


def checks(result) -> int:
    """Residual checks of a solve (an extrapolated stop adds a history
    entry at its check's iteration)."""
    return len({i for i, _ in result.residual_history})


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
    """A stack whose columns all share one generator."""

    def test_columns_match_serial(self):
        A = chain()
        expected = serial(A, tol=1e-9)
        batched = BatchedJacobiSolver.stacked(
            [A] * 3, tol=1e-9, damping=DAMPING).solve_many()
        assert len(batched) == 3
        assert_same_results(batched, [expected] * 3)

    def test_fewer_products_than_serial(self):
        A = chain()
        solo = serial(A, tol=1e-9)
        solver = BatchedJacobiSolver.stacked([A] * 3, tol=1e-9,
                                             damping=DAMPING)
        solver.solve_many()
        # One fused product per sweep and one per column per check:
        # three columns cost one solve's sweeps, not three.
        assert solver.products == solo.iterations + 3 * checks(solo)
        assert solver.products < 3 * (solo.iterations + checks(solo))


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
        # One fused product per sweep and one per column per check: the
        # batch costs the *slowest* column's sweeps, not the sum of the
        # serial solves'.
        slowest = max(expected, key=lambda s: s.iterations)
        assert solver.products == (slowest.iterations
                                   + sum(checks(s) for s in expected))
        assert solver.products < sum(s.iterations + checks(s)
                                     for s in expected)

    def test_early_retirement_shrinks_block(self):
        """The column that converges first retires, and every later
        sweep runs on the one column left."""

        class Widths(NumpyBackend):
            def __init__(self):
                super().__init__()
                self.widths = []

            def jacobi_sweep_many(self, systems, diag, X, **kwargs):
                self.widths.append(X.shape[1])
                return super().jacobi_sweep_many(systems, diag, X,
                                                 **kwargs)

        be = Widths()
        fast, slow = BatchedJacobiSolver.stacked(
            [chain(death=3.0), chain(death=0.5)], damping=DAMPING,
            backend=be).solve_many()
        assert fast.stop_reason is StopReason.CONVERGED
        assert slow.stop_reason is StopReason.CONVERGED
        assert fast.iterations < slow.iterations
        assert be.widths == sorted(be.widths, reverse=True)
        assert set(be.widths) == {2, 1}

    def test_undamped_matches_serial(self):
        # Parity-mixing systems (extra 2-step transitions) converge
        # without damping — cover the damping=1.0 code path too.
        mats = []
        for death in (0.9, 1.2):
            A = chain(death=death).tolil()
            n = A.shape[0]
            for i in range(0, n - 2, 7):
                A[i + 2, i] += 0.3
                A[i, i] -= 0.3
            mats.append(as_csr(A.tocsr()))
        got = BatchedJacobiSolver.stacked(mats, tol=1e-9).solve_many()
        assert_same_results(got, [JacobiSolver(A, tol=1e-9).solve()
                                  for A in mats])

    def test_max_iterations(self):
        results = BatchedJacobiSolver.stacked(
            [chain(death=d) for d in (0.9, 1.1)], tol=1e-300,
            max_iterations=150, stagnation_tol=None,
            damping=DAMPING).solve_many()
        assert all(r.stop_reason is StopReason.MAX_ITERATIONS
                   for r in results)
        assert all(r.iterations == 150 for r in results)

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
        # Spread so that each column retires at its own check (400,
        # 340, 300 and 260 sweeps).
        mats = [chain(death=0.5 * 1.3 ** c) for c in range(4)]
        kw = dict(tol=1e-9, damping=DAMPING, check_interval=20)
        got = BatchedJacobiSolver.stacked(
            mats, backend=be, **kw).solve_many()
        ref = BatchedJacobiSolver.stacked(
            mats, backend="numpy", **kw).solve_many()
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
        mats = [chain(death=0.5 * 1.3 ** c) for c in range(m)]
        kw = dict(tol=1e-9, damping=DAMPING, check_interval=10)
        solver = BatchedJacobiSolver.stacked(mats, backend="native", **kw)
        got = solver.solve_many()
        ref = BatchedJacobiSolver.stacked(
            mats, backend="numpy", **kw).solve_many()
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

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            BatchedJacobiSolver.stacked([chain(n=60), chain(n=50)])

    def test_empty_stack_rejected(self):
        with pytest.raises(ValidationError):
            BatchedJacobiSolver.stacked([])



class TestValidation:
    @pytest.mark.parametrize("matrix", [
        chain(), chain().toarray(), from_scipy(chain(), "ell")],
        ids=["csr", "dense", "ell"])
    def test_one_generator_rejected(self, matrix):
        """One generator is refused as such; iterating it would walk
        its rows as if each were a system."""
        with pytest.raises(ValidationError, match="single matrix"):
            BatchedJacobiSolver(matrix)
        with pytest.raises(ValidationError, match="single matrix"):
            BatchedJacobiSolver.stacked(matrix)

    def test_bad_params_rejected(self):
        A = chain()
        with pytest.raises(ValidationError):
            BatchedJacobiSolver.stacked([A], check_interval=0)
        with pytest.raises(ValidationError):
            BatchedJacobiSolver.stacked([A], damping=0.0)

    def test_no_normalize_interval_rejected(self, birth_death_network):
        """Both Jacobi loops refuse ``normalize_interval=None``, and so
        does the sweep that runs the stacked one."""
        from repro.sweep import ParameterSweep
        A = chain()
        with pytest.raises(ValidationError, match="intervals"):
            JacobiSolver(A, normalize_interval=None)
        with pytest.raises(ValidationError, match="intervals"):
            BatchedJacobiSolver.stacked([A], normalize_interval=None)
        sweep = ParameterSweep(birth_death_network, {"death": [0.9]})
        with pytest.raises(ValidationError, match="intervals"):
            sweep.run(solver_kwargs={"normalize_interval": None})

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            BatchedJacobiSolver.stacked(
                [sp.random(4, 5, density=0.5, format="csr")])


class TestSweepBatch:
    GRID = {"death": [0.9, 1.0, 1.1], "birth": [3.5, 4.0]}

    @staticmethod
    def jacobi_answers(points, **kwargs):
        """Each point's own :class:`JacobiSolver` solve."""
        return [JacobiSolver(build_rate_matrix(p.landscape.space),
                             **kwargs).solve() for p in points]

    def test_batched_sweep_matches_serial(self, birth_death_network):
        """Chunks of four conditions reproduce each condition's own
        serial solve bitwise."""
        from repro.sweep import ParameterSweep
        sweep = ParameterSweep(birth_death_network, self.GRID)
        points = sweep.run(batch=4, tol=1e-7,
                           solver_kwargs={"damping": DAMPING})
        assert [p.overrides for p in points] == sweep.conditions()
        assert_same_results([p.result for p in points],
                            self.jacobi_answers(points, tol=1e-7,
                                                damping=DAMPING))

    @pytest.mark.parametrize("name", backends.available_backends())
    def test_batched_sweep_takes_backend(self, birth_death_network, name):
        """``backend`` reaches the batched solver, and every backend's
        points equal the serial solves' bitwise."""
        from repro.sweep import ParameterSweep
        opts = {"damping": DAMPING, "backend": name}
        points = ParameterSweep(birth_death_network, self.GRID).run(
            batch=4, tol=1e-7, solver_kwargs=opts)
        assert_same_results([p.result for p in points],
                            self.jacobi_answers(points, tol=1e-7, **opts))

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
