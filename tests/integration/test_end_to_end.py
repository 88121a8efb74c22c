"""Integration tests: the full pipeline, cross-validated three ways.

The same steady state must emerge from (1) the Jacobi solver over any
device format, (2) the dense null-space reference, and (3) long-run
Gillespie SSA occupancy — three completely independent computations.
"""

import numpy as np
import pytest

from repro import solve_steady_state, toggle_switch
from repro.cme.master_equation import CMEOperator
from repro.cme.models.schnakenberg import schnakenberg
from repro.cme.ratematrix import build_rate_matrix
from repro.cme.ssa import occupancy, simulate
from repro.cme.statespace import enumerate_state_space
from repro.solvers import JacobiSolver, PowerIterationSolver
from repro.sparse import ELLDIAMatrix, WarpedELLMatrix


class TestThreeWayAgreement:
    @pytest.fixture(scope="class")
    def system(self):
        net = toggle_switch(max_protein=14)
        space = enumerate_state_space(net)
        return net, space, CMEOperator(space)

    def test_solver_matches_dense_reference(self, system):
        _, _, op = system
        solved = JacobiSolver(op.A, tol=1e-11, damping=0.8,
                              max_iterations=200_000).solve()
        dense = op.dense_nullspace_solution()
        assert solved.converged
        np.testing.assert_allclose(solved.x, dense, atol=1e-8)

    def test_solver_matches_ssa(self, system):
        net, space, op = system
        solved = JacobiSolver(op.A, tol=1e-10, damping=0.8,
                              max_iterations=200_000).solve()
        run = simulate(net, t_max=3000.0, burn_in=50.0, seed=11)
        empirical = occupancy(run, space)
        tv = 0.5 * np.abs(empirical - solved.x).sum()
        assert tv < 0.08, f"SSA and solver landscapes differ (TV={tv})"

    def test_all_formats_reach_the_same_landscape(self, system):
        _, _, op = system
        results = {}
        for label, matrix in [
            ("plain", op.A),
            ("ell+dia", ELLDIAMatrix(op.A)),
            ("warped", WarpedELLMatrix(op.A, separate_diagonal=True)),
        ]:
            results[label] = JacobiSolver(
                matrix, tol=1e-10, damping=0.8,
                max_iterations=200_000).solve().x
        for label, x in results.items():
            np.testing.assert_array_equal(x, results["plain"], err_msg=label)


class TestHighLevelApi:
    def test_solve_steady_state_roundtrip(self):
        result = solve_steady_state(
            toggle_switch(max_protein=20), tol=1e-9)
        landscape = result.landscape
        assert result.residual < 1e-6
        assert landscape.p.sum() == pytest.approx(1.0)
        assert len(landscape.grid_modes("A", "B")) >= 2

    def test_solver_kwargs_forwarded(self):
        result = solve_steady_state(
            toggle_switch(max_protein=10), tol=1e-9,
            damping=0.7, check_interval=50)
        assert result.converged
        # The pre-1.1 ``solver_kwargs=`` dict is gone: it reaches the
        # solver as an unknown option and is refused there.
        with pytest.raises(TypeError, match="solver_kwargs"):
            solve_steady_state(toggle_switch(max_protein=10),
                               solver_kwargs={"damping": 0.7})

    def test_legacy_pair_unpack_raises(self):
        result = solve_steady_state(toggle_switch(max_protein=10),
                                    tol=1e-9, damping=0.7)
        with pytest.raises(TypeError):
            landscape, result = result

    def test_method_and_format_routing(self):
        """Each method solves the system; a device-format matrix is
        accepted as the input and solved on its CSR image."""
        from repro.sparse.conversion import from_scipy
        A = build_rate_matrix(
            enumerate_state_space(toggle_switch(max_protein=10)))
        jac = solve_steady_state(from_scipy(A, "sell"), tol=1e-10,
                                 damping=0.8)
        gs = solve_steady_state(from_scipy(A, "warped-ell"),
                                "gauss-seidel", tol=1e-10)
        pwr = solve_steady_state(A, "power", tol=1e-10)
        np.testing.assert_array_equal(
            jac.x, solve_steady_state(A, tol=1e-10, damping=0.8).x)
        np.testing.assert_allclose(gs.x, jac.x, atol=1e-7)
        np.testing.assert_allclose(pwr.x, jac.x, atol=1e-7)

    def test_matrix_input_has_no_landscape(self):
        A = build_rate_matrix(
            enumerate_state_space(toggle_switch(max_protein=10)))
        result = solve_steady_state(A, tol=1e-9, damping=0.8)
        assert result.landscape is None
        assert result.x.sum() == pytest.approx(1.0)

    def test_unknown_method_and_format_raise(self):
        from repro.errors import ValidationError
        net = toggle_switch(max_protein=8)
        with pytest.raises(ValidationError, match="unknown method"):
            solve_steady_state(net, "sor")
        # The front door takes no ``format=``: a device format is passed
        # as the matrix itself.
        with pytest.raises(TypeError, match="format"):
            solve_steady_state(net, format="banded")

    def test_hooks_reach_the_solver(self):
        from repro.telemetry import RecordingHooks
        hooks = RecordingHooks()
        result = solve_steady_state(toggle_switch(max_protein=10),
                                    tol=1e-9, damping=0.8, hooks=hooks)
        assert hooks.iterations == result.iterations
        assert hooks.stop_calls == 1


class TestParameterSensitivity:
    def test_rate_change_moves_the_landscape(self):
        base = schnakenberg(max_x=30, max_y=15)
        hot = base.with_rates({"prodX": base.rates[0] * 2.0})
        land_base = solve_steady_state(base, tol=1e-9).landscape
        land_hot = solve_steady_state(hot, tol=1e-9).landscape
        assert (land_hot.mean_counts()["X"]
                > land_base.mean_counts()["X"] * 1.3)


class TestSolverCrossCheck:
    def test_power_and_jacobi_on_schnakenberg(self):
        net = schnakenberg(max_x=25, max_y=12)
        A = build_rate_matrix(enumerate_state_space(net))
        jac = JacobiSolver(A, tol=1e-10, max_iterations=100_000).solve()
        pwr = PowerIterationSolver(A, tol=1e-10,
                                   max_iterations=100_000).solve()
        np.testing.assert_allclose(jac.x, pwr.x, atol=1e-7)
