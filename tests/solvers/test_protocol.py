"""Protocol conformance: every solver presents the same unified API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.solvers import (
    SOLVER_REGISTRY,
    GaussSeidelSolver,
    JacobiSolver,
    PowerIterationSolver,
    ResilientSolver,
    ShardedJacobiSolver,
    SolverResult,
    SteadyStateSolver,
    StopReason,
)
from repro.telemetry import RecordingHooks

ALL_SOLVERS = (JacobiSolver, GaussSeidelSolver, PowerIterationSolver,
               ResilientSolver, ShardedJacobiSolver)


def make_solver(cls, matrix, **kwargs):
    """Construct *cls* with options that make it converge everywhere.

    Undamped Jacobi oscillates on bipartite-ish chains (the birth-death
    tridiagonal included), so the conformance runs damp it — the shared
    API under test is identical either way.  (The resilient chain's
    first member is that same Jacobi, so it gets the damping too.)
    """
    if cls in (JacobiSolver, ResilientSolver, ShardedJacobiSolver):
        kwargs.setdefault("damping", 0.8)
    return cls(matrix, **kwargs)


@pytest.fixture(params=ALL_SOLVERS, ids=lambda c: c.__name__)
def solver_cls(request):
    return request.param


class TestConformance:
    def test_satisfies_the_structural_protocol(self, solver_cls,
                                               birth_death_matrix):
        solver = solver_cls(birth_death_matrix)
        assert isinstance(solver, SteadyStateSolver)
        assert solver.n == birth_death_matrix.shape[0]

    def test_constructed_from_matrix_keyword(self, solver_cls,
                                             birth_death_matrix):
        solver = make_solver(solver_cls, matrix=birth_death_matrix, tol=1e-9)
        result = solver.solve()
        assert isinstance(result, SolverResult)
        assert result.converged
        assert result.x.sum() == pytest.approx(1.0)

    def test_rejects_non_square(self, solver_cls):
        import scipy.sparse as sp
        with pytest.raises(ValidationError, match="square"):
            solver_cls(sp.random(4, 5, density=0.5, format="csr"))

    def test_rejects_non_positive_time_budget(self, solver_cls,
                                              birth_death_matrix):
        solver = solver_cls(birth_death_matrix)
        with pytest.raises(ValidationError, match="time_budget_s"):
            solver.solve(time_budget_s=0)
        with pytest.raises(ValidationError, match="time_budget_s"):
            solver.solve(time_budget_s=-1.0)

    def test_times_out_on_tiny_budget(self, solver_cls,
                                      birth_death_matrix):
        solver = solver_cls(birth_death_matrix, tol=1e-300,
                            check_interval=5, stagnation_tol=None)
        result = solver.solve(time_budget_s=1e-9)
        assert result.stop_reason is StopReason.TIMED_OUT
        assert result.iterations > 0
        # The partial iterate is still a probability vector.
        assert result.x.sum() == pytest.approx(1.0)

    def test_warm_start_within_tol_returns_immediately(
            self, solver_cls, birth_death_matrix):
        answer = make_solver(solver_cls, birth_death_matrix,
                             tol=1e-12).solve().x
        hooks = RecordingHooks()
        result = make_solver(solver_cls, birth_death_matrix,
                             tol=1e-6).solve(x0=answer, hooks=hooks)
        assert result.iterations == 0
        assert result.stop_reason is StopReason.CONVERGED
        assert hooks.iterations == 0
        assert hooks.stop_calls == 1

    def test_hooks_fire_once_per_iteration_and_stop_once(
            self, solver_cls, birth_death_matrix):
        hooks = RecordingHooks()
        result = solver_cls(birth_death_matrix, tol=1e-9,
                            check_interval=20).solve(hooks=hooks)
        assert hooks.iterations == result.iterations
        assert hooks.stop_calls == 1
        assert hooks.stop_reason is result.stop_reason

    def test_all_agree_on_the_answer(self, birth_death_matrix):
        answers = [make_solver(cls, birth_death_matrix, tol=1e-11).solve().x
                   for cls in ALL_SOLVERS]
        for x in answers[1:]:
            np.testing.assert_allclose(x, answers[0], atol=1e-8)


class TestRegistry:
    def test_registry_names_every_solver(self):
        assert set(SOLVER_REGISTRY.values()) == set(ALL_SOLVERS)


class TestPowerIterationDeprecation:
    """The pre-1.1 ``A=`` keyword is gone: ``matrix`` is the only way
    in, as for every other solver."""

    def test_both_or_neither_raise(self, birth_death_matrix):
        with pytest.raises(TypeError, match="'A'"):
            PowerIterationSolver(birth_death_matrix, A=birth_death_matrix)
        with pytest.raises(TypeError, match="'A'"):
            PowerIterationSolver(A=birth_death_matrix)
        with pytest.raises(TypeError, match="matrix"):
            PowerIterationSolver()
