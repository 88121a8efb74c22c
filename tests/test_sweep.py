"""Tests for the parameter-sweep workload."""

import numpy as np
import pytest

from repro.cme.models.phage_lambda import phage_lambda
from repro.cme.models.toggle_switch import toggle_switch
from repro.cme.ratematrix import build_rate_matrix
from repro.errors import ValidationError
from repro.solvers import JacobiSolver
from repro.sweep import ParameterSweep


@pytest.fixture(scope="module")
def base_network():
    return toggle_switch(max_protein=12)


class TestGrid:
    def test_cartesian_product(self, base_network):
        sweep = ParameterSweep(base_network,
                               {"degA": [0.5, 1.0], "degB": [1.0, 2.0, 3.0]})
        conditions = sweep.conditions()
        assert len(conditions) == 6
        assert {"degA", "degB"} == set(conditions[0])

    def test_unknown_reaction_rejected(self, base_network):
        with pytest.raises(ValidationError, match="unknown"):
            ParameterSweep(base_network, {"nope": [1.0]})

    @pytest.mark.parametrize("name", ["synA", "synB", "bstA", "bstB"])
    def test_custom_propensity_rate_rejected(self, base_network, name):
        """The toggle switch's synthesis and burst propensities ignore
        ``rate``, so a grid over one would solve one system again and
        again; the sweep refuses it before any solve."""
        with pytest.raises(ValidationError, match="ignores rate"):
            ParameterSweep(base_network, {name: [10.0, 30.0],
                                          "degA": [0.5, 1.0]})

    def test_empty_grid_rejected(self, base_network):
        with pytest.raises(ValidationError):
            ParameterSweep(base_network, {})
        with pytest.raises(ValidationError):
            ParameterSweep(base_network, {"degA": []})


class TestRun:
    def test_every_condition_solved(self, base_network):
        sweep = ParameterSweep(base_network, {"degA": [0.8, 1.2]})
        points = sweep.run(tol=1e-8, max_iterations=100_000,
                           solver_kwargs={"damping": 0.8})
        assert len(points) == 2
        for point in points:
            assert point.result.residual < 1e-6
            assert point.landscape.p.sum() == pytest.approx(1.0)
            assert point.solve_seconds > 0

    def test_rates_actually_move_the_answer(self, base_network):
        sweep = ParameterSweep(base_network, {"degA": [0.5, 2.0]})
        slow_decay, fast_decay = sweep.run(
            tol=1e-9, solver_kwargs={"damping": 0.8})
        assert (slow_decay.landscape.mean_counts()["A"]
                > fast_decay.landscape.mean_counts()["A"])

    def test_shared_state_space(self, base_network):
        sweep = ParameterSweep(base_network, {"degA": [0.9, 1.1]})
        a, b = sweep.run(tol=1e-8, solver_kwargs={"damping": 0.8})
        assert a.landscape.space.states is b.landscape.space.states

    def test_progress_callback(self, base_network):
        seen = []
        sweep = ParameterSweep(base_network, {"degA": [1.0]})
        sweep.run(tol=1e-7, solver_kwargs={"damping": 0.8},
                  progress=seen.append)
        assert len(seen) == 1


#: Two paper models, each swept over one mass-action rate.
ANCHOR_SWEEPS = {
    "toggle-20": (lambda: toggle_switch(max_protein=20),
                  {"degA": [0.8, 1.0, 1.25]}),
    "phage-6-3": (lambda: phage_lambda(max_monomer=6, max_dimer=3),
                  {"degCI": [0.8, 1.0, 1.25]}),
}


class TestRunMatchesJacobi:
    """Each point of the in-process sweep is its condition's own
    :class:`JacobiSolver` solve, bit for bit."""

    @pytest.mark.parametrize("damping", [1.0, 0.9])
    @pytest.mark.parametrize("model", sorted(ANCHOR_SWEEPS))
    def test_points_equal_jacobi_solves(self, model, damping):
        build, grid = ANCHOR_SWEEPS[model]
        sweep = ParameterSweep(build(), grid)
        points = sweep.run(tol=1e-8, solver_kwargs={"damping": damping})
        assert [p.overrides for p in points] == sweep.conditions()
        for point in points:
            A = build_rate_matrix(point.landscape.space)
            expected = JacobiSolver(A, tol=1e-8, max_iterations=200_000,
                                    damping=damping).solve()
            assert point.result.stop_reason is expected.stop_reason
            assert point.result.iterations == expected.iterations
            np.testing.assert_array_equal(point.result.x, expected.x)

    def test_chunk_edges_move_no_answer(self, base_network):
        """Ten conditions in chunks of 3, 3, 3 and 1, or of 8 and 2,
        give the same points."""
        grid = {"degA": [0.6, 0.8, 1.0, 1.2, 1.4],
                "degB": [0.9, 1.1]}
        kwargs = dict(tol=1e-8, solver_kwargs={"damping": 0.8})
        by3 = ParameterSweep(base_network, grid).run(batch=3, **kwargs)
        by8 = ParameterSweep(base_network, grid).run(batch=8, **kwargs)
        assert len(by3) == len(by8) == 10
        for a, b in zip(by3, by8):
            assert a.overrides == b.overrides
            assert a.result.stop_reason is b.result.stop_reason
            assert a.result.iterations == b.result.iterations
            assert a.result.residual == b.result.residual
            np.testing.assert_array_equal(a.result.x, b.result.x)


class TestReporting:
    def test_table_before_run_rejected(self, base_network):
        sweep = ParameterSweep(base_network, {"degA": [1.0]})
        with pytest.raises(ValidationError):
            sweep.table()

    def test_table_renders_all_conditions(self, base_network):
        sweep = ParameterSweep(base_network, {"degA": [0.8, 1.2]})
        sweep.run(tol=1e-7, solver_kwargs={"damping": 0.8})
        text = sweep.table().render()
        assert "rate:degA" in text
        assert text.count("\n") > 4
        assert sweep.total_solve_seconds() > 0


from repro.sweep import axis_refinement_depths, coarse_to_fine_levels  # noqa: E402

OPTS = {"damping": 0.8, "check_interval": 10}


class TestCoarseToFineOrder:
    def test_axis_depths(self):
        assert axis_refinement_depths(1) == [0]
        assert axis_refinement_depths(2) == [0, 0]
        assert axis_refinement_depths(3) == [0, 1, 0]
        assert axis_refinement_depths(5) == [0, 2, 1, 2, 0]

    def test_levels_partition_the_grid(self):
        levels = coarse_to_fine_levels((5, 5))
        flat = [i for level in levels for i in level]
        assert sorted(flat) == list(range(25))
        assert [len(level) for level in levels] == [4, 5, 16]

    def test_corners_first(self):
        levels = coarse_to_fine_levels((3, 3))
        assert sorted(levels[0]) == [0, 2, 6, 8], "corners are level 0"
        assert 4 in levels[1], "the center point is the next level"

    def test_validation(self):
        with pytest.raises(ValidationError):
            axis_refinement_depths(0)
        with pytest.raises(ValidationError):
            coarse_to_fine_levels(())


class TestServedRun:
    def test_parallel_matches_serial(self, base_network):
        grid = {"degA": [0.8, 1.2], "degB": [0.9, 1.1]}
        in_process = ParameterSweep(base_network, grid)
        in_process.run(tol=1e-10, solver_kwargs=OPTS)
        served = ParameterSweep(base_network, grid)
        served.run(tol=1e-10, solver_kwargs=OPTS, workers=2)
        assert in_process.service_snapshot is None
        assert served.service_snapshot is not None
        for a, b in zip(in_process.points, served.points):
            assert a.overrides == b.overrides
            assert np.max(np.abs(a.result.x - b.result.x)) < 1e-12

    def test_progress_fires_in_canonical_order(self, base_network):
        seen = []
        sweep = ParameterSweep(base_network, {"degA": [0.8, 1.0, 1.2]})
        sweep.run(tol=1e-8, solver_kwargs=OPTS, workers=2,
                  progress=lambda p: seen.append(p.overrides["degA"]))
        assert seen == [0.8, 1.0, 1.2]

    def test_acceptance_grid(self, base_network):
        """The serving acceptance scenario: a 5x5 rate grid.

        Warm-started concurrent results must match the in-process
        uniform-start sweep to 1e-12, with measured iteration savings,
        and a re-run must be at least 90% cache-served.
        """
        values = [0.8, 0.9, 1.0, 1.1, 1.2]
        grid = {"degA": values, "degB": values}
        in_process = ParameterSweep(base_network, grid)
        in_process.run(tol=1e-14, solver_kwargs=OPTS)

        from repro.serve import SolveService
        service = SolveService(base_network, workers=4, cache=True,
                               warm_start=True, warm_audit_interval=1,
                               tol=1e-14, solver_options=OPTS)
        try:
            served = ParameterSweep(base_network, grid)
            served.run(tol=1e-14, solver_kwargs=OPTS, service=service)
            for a, b in zip(in_process.points, served.points):
                assert np.max(np.abs(a.result.x - b.result.x)) < 1e-12

            snap = served.service_snapshot
            assert snap["warm_started"] > 0
            assert snap["warm_start_audits"] > 0
            assert snap["warm_start_iterations_saved"] > 0

            before = service.snapshot()["cache_hits"]
            rerun = ParameterSweep(base_network, grid)
            rerun.run(tol=1e-14, solver_kwargs=OPTS, service=service)
            hits = service.snapshot()["cache_hits"] - before
            assert hits / 25 >= 0.9
            for a, b in zip(in_process.points, rerun.points):
                assert np.max(np.abs(a.result.x - b.result.x)) < 1e-12
        finally:
            service.close()
