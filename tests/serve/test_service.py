"""Integration tests for the solve service façade."""

import threading

import numpy as np
import pytest

from repro.errors import (
    JobRejectedError,
    JobTimeoutError,
    SolveJobError,
    ValidationError,
)
from repro.serve import SolutionCache, SolveService
from repro.solvers import DEFAULT_DAMPING

OPTS = {"damping": 0.8}


@pytest.fixture
def service(tiny_toggle_network):
    svc = SolveService(tiny_toggle_network, workers=2,
                       solver_options=OPTS)
    yield svc
    svc.close()


class TestBasics:
    def test_solve_matches_direct_solver(self, service, tiny_toggle_network):
        from repro import solve_steady_state
        outcome = service.solve({"degA": 1.2})
        result = solve_steady_state(
            tiny_toggle_network.with_rates({"degA": 1.2}),
            tol=1e-8, **OPTS)
        np.testing.assert_allclose(outcome.result.x, result.x, atol=1e-10)
        assert outcome.landscape.p.sum() == pytest.approx(1.0)
        assert not outcome.cached

    def test_map_preserves_input_order(self, service):
        conditions = [{"degA": v} for v in (1.3, 0.7, 1.0)]
        outcomes = service.map(conditions)
        means = [o.landscape.mean_counts()["A"] for o in outcomes]
        # Slower decay of A leaves more A around: 0.7 > 1.0 > 1.3.
        assert means[1] > means[2] > means[0]

    def test_closed_service_rejects(self, tiny_toggle_network):
        svc = SolveService(tiny_toggle_network)
        svc.close()
        with pytest.raises(SolveJobError, match="closed"):
            svc.submit({})

    @pytest.mark.parametrize("keyword", [
        "warm_neighbors", "queue_policy", "put_timeout", "retry_policy",
        "breaker_threshold", "breaker_reset_s", "max_states",
        "default_damping", "method", "fsp_options", "degraded_mode",
        "admission", "batch_max", "reuse_state_space"])
    def test_removed_keywords_raise(self, tiny_toggle_network, keyword):
        """Keywords no caller set are gone, not silently ignored."""
        with pytest.raises(TypeError, match=keyword):
            SolveService(tiny_toggle_network, **{keyword: 4})

    def test_custom_propensity_override_refused(self, service):
        """``synA`` and ``synB`` would key two jobs apart and solve one
        system twice; ``submit`` refuses at the door."""
        for rate in (10.0, 30.0):
            with pytest.raises(ValidationError, match="ignores rate"):
                service.submit({"synA": rate})
        assert service.snapshot()["submitted"] == 0

    def test_warm_start_requires_cache(self, tiny_toggle_network):
        with pytest.raises(ValidationError, match="warm_start"):
            SolveService(tiny_toggle_network, cache=False, warm_start=True)


class TestCaching:
    def test_resubmit_served_from_cache(self, service):
        first = service.solve({"degA": 1.1})
        second = service.solve({"degA": 1.1})
        assert not first.cached
        assert second.cached
        np.testing.assert_array_equal(first.result.x, second.result.x)
        snap = service.snapshot()
        assert snap["cache_hits"] == 1
        assert snap["completed"] == 1

    def test_cache_disabled(self, tiny_toggle_network):
        with SolveService(tiny_toggle_network, cache=False,
                          solver_options=OPTS) as svc:
            svc.solve({"degA": 1.1})
            svc.solve({"degA": 1.1})
            assert svc.snapshot()["cache_hits"] == 0
            assert svc.snapshot()["completed"] == 2

    def test_rerun_mostly_cache_served(self, service):
        conditions = [{"degA": round(0.8 + 0.05 * i, 3)} for i in range(8)]
        service.map(conditions)
        before = service.snapshot()["cache_hits"]
        service.map(conditions)
        hits = service.snapshot()["cache_hits"] - before
        assert hits / len(conditions) >= 0.9

    def test_disk_cache_survives_service_restart(self, tiny_toggle_network,
                                                 tmp_path):
        with SolveService(tiny_toggle_network,
                          cache=SolutionCache(disk_dir=tmp_path),
                          solver_options=OPTS) as svc:
            first = svc.solve({"degA": 0.9})
        with SolveService(tiny_toggle_network,
                          cache=SolutionCache(disk_dir=tmp_path),
                          solver_options=OPTS) as svc:
            second = svc.solve({"degA": 0.9})
            assert second.cached
            np.testing.assert_array_equal(first.result.x, second.result.x)


class TestSingleFlight:
    def test_identical_submits_coalesce(self, tiny_toggle_network,
                                        monkeypatch):
        started, release = threading.Event(), threading.Event()
        original = SolveService._execute

        def gated(self, job):
            started.set()
            assert release.wait(10.0)
            return original(self, job)

        monkeypatch.setattr(SolveService, "_execute", gated)
        with SolveService(tiny_toggle_network, workers=1,
                          solver_options=OPTS) as svc:
            first = svc.submit({"degA": 1.05})
            assert started.wait(5.0)
            second = svc.submit({"degA": 1.05})
            assert second is first, "identical in-flight submit coalesces"
            release.set()
            first.result(timeout=10.0)
            assert svc.snapshot()["coalesced"] == 1
            assert svc.snapshot()["scheduled"] == 1


class TestBackpressure:
    def test_full_queue_rejects_and_cleans_up(self, tiny_toggle_network,
                                              monkeypatch):
        started, release = threading.Event(), threading.Event()
        original = SolveService._execute

        def gated(self, job):
            started.set()
            assert release.wait(10.0)
            return original(self, job)

        monkeypatch.setattr(SolveService, "_execute", gated)
        with SolveService(tiny_toggle_network, workers=1, queue_capacity=1,
                          solver_options=OPTS) as svc:
            running = svc.submit({"degA": 0.9})
            assert started.wait(5.0)
            queued = svc.submit({"degA": 1.0})
            with pytest.raises(JobRejectedError):
                svc.submit({"degA": 1.1})
            assert svc.snapshot()["rejected"] == 1
            release.set()
            running.result(timeout=10.0)
            queued.result(timeout=10.0)
            # The rejected key was cleaned up: resubmitting works.
            outcome = svc.solve({"degA": 1.1})
            assert outcome.landscape.p.sum() == pytest.approx(1.0)


class TestTimeoutsAndRetries:
    def test_budget_exhaustion_fails_after_retries(self, tiny_toggle_network):
        with SolveService(tiny_toggle_network, workers=1, timeout_s=1e-6,
                          retries=1, solver_options=OPTS) as svc:
            job = svc.submit({"degA": 1.0})
            with pytest.raises(JobTimeoutError) as excinfo:
                job.result(timeout=30.0)
            assert excinfo.value.attempts == 2
            snap = svc.snapshot()
            assert snap["retried"] == 1
            assert snap["failed"] == 1
            assert snap["completed"] == 0


class TestSingularSystems:
    def test_singular_system_fails_terminally(self):
        # A pure-death chain: the empty state is absorbing (no outgoing
        # reactions), so the generator has a zero diagonal there and
        # the Jacobi split does not exist.  Retries cannot help — the
        # failure must be terminal and consume exactly one attempt.
        from repro.cme.network import ReactionNetwork
        from repro.cme.reaction import Reaction
        from repro.cme.species import Species
        dying = ReactionNetwork(
            [Species("X", max_count=5, initial_count=5)],
            [Reaction("death", {"X": 1}, {}, 1.0)],
            name="pure-death")
        with SolveService(dying, workers=1, retries=2) as svc:
            with pytest.raises(SolveJobError, match="unsolvable") as excinfo:
                svc.solve({})
            assert not isinstance(excinfo.value, JobTimeoutError)
            assert excinfo.value.attempts == 1
            snap = svc.snapshot()
            assert snap["retried"] == 0
            assert snap["failed"] == 1


class TestWarmStart:
    def test_neighbors_seed_later_solves(self, tiny_toggle_network):
        # Fine check_interval so the saving is not rounded away by the
        # residual-check quantization.
        opts = {"damping": 0.8, "check_interval": 10}
        with SolveService(tiny_toggle_network, workers=1, warm_start=True,
                          warm_audit_interval=1,
                          solver_options=opts) as svc:
            cold = svc.solve({"degA": 0.9})
            warm = svc.solve({"degA": 0.95})
            assert not cold.warm_started
            assert warm.warm_started
            snap = svc.snapshot()
            assert snap["warm_started"] == 1
            assert snap["cold_started"] == 1
            assert snap["warm_start_audits"] == 1
            # A neighbor this close converges strictly faster than cold.
            assert snap["warm_start_iterations_saved"] > 0


class TestDampingFold:
    """Requests without a ``damping`` get ``DEFAULT_DAMPING``, as an
    option in the cache key."""

    def test_missing_damping_folds_to_the_default(self, tiny_toggle_network):
        with SolveService(tiny_toggle_network) as svc:
            plain = svc.request({"degA": 1.1})
            spelled = svc.request(
                {"degA": 1.1}, solver_options={"damping": DEFAULT_DAMPING})
            assert plain.solver_options == {"damping": DEFAULT_DAMPING}
            assert plain.cache_key() == spelled.cache_key()

    @pytest.mark.parametrize("damping", [1.0, 0.5])
    def test_explicit_damping_wins(self, tiny_toggle_network, damping):
        options = {"damping": damping}
        with SolveService(tiny_toggle_network) as svc:
            default = svc.request({"degA": 1.1})
            per_request = svc.request({"degA": 1.1},
                                      solver_options=options)
            assert per_request.solver_options == options
            assert per_request.cache_key() != default.cache_key()
        with SolveService(tiny_toggle_network,
                          solver_options=options) as svc:
            service_level = svc.request({"degA": 1.1})
        assert service_level.solver_options == options
        assert service_level.cache_key() == per_request.cache_key()
