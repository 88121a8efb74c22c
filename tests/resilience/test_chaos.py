"""Chaos suite: seeded fault plans against the full stack.

These are the PR's acceptance tests.  The CI chaos job runs this file
under several fixed seeds (``CHAOS_SEED``) and collects the
:class:`~repro.resilience.guardrails.RecoveryReport` JSON written to
``CHAOS_REPORT_DIR``; locally both default off and the suite runs with
seed 0, writing nothing.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.errors import (
    CircuitOpenError,
    JobTimeoutError,
    KernelLaunchError,
)
from repro.resilience import CircuitBreaker, FaultPlan, injecting
from repro.serve import SolveService
from repro.solvers import JacobiSolver
from repro.telemetry import metrics

#: The seed the whole chaos run derives from (CI sweeps 0, 1, 2).
SEED = int(os.environ.get("CHAOS_SEED", "0"))

SOLVER_OPTS = {"damping": 0.8}


def write_report(name: str, payload: dict) -> None:
    """Drop a JSON artifact for the CI chaos job, when asked to."""
    report_dir = os.environ.get("CHAOS_REPORT_DIR")
    if not report_dir:
        return
    path = Path(report_dir)
    path.mkdir(parents=True, exist_ok=True)
    (path / f"{name}-seed{SEED}.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8")


class TestSolverChaos:
    """Acceptance: NaN injected mid-solve still reaches the answer."""

    def test_nan_at_k_converges_to_fault_free_answer(
            self, birth_death_matrix):
        clean = JacobiSolver(birth_death_matrix, tol=1e-10,
                             **SOLVER_OPTS).solve()
        assert clean.converged

        plan = FaultPlan(
            [{"site": "solver.iterate", "kind": "nan", "at": 150,
              "fraction": 0.05}],
            seed=SEED, name="nan-at-150")
        with injecting(plan) as inj:
            faulty = JacobiSolver(birth_death_matrix, tol=1e-10,
                                  **SOLVER_OPTS).solve()

        assert inj.fired("solver.iterate") == 1
        assert faulty.converged
        assert faulty.recovery is not None
        assert faulty.recovery.rollbacks >= 1
        diff = float(np.abs(faulty.x - clean.x).max())
        assert diff <= 1e-8
        write_report("solver-nan", {
            "plan": plan.to_dict(),
            "inf_norm_diff": diff,
            "iterations": faulty.iterations,
            "recovery": faulty.recovery.to_dict(),
        })

    def test_repeated_perturbations_still_converge(self, birth_death_matrix):
        clean = JacobiSolver(birth_death_matrix, tol=1e-10,
                             **SOLVER_OPTS).solve()
        plan = FaultPlan(
            [{"site": "solver.iterate", "kind": "perturb", "at": 50,
              "every": 100, "count": 3, "fraction": 0.2,
              "magnitude": 5.0}],
            seed=SEED, name="perturb-train")
        with injecting(plan) as inj:
            faulty = JacobiSolver(birth_death_matrix, tol=1e-10,
                                  **SOLVER_OPTS).solve()
        # How many kicks land before convergence varies with the seed
        # (milder kicks → faster re-convergence); at least the first
        # two are guaranteed to hit a live iterate.
        assert inj.fired() >= 2
        assert faulty.converged
        assert float(np.abs(faulty.x - clean.x).max()) <= 1e-8

    def test_resilient_solver_survives_inf_injection(
            self, birth_death_matrix):
        clean = JacobiSolver(birth_death_matrix, tol=1e-10,
                             **SOLVER_OPTS).solve()
        plan = FaultPlan(
            [{"site": "solver.iterate", "kind": "inf", "at": 80}],
            seed=SEED, name="inf-at-80")
        from repro.solvers import ResilientSolver
        with injecting(plan):
            result = ResilientSolver(birth_death_matrix, tol=1e-10,
                                     **SOLVER_OPTS).solve()
        assert result.converged
        assert float(np.abs(result.x - clean.x).max()) <= 1e-8


class TestServeChaos:
    """Acceptance: worker kills leave no job unanswered."""

    def test_worker_kill_plan_completes_all_jobs(self, tiny_toggle_network):
        plan = FaultPlan(
            [{"site": "serve.worker", "kind": "kill", "at": 1,
              "every": 3, "count": 3}],
            seed=SEED, name="worker-kills")
        conditions = [{"degA": round(0.8 + 0.1 * i, 3)} for i in range(6)]
        with injecting(plan) as inj:
            with SolveService(tiny_toggle_network, workers=2,
                              warm_start=True, retries=3,
                              solver_options=SOLVER_OPTS) as svc:
                jobs = [svc.submit(c) for c in conditions]
                outcomes = [j.result() for j in jobs]
                snap = svc.snapshot()

        assert inj.fired("serve.worker") == 3
        assert len(outcomes) == len(conditions)
        # Every answer is its own request's converged solve.
        for job, outcome in zip(jobs, outcomes):
            assert outcome.key == job.key
            assert not outcome.degraded
            assert outcome.result.converged
            assert outcome.result.x.sum() == pytest.approx(1.0)
        assert snap["worker_faults"] == 3
        assert snap["retried"] >= 1
        write_report("serve-worker-kill", {
            "plan": plan.to_dict(),
            "jobs": len(outcomes),
            "faults": [e.to_dict() for e in inj.events],
            "metrics": {k: snap[k] for k in ("worker_faults", "retried",
                                             "completed")},
        })

    def test_worker_stall_only_delays(self, tiny_toggle_network):
        plan = FaultPlan(
            [{"site": "serve.worker", "kind": "stall", "at": 0,
              "delay_s": 0.05}],
            seed=SEED, name="worker-stall")
        with injecting(plan) as inj:
            with SolveService(tiny_toggle_network, workers=1,
                              solver_options=SOLVER_OPTS) as svc:
                outcome = svc.solve({"degA": 1.1})
        assert inj.fired("serve.worker") == 1
        assert not outcome.degraded
        assert outcome.result.converged

    def test_cache_fault_forces_recompute(self, tiny_toggle_network):
        with SolveService(tiny_toggle_network, workers=1,
                          solver_options=SOLVER_OPTS) as svc:
            first = svc.solve({"degA": 1.1})
            plan = FaultPlan(
                [{"site": "serve.cache", "kind": "miss"}], seed=SEED)
            with injecting(plan) as inj:
                second = svc.solve({"degA": 1.1})
            assert inj.fired("serve.cache") == 1
            # The dropped read forced the cold path; the cache itself
            # is intact, so a clean resubmit hits again.
            assert not first.cached and not second.cached
            third = svc.solve({"degA": 1.1})
            assert third.cached
            assert svc.snapshot()["cache_faults"] == 1

    def test_deadline_expires_into_failure_payload(self, tiny_toggle_network):
        # A stalled worker burns the whole deadline before the solve
        # starts; the attempt dies with the deadline in its payload.
        plan = FaultPlan(
            [{"site": "serve.worker", "kind": "stall", "at": 0,
              "every": 1, "count": 10, "delay_s": 0.05}],
            seed=SEED, name="stall-past-deadline")
        with injecting(plan):
            with SolveService(tiny_toggle_network, workers=1, retries=0,
                              solver_options=SOLVER_OPTS) as svc:
                job = svc.submit({"degA": 1.3}, deadline_s=0.01)
                with pytest.raises(JobTimeoutError):
                    job.result()
        assert job.failure == {"reason": "deadline-expired"}
        assert svc.snapshot()["deadline_expired"] >= 1

    def test_breaker_opens_and_sheds_after_repeated_failures(
            self, tiny_toggle_network):
        # Every attempt times out (absurd budget), so the breaker trips
        # after its default threshold of failures and the next job is
        # shed fast.
        threshold = CircuitBreaker().failure_threshold
        with SolveService(tiny_toggle_network, workers=1, retries=0,
                          timeout_s=1e-6, cache=False,
                          solver_options=SOLVER_OPTS) as svc:
            for i in range(threshold):
                with pytest.raises(JobTimeoutError):
                    svc.solve({"degA": 1.0 + 0.1 * i})
            with pytest.raises(CircuitOpenError) as excinfo:
                svc.solve({"degA": 2.0})
            assert excinfo.value.failure["breaker"]["state"] == "open"
            assert svc.snapshot()["breaker_open"] >= 1


class TestGpusimChaos:
    def test_launch_fault_raises_kernel_launch_error(self,
                                                     birth_death_matrix):
        from repro.gpusim import GTX580, spmv_performance
        from repro.sparse.base import as_csr
        from repro.sparse.ell import ELLMatrix
        fmt = ELLMatrix(as_csr(birth_death_matrix))
        assert spmv_performance(fmt, GTX580).time_s > 0  # clean baseline
        plan = FaultPlan(
            [{"site": "gpusim.launch", "kind": "raise"}], seed=SEED)
        with injecting(plan):
            with pytest.raises(KernelLaunchError, match="injected"):
                spmv_performance(fmt, GTX580)


class TestTelemetryFlow:
    def test_faults_and_recoveries_hit_the_default_registry(
            self, birth_death_matrix):
        registry = metrics.get_registry()
        faults = registry.counter("resilience_faults_injected_total",
                                  "faults fired by the active fault "
                                  "injector")
        recoveries = registry.counter("resilience_recoveries_total",
                                      "rollback/renormalize recoveries "
                                      "performed by solvers")
        f0, r0 = faults.value, recoveries.value
        plan = FaultPlan([{"site": "solver.iterate", "kind": "nan",
                           "at": 40}], seed=SEED)
        with injecting(plan):
            result = JacobiSolver(birth_death_matrix,
                                  **SOLVER_OPTS).solve()
        assert result.converged
        assert faults.value == f0 + 1
        assert recoveries.value >= r0 + 1
