"""Guardrail policy, recovery reporting, and solver-loop recovery."""

import json

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.resilience import (
    FaultPlan,
    GuardrailPolicy,
    RecoveryReport,
    injecting,
)
from repro.resilience.guardrails import count_recovery
from repro.solvers import GaussSeidelSolver, JacobiSolver, StopReason
from repro.telemetry import metrics, tracing


class TestPolicy:
    @pytest.mark.parametrize("bad", [
        {"checkpoint_every": 0}, {"max_recoveries": -1},
        {"divergence_factor": 1.0},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValidationError):
            GuardrailPolicy(**bad)

    def test_defaults(self):
        policy = GuardrailPolicy()
        assert policy.checkpoint_every == 1
        assert policy.max_recoveries == 3


class TestReport:
    def test_record_and_recovered(self):
        report = RecoveryReport()
        assert not report.recovered
        report.record(42, "nan-inf", "rollback", detail="x went NaN")
        report.rollbacks += 1
        assert report.recovered
        assert report.events[0].iteration == 42

    def test_fallback_chain_counts_as_recovery(self):
        report = RecoveryReport()
        report.fallback_chain.extend(["jacobi", "gauss-seidel"])
        assert report.recovered

    def test_absorb_merges_counts(self):
        outer, inner = RecoveryReport(), RecoveryReport()
        inner.record(1, "fault:nan", "injected")
        inner.rollbacks, inner.checkpoints, inner.faults_seen = 2, 5, 1
        outer.absorb(inner)
        outer.absorb(None)  # no-op
        assert (outer.rollbacks, outer.checkpoints, outer.faults_seen) \
            == (2, 5, 1)
        assert len(outer.events) == 1

    def test_to_json_is_loadable(self):
        report = RecoveryReport()
        report.record(3, "divergence", "rollback")
        report.rollbacks = 1
        payload = json.loads(report.to_json())
        assert payload["rollbacks"] == 1
        assert payload["recovered"] is True
        assert payload["events"][0]["kind"] == "divergence"


class TestCountRecovery:
    def test_counts_and_traces(self):
        registry = metrics.get_registry()
        counter = registry.counter("resilience_recoveries_total",
                                   "rollback/renormalize recoveries "
                                   "performed by solvers")
        before = counter.value
        recorder = tracing.TraceRecorder()
        with tracing.recording(recorder):
            count_recovery("nan-inf", 17, detail="test")
        assert counter.value == before + 1
        events = [e for e in recorder.events
                  if e["name"] == "resilience.recovery"]
        assert events and events[0]["args"]["iteration"] == 17


class TestSolverGuardrails:
    def _nan_plan(self, at=60, seed=0):
        return FaultPlan([{"site": "solver.iterate", "kind": "nan",
                           "at": at, "fraction": 0.1}], seed=seed)

    def test_clean_solve_has_no_recovery_report(self, birth_death_matrix):
        result = JacobiSolver(birth_death_matrix, damping=0.8).solve()
        assert result.converged
        assert result.recovery is None

    def test_rollback_recovers_from_injected_nan(self, birth_death_matrix):
        with injecting(self._nan_plan()) as inj:
            result = JacobiSolver(birth_death_matrix, damping=0.8,
                                  tol=1e-10).solve()
        assert inj.fired("solver.iterate") == 1
        assert result.converged
        assert result.recovery is not None
        assert result.recovery.rollbacks >= 1
        assert result.recovery.faults_seen == 1
        assert result.recovery.recovered
        assert result.x.sum() == pytest.approx(1.0)

    def test_guardrails_false_fails_fast(self, birth_death_matrix):
        with injecting(self._nan_plan()):
            result = JacobiSolver(birth_death_matrix, damping=0.8).solve(
                guardrails=False)
        assert result.stop_reason is StopReason.DIVERGED
        # Fail-fast mode still *audits* the fault it saw — it just
        # refuses to recover from it.
        assert result.recovery.faults_seen == 1
        assert result.recovery.rollbacks == 0
        assert not result.recovery.recovered

    def test_max_recoveries_exhaustion_diverges(self, birth_death_matrix):
        # Every sweep is corrupted: rollback can never outrun the
        # faults, so the budgeted recoveries run out and the solve
        # reports DIVERGED with the attempts on record.
        plan = FaultPlan([{"site": "solver.iterate", "kind": "nan",
                           "at": 0, "every": 1, "count": 10_000}])
        policy = GuardrailPolicy(max_recoveries=2)
        with injecting(plan):
            result = JacobiSolver(birth_death_matrix, damping=0.8).solve(
                guardrails=policy)
        assert result.stop_reason is StopReason.DIVERGED
        assert result.recovery is not None
        assert result.recovery.rollbacks == 2

    def test_gauss_seidel_recovers_too(self, birth_death_matrix):
        with injecting(self._nan_plan(at=5)):
            result = GaussSeidelSolver(birth_death_matrix,
                                       tol=1e-10).solve()
        assert result.converged
        assert result.recovery is not None and result.recovery.recovered

    def test_recovery_with_hooks_keeps_contract(self, birth_death_matrix):
        from repro.telemetry import RecordingHooks
        hooks = RecordingHooks()
        with injecting(self._nan_plan()):
            result = JacobiSolver(birth_death_matrix, damping=0.8).solve(
                hooks=hooks)
        assert result.converged
        assert hooks.stop_calls == 1
        assert hooks.iterations == result.iterations
