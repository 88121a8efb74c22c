"""Chaos at the serve pool fault site.

The acceptance story: a pool worker killed mid-solve surfaces as the
retryable :class:`WorkerCrashError`, the pool respawns the worker, the
retry lands on a live process, and the write-ahead journal still shows
exactly one ``accepted`` and one ``completed`` record for the job —
the crash is invisible to the caller and to durability.  Stalls delay
but do not fail.
"""

from __future__ import annotations

import time

import pytest

from repro.cme.models import toggle_switch
from repro.durability import JobJournal
from repro.errors import WorkerCrashError
from repro.resilience import FaultPlan, injecting
from repro.serve import SolveService
from repro.serve.pool import ProcessSolverPool
from repro.solvers.result import StopReason

TOL = 1e-6
SOLVER = {"damping": 0.7}


@pytest.fixture
def network():
    return toggle_switch(max_protein=6)


def wait_for(predicate, timeout_s=30.0):
    # job.finish() releases result() before the service's on_done
    # bookkeeping runs; counters need a beat to land.
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def make_service(network, **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("tol", TOL)
    kwargs.setdefault("solver_options", SOLVER)
    kwargs.setdefault("executor", "process")
    return SolveService(network, **kwargs)


class TestPoolKill:
    def test_killed_worker_is_retried_and_journal_stays_exactly_once(
            self, network, tmp_path):
        path = tmp_path / "jobs.journal"
        plan = FaultPlan(
            [{"site": "serve.pool", "kind": "kill", "count": 1}],
            seed=0, name="kill-first-dispatch")
        with injecting(plan):
            with make_service(network, retries=1, journal=path) as svc:
                out = svc.submit({"degA": 0.5}).result(timeout=120)
                assert out.result.stop_reason is StopReason.CONVERGED
                assert wait_for(
                    lambda: svc.snapshot()["completed"] == 1)
                snap = svc.snapshot()
                assert snap["pool_respawns"] == 1
                assert snap["retried"] == 1

        # Exactly-once durability: the crash and retry happened inside
        # ONE accepted->completed envelope, and a clean close leaves
        # nothing open to replay.
        with JobJournal(path) as j:
            records = j.records()
        types = [r["type"] for r in records]
        assert types.count("accepted") == 1
        assert types.count("completed") == 1
        with JobJournal(path) as j:
            assert j.open_entries() == []

    def test_kill_without_retry_budget_fails_but_pool_recovers(
            self, network):
        plan = FaultPlan(
            [{"site": "serve.pool", "kind": "kill", "count": 1}],
            seed=0, name="kill-no-retry")
        with injecting(plan):
            with make_service(network, retries=0, cache=False) as svc:
                job = svc.submit({"degA": 0.5})
                with pytest.raises(WorkerCrashError):
                    job.result(timeout=120)
                # The respawned worker serves the next job fine.
                out = svc.submit({"degA": 0.6}).result(timeout=120)
                assert out.result.stop_reason is StopReason.CONVERGED
                assert svc.snapshot()["pool_respawns"] == 1

    def test_bare_pool_raises_worker_crash_and_respawns(self, network):
        from repro.cme.ratematrix import build_rate_matrix
        from repro.cme.statespace import enumerate_state_space

        A = build_rate_matrix(enumerate_state_space(network))
        plan = FaultPlan(
            [{"site": "serve.pool", "kind": "kill", "count": 1}],
            seed=0, name="kill-bare-pool")
        with injecting(plan):
            with ProcessSolverPool(workers=1) as pool:
                with pytest.raises(WorkerCrashError):
                    pool.solve(system_key="sys", matrix=A,
                               method="jacobi", tol=TOL,
                               max_iterations=50_000, options=SOLVER)
                result = pool.solve(system_key="sys", matrix=A,
                                    method="jacobi", tol=TOL,
                                    max_iterations=50_000, options=SOLVER)
                assert result.stop_reason is StopReason.CONVERGED
                assert pool.stats["respawns"] == 1
                # The respawned worker lost its memo: one re-ship.
                assert pool.stats["systems_shipped"] == 2


class TestPoolStall:
    def test_stalled_worker_delays_but_completes(self, network):
        plan = FaultPlan(
            [{"site": "serve.pool", "kind": "stall", "count": 1,
              "delay_s": 0.3}],
            seed=0, name="stall-first-dispatch")
        with injecting(plan):
            with make_service(network) as svc:
                out = svc.submit({"degA": 0.5}).result(timeout=120)
                assert out.result.stop_reason is StopReason.CONVERGED
                snap = svc.snapshot()
                assert snap["pool_respawns"] == 0
                assert snap["retried"] == 0


class TestJournalReplayWithProcessExecutor:
    def test_orphaned_accept_replays_through_the_pool(
            self, network, tmp_path):
        path = tmp_path / "jobs.journal"
        with make_service(network, journal=path, cache=False) as svc:
            svc.submit({"degA": 0.5}, tenant="gold").result(timeout=120)
            with JobJournal(path) as j:
                accept = next(r for r in j.records()
                              if r["type"] == "accepted")
        # Forge a crash that lost the terminal record: only the accept
        # survives.  The restarted (process-executor) service must
        # re-solve it through the pool, once.
        path.unlink()
        with JobJournal(path) as j:
            j.accepted(accept["key"], accept["payload"])
        assert accept["payload"]["tenant"] == "gold"

        with make_service(network, journal=path, cache=False) as svc2:
            assert svc2.drain(timeout_s=120)
            assert wait_for(lambda: svc2.snapshot()["completed"] == 1)
            snap = svc2.snapshot()
            assert snap["journal_replayed"] == 1
            # The replayed job kept its tenant accounting.
            assert snap["tenants"]["gold"]["completed"] == 1
        with JobJournal(path) as j:
            assert j.open_entries() == []
