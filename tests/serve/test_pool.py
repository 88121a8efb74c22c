"""The multi-process solver pool: dispatch, memoization, crash recovery.

The contracts under test: pool answers are numerically identical to
in-process solves of the same system; a linear system ships to a given
worker once (repeat dispatches send only the key, and a ``need-system``
reply triggers exactly one re-ship); worker-side exceptions cross the
pipe as reconstructed typed errors; a dead worker surfaces as the
retryable :class:`WorkerCrashError` and is respawned before the retry
can land on it.
"""

from __future__ import annotations

import errno
import multiprocessing
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cme.models import toggle_switch
from repro.cme.ratematrix import build_rate_matrix
from repro.cme.statespace import enumerate_state_space
from repro.errors import (
    BackendError,
    SingularSystemError,
    SolveJobError,
    ValidationError,
)
from repro.serve.pool import ProcessSolverPool
from repro.solvers import JacobiSolver
from repro.solvers.result import StopReason

TOL = 1e-8
OPTS = {"damping": 0.8}


@pytest.fixture(scope="module")
def system():
    space = enumerate_state_space(toggle_switch(max_protein=6))
    return build_rate_matrix(space)


@pytest.fixture
def pool():
    with ProcessSolverPool(workers=2) as p:
        yield p


def pool_solve(p, A, *, key="sys", x0=None, **kwargs):
    params = {"system_key": key, "matrix": A, "method": "jacobi",
              "tol": TOL, "max_iterations": 50_000, "options": OPTS,
              "x0": x0}
    params.update(kwargs)
    return p.solve(**params)


class TestDispatch:
    def test_matches_in_process_solve(self, pool, system):
        local = JacobiSolver(system, tol=TOL, max_iterations=50_000,
                             **OPTS).solve()
        remote = pool_solve(pool, system)
        assert remote.stop_reason is StopReason.CONVERGED
        assert remote.iterations == local.iterations
        np.testing.assert_allclose(remote.x, local.x, rtol=0, atol=1e-12)

    def test_warm_start_ships_through(self, pool, system):
        cold = pool_solve(pool, system)
        warm = pool_solve(pool, system, x0=cold.x)
        assert warm.iterations < cold.iterations

    def test_system_ships_once_per_worker(self, system):
        with ProcessSolverPool(workers=1) as p:
            for _ in range(4):
                pool_solve(p, system)
            assert p.stats["dispatches"] == 4
            assert p.stats["systems_shipped"] == 1

    def test_closed_pool_rejects(self, system):
        p = ProcessSolverPool(workers=1)
        p.close()
        p.close()  # idempotent
        with pytest.raises(SolveJobError):
            pool_solve(p, system)


class TestFailedSpawn:
    def test_started_workers_stop_when_a_later_one_fails(self, monkeypatch):
        start = ProcessSolverPool._start_worker
        started = []

        def start_or_fail(self, handle):
            if handle.idx == 1:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            start(self, handle)
            started.append(handle.proc)

        monkeypatch.setattr(ProcessSolverPool, "_start_worker", start_or_fail)
        with pytest.raises(OSError):
            ProcessSolverPool(workers=3)
        assert len(started) == 1
        assert not started[0].is_alive()


class TestErrorMarshalling:
    def test_singular_system_reconstructs_with_rows(self, pool):
        # Row 0 has a zero diagonal: Jacobi's D^{-1} does not exist,
        # and the worker-side constructor must say which rows.
        A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, -1.0]]))
        with pytest.raises(SingularSystemError) as info:
            pool_solve(pool, A, key="singular")
        assert 0 in info.value.rows

    def test_unknown_method_marshals(self, pool, system):
        with pytest.raises(SolveJobError):
            pool_solve(pool, system, method="no-such-method")


class TestSharedPool:
    def test_two_services_share_one_pool(self, system):
        from repro.serve import SolveService

        net_a = toggle_switch(max_protein=6)
        net_b = toggle_switch(max_protein=7)
        with ProcessSolverPool(workers=2) as p:
            with SolveService(net_a, workers=2, pool=p) as sa, \
                    SolveService(net_b, workers=2, pool=p) as sb:
                out_a = sa.solve({"degA": 0.5})
                out_b = sb.solve({"degA": 2.0})
                assert out_a.result.stop_reason is StopReason.CONVERGED
                assert out_b.result.stop_reason is StopReason.CONVERGED
            # Neither service owned the pool: it must still be usable.
            assert pool_solve(p, system).stop_reason \
                is StopReason.CONVERGED


class TestServiceOwnedPool:
    @pytest.mark.parametrize("bad", [{"queue_capacity": 0},
                                     {"retries": -1}])
    def test_rejected_arguments_spawn_no_worker(self, bad):
        from repro.serve import SolveService

        before = set(multiprocessing.active_children())
        with pytest.raises(ValidationError):
            SolveService(toggle_switch(max_protein=6), workers=1,
                         executor="process", **bad)
        leaked = [p.name for p in multiprocessing.active_children()
                  if p not in before]
        assert leaked == []

    def test_failed_pool_spawn_stops_scheduler_threads(self):
        from repro.serve import SolveService

        before = set(threading.enumerate())
        with pytest.raises(BackendError):
            SolveService(toggle_switch(max_protein=6), workers=2,
                         executor="process",
                         solver_options={"backend": "no-such-backend"})
        started = [t for t in threading.enumerate() if t not in before]
        for t in started:
            t.join(timeout=5.0)
        assert not any(t.is_alive() for t in started)
