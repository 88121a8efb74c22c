"""The sharded (domain-decomposed) Jacobi solver.

The load-bearing property is *bitwise parity*: every iterate, residual
and stop decision must equal the serial :class:`JacobiSolver`'s exactly
— same partition-invariant floating-point operations in the same order
(see DESIGN.md §14 for why the rectangular row-block sweep makes this
possible) — and a worker that dies mid-sweep must not change a bit.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro import backends
from repro.cme.models.toggle_switch import toggle_switch
from repro.cme.ratematrix import build_rate_matrix
from repro.cme.statespace import enumerate_state_space
from repro.distributed import ShardedJacobiSolver
from repro.distributed import shm as S
from repro.distributed.sharded import WORKER_TIMEOUT_S, _ShardPool
from repro.errors import ValidationError, WorkerCrashError
from repro.resilience.faults import FaultPlan, FaultSpec, injecting
from repro.solvers import SOLVER_REGISTRY, JacobiSolver, StopReason


@pytest.fixture(scope="module")
def toggle_matrix():
    return build_rate_matrix(
        enumerate_state_space(toggle_switch(max_protein=10)))


def assert_identical(serial, sharded):
    """Bitwise-identical solves: iterate, diagnostics and history."""
    assert sharded.stop_reason == serial.stop_reason
    assert sharded.iterations == serial.iterations
    assert sharded.residual == serial.residual
    assert sharded.residual_history == serial.residual_history
    np.testing.assert_array_equal(sharded.x, serial.x)


class TestBarrierParity:
    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_bitwise_equal_to_serial_jacobi(self, shards, toggle_matrix):
        kw = dict(tol=1e-10, max_iterations=1000, check_interval=50,
                  damping=0.9)
        serial = JacobiSolver(toggle_matrix, **kw).solve()
        sharded = ShardedJacobiSolver(toggle_matrix, shards=shards,
                                      sync="barrier", **kw).solve()
        assert serial.stop_reason is StopReason.CONVERGED
        assert_identical(serial, sharded)

    def test_fixed_budget_parity(self, toggle_matrix):
        """Every iterate matches, not just the converged fixed point."""
        kw = dict(tol=1e-300, max_iterations=60, check_interval=20,
                  stagnation_tol=None)
        serial = JacobiSolver(toggle_matrix, **kw).solve()
        sharded = ShardedJacobiSolver(toggle_matrix, shards=2,
                                      sync="barrier", **kw).solve()
        assert serial.stop_reason is StopReason.MAX_ITERATIONS
        assert_identical(serial, sharded)

    def test_undamped_parity(self, toggle_matrix):
        kw = dict(tol=1e-300, max_iterations=40, check_interval=40,
                  stagnation_tol=None)
        serial = JacobiSolver(toggle_matrix, **kw).solve()
        sharded = ShardedJacobiSolver(toggle_matrix, shards=3,
                                      sync="barrier", **kw).solve()
        assert_identical(serial, sharded)

    def test_warm_start_converged_input_skips_the_pool(self, toggle_matrix):
        kw = dict(tol=1e-10, max_iterations=1000, check_interval=50,
                  damping=0.9)
        donor = JacobiSolver(toggle_matrix, **kw).solve()
        warm = ShardedJacobiSolver(toggle_matrix, shards=2, **kw).solve(
            x0=donor.x)
        assert warm.stop_reason is StopReason.CONVERGED
        assert warm.iterations == 0

    def test_warm_start_parity(self, toggle_matrix):
        """A non-converged x0 goes through the pool, bitwise-serial."""
        x0 = np.full(toggle_matrix.shape[0], 1.0)
        x0[0] = 5.0
        kw = dict(tol=1e-10, max_iterations=1000, check_interval=50,
                  damping=0.9)
        serial = JacobiSolver(toggle_matrix, **kw).solve(x0=x0)
        sharded = ShardedJacobiSolver(toggle_matrix, shards=2,
                                      sync="barrier", **kw).solve(x0=x0)
        assert_identical(serial, sharded)


class TestShardingDiagnostics:
    def test_result_carries_partition_and_traffic(self, toggle_matrix):
        result = ShardedJacobiSolver(toggle_matrix, shards=2,
                                     sync="barrier", tol=1e-10,
                                     damping=0.9).solve()
        info = result.sharding
        n = toggle_matrix.shape[0]
        assert info["shards"] == 2
        assert info["sync"] == "barrier"
        rows = info["rows"]
        assert rows[0][0] == 0 and rows[-1][1] == n
        assert all(a < b for a, b in rows)
        # Both shards swept every iteration and moved halo bytes.
        assert info["sweeps"] == [result.iterations] * 2
        assert all(b > 0 for b in info["halo_bytes"])
        assert info["respawns"] == 0

    def test_emits_shard_spans(self, toggle_matrix):
        from repro.telemetry import tracing
        rec = tracing.TraceRecorder()
        with tracing.recording(rec):
            ShardedJacobiSolver(toggle_matrix, shards=2, tol=1e-10,
                                damping=0.9).solve()
        names = [e["name"] for e in rec.events]
        assert "sharded.solve" in names
        assert "shard.sweep" in names


class TestFaults:
    KW = dict(tol=1e-10, max_iterations=5000, check_interval=50,
              damping=0.9)

    def test_worker_kill_is_recovered(self, toggle_matrix):
        """Both shards die at their sweep 20; each is respawned and the
        sweep re-run from its unchanged input, so no bit moves."""
        plan = FaultPlan([FaultSpec(site="shard.worker", kind="kill",
                                    at=20)])
        serial = JacobiSolver(toggle_matrix, **self.KW).solve()
        with injecting(plan):
            result = ShardedJacobiSolver(
                toggle_matrix, shards=2, **self.KW).solve()
        assert_identical(serial, result)
        assert result.sharding["respawns"] == 2

    @pytest.mark.parametrize("backend", [
        name for name in ("numpy", "native")
        if name in backends.available_backends()])
    def test_worker_killed_during_bootstrap_is_respawned(
            self, backend, toggle_matrix, monkeypatch):
        """SIGKILL shard 1 right after ``proc.start()``, before it has
        acknowledged any epoch (fork under numpy, spawn under native):
        the parent respawns it at once instead of waiting on it."""
        spawn = _ShardPool._spawn
        killed = []

        def spawn_then_kill(pool, spec):
            proc = spawn(pool, spec)
            if spec.shard == 1 and not killed:
                os.kill(proc.pid, signal.SIGKILL)
                killed.append(proc.pid)
            return proc

        monkeypatch.setattr(_ShardPool, "_spawn", spawn_then_kill)
        serial = JacobiSolver(toggle_matrix, backend=backend,
                              **self.KW).solve()
        t0 = time.perf_counter()
        result = ShardedJacobiSolver(toggle_matrix, shards=2,
                                     backend=backend, **self.KW).solve()
        elapsed = time.perf_counter() - t0
        assert killed
        assert_identical(serial, result)
        assert result.sharding["respawns"] >= 1
        assert elapsed < WORKER_TIMEOUT_S / 4

    def test_shard_dying_twice_in_one_sweep_raises_and_cleans_up(
            self, toggle_matrix, monkeypatch):
        """``every=1`` kills each reincarnation at its first sweep, so a
        shard dies twice in one sweep: the solve raises, and neither a
        worker process nor a shared-memory segment outlives it."""
        created = []
        create = S.SharedState.create

        def recording_create(n, shards):
            state = create(n, shards)
            created.append(state.names)
            return state

        monkeypatch.setattr(S.SharedState, "create",
                            staticmethod(recording_create))
        before = set(multiprocessing.active_children())
        plan = FaultPlan([FaultSpec(site="shard.worker", kind="kill",
                                    at=5, every=1)])
        with injecting(plan):
            with pytest.raises(WorkerCrashError, match="twice"):
                ShardedJacobiSolver(toggle_matrix, shards=2,
                                    **self.KW).solve()
        assert set(multiprocessing.active_children()) <= before
        assert len(created) == 1
        for name in created[0]:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_stall_only_delays(self, toggle_matrix):
        plan = FaultPlan([FaultSpec(site="shard.worker", kind="stall",
                                    at=10, delay_s=0.05)])
        kw = dict(tol=1e-10, max_iterations=1000, check_interval=50,
                  damping=0.9)
        serial = JacobiSolver(toggle_matrix, **kw).solve()
        with injecting(plan):
            result = ShardedJacobiSolver(toggle_matrix, shards=2,
                                         sync="barrier", **kw).solve()
        # A stall is pure latency: the arithmetic is untouched.
        assert_identical(serial, result)


class TestValidationAndWiring:
    def test_rejects_bad_options(self, toggle_matrix):
        with pytest.raises(ValidationError):
            ShardedJacobiSolver(toggle_matrix, sync="eventually")
        with pytest.raises(ValidationError):
            ShardedJacobiSolver(toggle_matrix, shards=0)
        with pytest.raises(ValidationError):
            ShardedJacobiSolver(toggle_matrix,
                                shards=toggle_matrix.shape[0] + 1)
        with pytest.raises(ValidationError):
            ShardedJacobiSolver(toggle_matrix, damping=0.0)

    def test_registered_as_sharded(self):
        assert SOLVER_REGISTRY["sharded"] is ShardedJacobiSolver

    def test_solve_steady_state_method(self):
        from repro import solve_steady_state
        result = solve_steady_state(toggle_switch(max_protein=6),
                                    "sharded", tol=1e-9, damping=0.9,
                                    shards=2)
        assert result.stop_reason is StopReason.CONVERGED
        assert result.landscape is not None


class TestDurableResume:
    """Checkpoints resume bitwise, whatever the shard count."""

    KW = dict(tol=1e-10, check_interval=50, damping=0.9)

    def make_ck(self, tmp_path, matrix, *, resume=False):
        from repro.durability import (
            CheckpointPolicy,
            Checkpointer,
            system_signature,
        )
        from repro.sparse.base import as_csr
        from repro.sparse.conversion import to_scipy
        return Checkpointer(
            tmp_path, resume=resume,
            signature=system_signature(as_csr(to_scipy(matrix)),
                                       method="sharded", tol=1e-10),
            policy=CheckpointPolicy(every_iterations=100, keep_last=3))

    def test_resume_is_bitwise_across_shard_counts(self, toggle_matrix,
                                                   tmp_path):
        reference = ShardedJacobiSolver(toggle_matrix, shards=2,
                                        sync="barrier", **self.KW).solve()
        ck = self.make_ck(tmp_path, toggle_matrix)
        ShardedJacobiSolver(toggle_matrix, shards=2, sync="barrier",
                            max_iterations=200, **self.KW).solve(
            checkpointer=ck)
        assert ck.saves >= 1
        # Resume on a *different* shard count: the partition only
        # distributes arithmetic, so parity survives re-sharding.
        ck2 = self.make_ck(tmp_path, toggle_matrix, resume=True)
        resumed = ShardedJacobiSolver(toggle_matrix, shards=3,
                                      sync="barrier", **self.KW).solve(
            checkpointer=ck2)
        assert ck2.resumed_from is not None
        assert_identical(reference, resumed)
