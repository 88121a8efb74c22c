"""Checkpoint file format, validation, policy and fallback behavior,
and what checkpointing costs a solve.

The contract under test: a checkpoint either reads back exactly as
written or raises :class:`~repro.errors.CheckpointError` — never
garbage — and :meth:`Checkpointer.load_latest` walks past damaged
files to the newest intact one (the torn-write recovery ladder).
"""

from __future__ import annotations

import logging
import statistics
import time

import numpy as np
import pytest

from repro.cme import StateSpace, build_rate_matrix, enumerate_state_space
from repro.cme.models import phage_lambda
from repro.durability import (
    CheckpointError,
    CheckpointPolicy,
    Checkpointer,
    network_signature,
    read_checkpoint,
    system_signature,
    write_checkpoint,
)
from repro.errors import ValidationError
from repro.solvers import BatchedJacobiSolver, JacobiSolver
from repro.solvers.stopping import StoppingCriterion


def make_arrays():
    return {"x": np.linspace(0.0, 1.0, 17),
            "states": np.arange(12, dtype=np.int64).reshape(6, 2)}


class TestFileFormat:
    def test_round_trip_preserves_everything(self, tmp_path):
        path = tmp_path / "one.ckpt"
        meta = {"history": [[10, 0.5], [20, 0.25]], "note": "hello"}
        write_checkpoint(path, signature="sig1", kind="solver",
                         iteration=20, arrays=make_arrays(), meta=meta)
        data = read_checkpoint(path)
        assert data.signature == "sig1"
        assert data.kind == "solver"
        assert data.iteration == 20
        assert data.meta == meta
        np.testing.assert_array_equal(data.arrays["x"],
                                      make_arrays()["x"])
        np.testing.assert_array_equal(data.arrays["states"],
                                      make_arrays()["states"])
        assert data.arrays["states"].dtype == np.int64
        assert data.arrays["states"].shape == (6, 2)

    def test_truncated_payload_raises(self, tmp_path):
        path = tmp_path / "one.ckpt"
        write_checkpoint(path, signature="s", kind="k", iteration=1,
                         arrays=make_arrays())
        blob = path.read_bytes()
        path.write_bytes(blob[:-9])
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_flipped_byte_fails_crc(self, tmp_path):
        path = tmp_path / "one.ckpt"
        write_checkpoint(path, signature="s", kind="k", iteration=1,
                         arrays=make_arrays())
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="CRC"):
            read_checkpoint(path)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "one.ckpt"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            read_checkpoint(path)

    def test_signature_and_kind_guards(self, tmp_path):
        path = tmp_path / "one.ckpt"
        write_checkpoint(path, signature="right", kind="solver",
                         iteration=1, arrays=make_arrays())
        with pytest.raises(CheckpointError, match="refusing to resume"):
            read_checkpoint(path, expected_signature="wrong")
        with pytest.raises(CheckpointError, match="expected"):
            read_checkpoint(path, expected_kind="fsp")


class TestSignatures:
    def test_system_signature_pins_values_method_and_tol(self):
        import scipy.sparse as sp
        A = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        B = sp.csr_matrix(np.array([[1.0, 2.5], [0.0, 3.0]]))
        base = system_signature(A, method="jacobi", tol=1e-8)
        assert system_signature(A, method="jacobi", tol=1e-8) == base
        assert system_signature(B, method="jacobi", tol=1e-8) != base
        assert system_signature(A, method="power", tol=1e-8) != base
        assert system_signature(A, method="jacobi", tol=1e-6) != base

    def test_network_signature_folds_extra(self, tiny_toggle_network):
        a = network_signature(tiny_toggle_network, extra="fsp|1e-6")
        b = network_signature(tiny_toggle_network, extra="fsp|1e-4")
        assert a != b


class TestPolicy:
    def test_iteration_trigger(self):
        policy = CheckpointPolicy(every_iterations=100)
        assert not policy.due(99, 0.0)
        assert policy.due(100, 0.0)

    def test_seconds_trigger(self):
        policy = CheckpointPolicy(every_iterations=None, every_seconds=1.5)
        assert not policy.due(10_000, 1.0)
        assert policy.due(0, 1.5)

    def test_needs_at_least_one_trigger(self):
        with pytest.raises(ValidationError):
            CheckpointPolicy(every_iterations=None, every_seconds=None)

    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            CheckpointPolicy(every_iterations=0)
        with pytest.raises(ValidationError):
            CheckpointPolicy(keep_last=0)


class TestCheckpointer:
    def test_rotation_keeps_last_k(self, tmp_path):
        ck = Checkpointer(tmp_path, signature="s",
                          policy=CheckpointPolicy(every_iterations=1,
                                                  keep_last=2))
        for it in (10, 20, 30, 40):
            ck.save(it, {"x": np.full(4, float(it))})
        names = [p.name for p in ck.files()]
        assert names == ["ckpt-000000000030.ckpt",
                         "ckpt-000000000040.ckpt"]

    def test_due_follows_cadence(self, tmp_path):
        ck = Checkpointer(tmp_path, signature="s",
                          policy=CheckpointPolicy(every_iterations=100))
        assert not ck.due(50)
        assert ck.due(100)
        ck.save(100, {"x": np.ones(3)})
        assert not ck.due(150)
        assert ck.due(205)
        ck.save(205, {"x": np.ones(3)})
        assert not ck.due(300)
        assert ck.saves == 2

    def test_load_latest_returns_newest(self, tmp_path):
        ck = Checkpointer(tmp_path, signature="s",
                          policy=CheckpointPolicy(every_iterations=1))
        ck.save(10, {"x": np.full(4, 10.0)})
        ck.save(20, {"x": np.full(4, 20.0)})
        data = ck.load_latest()
        assert data.iteration == 20
        np.testing.assert_array_equal(data.arrays["x"], np.full(4, 20.0))

    def test_torn_newest_falls_back_to_intact_older(self, tmp_path,
                                                    caplog):
        """Satellite: a torn newest checkpoint must not kill the
        resume — the loader warns and resumes the next-oldest file."""
        ck = Checkpointer(tmp_path, signature="s",
                          policy=CheckpointPolicy(every_iterations=1))
        ck.save(100, {"x": np.full(4, 100.0)})
        newest = ck.save(200, {"x": np.full(4, 200.0)})
        blob = newest.read_bytes()
        newest.write_bytes(blob[:len(blob) // 2])  # the torn write
        with caplog.at_level(logging.WARNING, logger="repro.durability"):
            data = ck.load_latest()
        assert data.iteration == 100
        np.testing.assert_array_equal(data.arrays["x"],
                                      np.full(4, 100.0))
        assert ck.rejected == 1
        assert any("skipping checkpoint" in rec.message
                   for rec in caplog.records)

    def test_all_damaged_returns_none(self, tmp_path):
        ck = Checkpointer(tmp_path, signature="s",
                          policy=CheckpointPolicy(every_iterations=1))
        for it in (10, 20):
            path = ck.save(it, {"x": np.ones(4)})
            path.write_bytes(b"garbage")
        assert ck.load_latest() is None
        assert ck.rejected == 2

    def test_foreign_signature_is_rejected(self, tmp_path):
        writer = Checkpointer(tmp_path, signature="theirs",
                              policy=CheckpointPolicy(every_iterations=1))
        writer.save(10, {"x": np.ones(4)})
        reader = Checkpointer(tmp_path, signature="mine",
                              policy=CheckpointPolicy(every_iterations=1))
        assert reader.load_latest() is None
        assert reader.rejected == 1


class TestSolverSnapshots:
    """A solve builds its checkpoint payload only for a save the policy
    wants.  Each snapshot records every live column's stopping state
    once, so counting ``StoppingCriterion.state_dict`` counts the
    snapshots built."""

    # Never converges, so every column is live at every check.
    KWARGS = dict(tol=1e-300, max_iterations=1000, stagnation_tol=None,
                  check_interval=100)

    @pytest.fixture
    def built(self, monkeypatch):
        recorded = []
        state_dict = StoppingCriterion.state_dict

        def counting(criterion):
            recorded.append(criterion)
            return state_dict(criterion)

        monkeypatch.setattr(StoppingCriterion, "state_dict", counting)
        return recorded

    @staticmethod
    def checkpointer(tmp_path):
        return Checkpointer(tmp_path, signature="s",
                            policy=CheckpointPolicy(every_iterations=300))

    def test_serial_solve(self, tiny_toggle_matrix, tmp_path, built):
        ck = self.checkpointer(tmp_path)
        JacobiSolver(tiny_toggle_matrix, **self.KWARGS).solve(
            checkpointer=ck)
        assert ck.saves == 3
        assert len(built) == ck.saves

    def test_stacked_solve(self, tiny_toggle_network, tiny_toggle_space,
                           tmp_path, built):
        mats = [build_rate_matrix(StateSpace(
            network=tiny_toggle_network.with_rates({"degA": d}),
            states=tiny_toggle_space.states)) for d in (0.8, 1.0, 1.2)]
        ck = self.checkpointer(tmp_path)
        BatchedJacobiSolver.stacked(mats, **self.KWARGS).solve_many(
            checkpointer=ck)
        assert ck.saves == 3
        assert len(built) == len(mats) * ck.saves


class TestOverhead:
    def test_default_cadence_costs_at_most_5_percent(self, tmp_path):
        """One save of the phage-lambda (15, 7) solve's own snapshot
        (median of 21) against the 1,000 sweeps between two saves at
        the default cadence.  Timing the save alone keeps the solve's
        run-to-run noise out of the ratio, and a solve builds its
        payload only when a save is due, so the save is all that
        checkpointing adds.  The sweeps take the fastest of three, so
        a host slowed by other load reads the ratio high, not low."""
        A = build_rate_matrix(enumerate_state_space(phage_lambda()))
        cadence = CheckpointPolicy().every_iterations
        kwargs = dict(tol=1e-300, stagnation_tol=None, check_interval=100)
        ck = Checkpointer(tmp_path, signature="s")
        JacobiSolver(A, max_iterations=cadence + 200, **kwargs).solve(
            checkpointer=ck)
        assert ck.saves == 1
        snapshot = read_checkpoint(ck.files()[-1])

        saves = []
        for k in range(1, 22):
            t0 = time.perf_counter()
            ck.save(snapshot.iteration + k * cadence, snapshot.arrays,
                    snapshot.meta)
            saves.append(time.perf_counter() - t0)
        save_s = statistics.median(saves)

        solver = JacobiSolver(A, max_iterations=cadence, **kwargs)
        sweeps_s = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            solver.solve()
            sweeps_s = min(sweeps_s, time.perf_counter() - t0)
        overhead_pct = save_s / sweeps_s * 100.0
        assert overhead_pct <= 5.0, (save_s, sweeps_s)


class TestWriteFaultSite:
    """The ``checkpoint.write`` chaos site damages files on schedule."""

    def test_torn_fault_produces_unreadable_file(self, tmp_path):
        from repro.resilience.faults import FaultPlan, injecting
        plan = FaultPlan([{"site": "checkpoint.write", "kind": "torn",
                           "at": 1, "count": 1, "fraction": 0.5}], seed=0)
        ck = Checkpointer(tmp_path, signature="s",
                          policy=CheckpointPolicy(every_iterations=1))
        with injecting(plan) as injector:
            ck.save(10, {"x": np.full(8, 1.0)})   # index 0: intact
            ck.save(20, {"x": np.full(8, 2.0)})   # index 1: torn
            assert injector.fired("checkpoint.write") == 1
        data = ck.load_latest()
        assert data.iteration == 10
        assert ck.rejected == 1

    def test_corrupt_fault_fails_crc(self, tmp_path):
        from repro.resilience.faults import FaultPlan, injecting
        plan = FaultPlan([{"site": "checkpoint.write", "kind": "corrupt",
                           "at": 0, "count": 1,
                           "fraction": 0.01}], seed=0)
        ck = Checkpointer(tmp_path, signature="s",
                          policy=CheckpointPolicy(every_iterations=1))
        with injecting(plan):
            path = ck.save(10, {"x": np.full(64, 1.0)})
        with pytest.raises(CheckpointError):
            read_checkpoint(path)
