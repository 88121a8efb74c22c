"""Resume parity: a resumed solve must match the uninterrupted run.

For the serial solvers and barrier-mode sharding the bar is *bitwise*:
checkpoints are taken at residual-check boundaries (post-renormalize),
the iterate is restored verbatim, and the recomputed pending product is
deterministic — so the resumed trajectory is the uninterrupted one.
The batched and FSP layers assert the same identity on their richer
state (retired columns, per-column histories, round trajectories).
The extrapolated stop's state is the previous checked iterate
(``x_prev``, ``X_prev``), so a resume from the check just before an
extrapolated stop takes the same stop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cme.models import toggle_switch
from repro.cme.ratematrix import build_rate_matrix
from repro.cme.statespace import StateSpace, enumerate_state_space
from repro.durability import CheckpointPolicy, Checkpointer, system_signature
from repro.durability import read_checkpoint, write_checkpoint
from repro.errors import ValidationError
from repro.solvers import GaussSeidelSolver, JacobiSolver, PowerIterationSolver
from repro.solvers.batched import BatchedJacobiSolver
from repro.solvers.result import StopReason
from repro.sparse.base import as_csr
from repro.sparse.conversion import to_scipy
from tests.solvers import test_oracle as oracle

DAMPING = 0.7
TOL = 1e-10


@pytest.fixture(scope="module")
def system():
    A = build_rate_matrix(
        enumerate_state_space(toggle_switch(max_protein=10)))
    return A


def rate_conditions(network, multipliers, rate="degA"):
    """*network*'s generators with *rate* scaled by each multiplier,
    over one state space (the stacked solve's columns)."""
    space = enumerate_state_space(network)
    base = {r.name: r.rate for r in network.reactions}[rate]
    return [build_rate_matrix(StateSpace(
        network=network.with_rates({rate: base * m}), states=space.states))
        for m in multipliers]


def make_ck(tmp_path, A, *, every=50, resume=False, method="jacobi"):
    return Checkpointer(
        tmp_path, resume=resume,
        signature=system_signature(as_csr(to_scipy(A)), method=method,
                                   tol=TOL),
        policy=CheckpointPolicy(every_iterations=every, keep_last=3))


def assert_identical(reference, resumed):
    assert resumed.stop_reason == reference.stop_reason
    assert resumed.iterations == reference.iterations
    assert resumed.residual == reference.residual
    assert resumed.residual_history == reference.residual_history
    np.testing.assert_array_equal(resumed.x, reference.x)


class TestSerialResume:
    @pytest.mark.parametrize("solver_cls,kwargs", [
        (JacobiSolver, {"damping": DAMPING}),
        (GaussSeidelSolver, {}),
        (PowerIterationSolver, {}),
    ])
    def test_bitwise_equal_to_uninterrupted(self, system, tmp_path,
                                            solver_cls, kwargs):
        reference = solver_cls(system, tol=TOL, **kwargs).solve()
        assert reference.iterations > 100  # enough room to interrupt

        # "Crash" partway: a tight iteration budget stops the first
        # process just past the first check-boundary checkpoint.
        partial_dir = tmp_path / solver_cls.__name__
        ck = make_ck(partial_dir, system, every=50)
        solver_cls(system, tol=TOL, max_iterations=120, **kwargs).solve(
            checkpointer=ck)
        assert ck.saves >= 1

        ck2 = make_ck(partial_dir, system, every=50, resume=True)
        resumed = solver_cls(system, tol=TOL, **kwargs).solve(
            checkpointer=ck2)
        assert ck2.resumed_from is not None
        assert_identical(reference, resumed)

    def test_resume_without_checkpoints_starts_fresh(self, system,
                                                     tmp_path):
        ck = make_ck(tmp_path, system, resume=True)
        result = JacobiSolver(system, tol=TOL, damping=DAMPING).solve(
            checkpointer=ck)
        assert ck.resumed_from is None
        reference = JacobiSolver(system, tol=TOL, damping=DAMPING).solve()
        assert_identical(reference, result)

    def test_wrong_shape_checkpoint_is_skipped(self, system, tmp_path):
        ck = make_ck(tmp_path, system)
        ck.save(100, {"x": np.ones(3)}, {"iteration": 100})
        ck2 = make_ck(tmp_path, system, resume=True)
        from repro.errors import CheckpointError
        with pytest.raises(CheckpointError):
            JacobiSolver(system, tol=TOL, damping=DAMPING).solve(
                checkpointer=ck2)


class TestBatchedResume:
    def test_multi_rhs_resume_is_bitwise(self, tmp_path):
        """Three rate conditions stop at 200, 400 and 500 sweeps.  The
        partial run's last checkpoint, at 300, holds a column retired
        before it and two live ones; the first check after it takes an
        extrapolated stop, from the saved previous iterate."""
        mats = rate_conditions(toggle_switch(max_protein=10),
                               (0.25, 1.6, 2.0))

        def solver(**kwargs):
            return BatchedJacobiSolver.stacked(mats, tol=TOL,
                                               damping=DAMPING, **kwargs)

        reference = solver().solve_many()
        assert [r.iterations for r in reference] == [200, 400, 500]
        assert extrapolated_stop(reference[1]) == 400

        ck = make_ck(tmp_path, mats[0], every=100, method="batched")
        solver(max_iterations=400).solve_many(checkpointer=ck)
        ck2 = make_ck(tmp_path, mats[0], every=100, resume=True,
                      method="batched")
        resumed = solver().solve_many(checkpointer=ck2)
        assert ck2.resumed_from.name == checkpoint_name(300)
        for ref, res in zip(reference, resumed):
            assert_identical(ref, res)


def checkpoint_name(iteration: int) -> str:
    """The file name ``Checkpointer.save`` gives *iteration*'s
    checkpoint.  Tests check the resumed-from name, not the file: the
    resumed solve's own saves may already have rotated it away."""
    return f"ckpt-{iteration:012d}.ckpt"


def extrapolated_stop(result) -> int:
    """The iteration of *result*'s extrapolated stop: its history ends
    with that check's residual and then the candidate's."""
    (check, _), (stop, _) = result.residual_history[-2:]
    assert result.stop_reason is StopReason.CONVERGED
    assert check == stop == result.iterations
    return stop


def drop_previous_iterate(directory) -> None:
    """Rewrite the newest checkpoint without the extrapolated stop's
    state, as a build without the stop wrote it."""
    path = sorted(directory.glob("ckpt-*.ckpt"))[-1]
    data = read_checkpoint(path)
    write_checkpoint(
        path, signature=data.signature, kind=data.kind,
        iteration=data.iteration,
        arrays={k: v for k, v in data.arrays.items()
                if k not in ("x_prev", "X_prev")},
        meta={k: v for k, v in data.meta.items()
              if k not in ("prev_depth", "prev_depths")})


class TestResumeAcrossExtrapolatedStop:
    """The oracle's toggle switch at its damping and tolerance; the
    partial run saves at every check and ends half an interval past
    the check just before the stop, so that check holds the newest
    checkpoint."""

    @pytest.fixture(scope="class")
    def toggle(self):
        A = build_rate_matrix(enumerate_state_space(
            oracle.MODELS["toggle"][0]()))
        return A, oracle.direct_solve(A)

    @pytest.fixture(scope="class")
    def toggle_conditions(self):
        """The base rates and the oracle's two stacked conditions, with
        their exact answers: the base column stops at 600 sweeps, well
        before the other two (2,000)."""
        mats = rate_conditions(oracle.MODELS["toggle"][0](),
                               (1.0,) + oracle.MULTIPLIERS)
        return mats, [oracle.direct_solve(A) for A in mats]

    def checkpointer(self, directory, A, *, resume=False):
        return Checkpointer(
            directory, resume=resume,
            signature=system_signature(as_csr(A), method="jacobi",
                                       tol=oracle.TOL),
            policy=CheckpointPolicy(every_iterations=1, keep_last=2))

    def solver(self, A, **kwargs):
        return JacobiSolver(A, tol=oracle.TOL, damping=oracle.DAMPING,
                            **kwargs)

    def batched(self, mats, **kwargs):
        return BatchedJacobiSolver.stacked(mats, tol=oracle.TOL,
                                           damping=oracle.DAMPING, **kwargs)

    def test_serial_resume_takes_the_same_stop(self, toggle, tmp_path):
        A, _ = toggle
        reference = self.solver(A).solve()
        stop = extrapolated_stop(reference)
        self.solver(A, max_iterations=stop - 50).solve(
            checkpointer=self.checkpointer(tmp_path, A))
        ck = self.checkpointer(tmp_path, A, resume=True)
        resumed = self.solver(A).solve(checkpointer=ck)
        assert ck.resumed_from.name == checkpoint_name(stop - 100)
        assert_identical(reference, resumed)

    def test_batched_resume_takes_the_same_stop(self, toggle_conditions,
                                                tmp_path):
        mats, _ = toggle_conditions
        reference = self.batched(mats).solve_many()
        stop = max(extrapolated_stop(r) for r in reference)
        assert reference[0].iterations < stop - 100
        self.batched(mats, max_iterations=stop - 50).solve_many(
            checkpointer=self.checkpointer(tmp_path, mats[0]))
        ck = self.checkpointer(tmp_path, mats[0], resume=True)
        resumed = self.batched(mats).solve_many(checkpointer=ck)
        assert ck.resumed_from.name == checkpoint_name(stop - 100)
        for ref, res in zip(reference, resumed):
            assert_identical(ref, res)

    def test_serial_checkpoint_without_previous_iterate(self, toggle,
                                                        tmp_path):
        A, exact = toggle
        stop = extrapolated_stop(self.solver(A).solve())
        self.solver(A, max_iterations=stop - 50).solve(
            checkpointer=self.checkpointer(tmp_path, A))
        drop_previous_iterate(tmp_path)
        ck = self.checkpointer(tmp_path, A, resume=True)
        resumed = self.solver(A).solve(checkpointer=ck)
        assert ck.resumed_from is not None
        oracle.assert_within([resumed], [exact],
                             oracle.BOUNDS["toggle"]["jacobi"])

    def test_batched_checkpoint_without_previous_iterate(
            self, toggle_conditions, tmp_path):
        mats, exacts = toggle_conditions
        stop = max(extrapolated_stop(r) for r in
                   self.batched(mats).solve_many())
        self.batched(mats, max_iterations=stop - 50).solve_many(
            checkpointer=self.checkpointer(tmp_path, mats[0]))
        drop_previous_iterate(tmp_path)
        ck = self.checkpointer(tmp_path, mats[0], resume=True)
        resumed = self.batched(mats).solve_many(checkpointer=ck)
        assert ck.resumed_from is not None
        oracle.assert_within(resumed, exacts,
                             oracle.BOUNDS["toggle"]["stacked"])


class TestFspResume:
    def test_round_granular_resume_matches(self, tmp_path):
        from repro.durability import network_signature
        from repro.fsp import AdaptiveFspController

        network = toggle_switch(max_protein=12)
        kwargs = dict(fsp_tol=1e-4, tol=1e-8, initial_size=32)
        reference = AdaptiveFspController(network, **kwargs).solve()
        assert len(reference.rounds) >= 3

        sig = network_signature(network, extra="fsp-test")
        ck = Checkpointer(tmp_path, signature=sig,
                          policy=CheckpointPolicy(every_iterations=1))
        partial = AdaptiveFspController(network, max_rounds=2, **kwargs)
        partial.solve(checkpointer=ck)
        assert ck.saves >= 1

        ck2 = Checkpointer(tmp_path, signature=sig, resume=True,
                           policy=CheckpointPolicy(every_iterations=1))
        resumed = AdaptiveFspController(network, **kwargs).solve(
            checkpointer=ck2)
        assert ck2.resumed_from is not None
        assert resumed.converged == reference.converged
        assert resumed.space.size == reference.space.size
        assert resumed.truncation_mass == reference.truncation_mass
        assert [r.round for r in resumed.rounds] == \
            [r.round for r in reference.rounds]
        np.testing.assert_array_equal(resumed.x, reference.x)


class TestFrontDoor:
    def test_solve_steady_state_checkpoint_and_resume(self, tmp_path):
        from repro import solve_steady_state

        network = toggle_switch(max_protein=8)
        reference = solve_steady_state(network, tol=1e-9, damping=DAMPING)
        solve_steady_state(network, tol=1e-9, damping=DAMPING,
                           max_iterations=150,
                           checkpoint=tmp_path, checkpoint_every=50)
        assert list(tmp_path.glob("ckpt-*.ckpt"))
        resumed = solve_steady_state(network, tol=1e-9, damping=DAMPING,
                                     checkpoint=tmp_path, resume=True,
                                     checkpoint_every=50)
        assert resumed.iterations == reference.iterations
        np.testing.assert_array_equal(resumed.x, reference.x)

    def test_resume_requires_checkpoint_dir(self):
        from repro import solve_steady_state
        with pytest.raises(ValidationError, match="checkpoint"):
            solve_steady_state(toggle_switch(max_protein=6), resume=True)

    def test_uncheckpointable_method_is_rejected(self, tmp_path):
        from repro import solve_steady_state
        with pytest.raises(ValidationError, match="does not support"):
            solve_steady_state(toggle_switch(max_protein=6),
                               method="resilient", checkpoint=tmp_path)

    def test_signature_isolation_between_methods(self, tmp_path):
        """A jacobi-signed checkpoint never seeds a power resume."""
        from repro import solve_steady_state

        network = toggle_switch(max_protein=8)
        solve_steady_state(network, tol=1e-9, damping=DAMPING,
                           max_iterations=150, checkpoint=tmp_path,
                           checkpoint_every=50)
        reference = solve_steady_state(network, method="power", tol=1e-9)
        resumed = solve_steady_state(network, method="power", tol=1e-9,
                                     checkpoint=tmp_path, resume=True)
        # Mismatched signatures are rejected; the solve runs fresh and
        # still lands on the fresh answer.
        assert resumed.iterations == reference.iterations
        np.testing.assert_array_equal(resumed.x, reference.x)
