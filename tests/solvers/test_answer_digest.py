"""Solver answers are bitwise-stable across backends and refactors.

A rewired sweep or loop path can move an answer by an ulp while every
tolerance test still passes.  So one SHA-256 digest is recorded over
every result of a fixed set of Jacobi solves: each result's ``x``
bytes, iteration count, residual (as a hex float), stop reason and
residual history.  The cases cover every path a Jacobi answer takes:

* :class:`JacobiSolver` on the four oracle models (toggle switch
  ``max_protein=20``, Brusselator and Schnakenberg at ``max_x=30,
  max_y=15``, phage lambda ``(6, 3)``) at damping 1.0 and 0.9 (a
  served answer is this solve, built by the serve pool's
  :func:`~repro.serve.pool.run_task`);
* ``BatchedJacobiSolver.stacked`` over K toggle-switch ``degA``
  conditions, K = 2, 3, 5 and 12;
* a stacked solve over three ``degA`` conditions checkpointed at 400
  iterations and resumed.

The value was recorded when every sweep became the paper's ELL+DIA
sweep (the diagonal only the divisor, a dense {-1, +1} band summed
after the other entries) and the residual check's product stopped
standing in for the next sweep; both backends reproduced it.  The
earlier digests (``e4cd23babf85d991``, then ``0a5a63bb41670e92`` with
the extrapolated stop, then ``94777fc5272cc743`` once the batched
solver kept only the stacked solve) summed each sweep in CSR order.
Every backend must reproduce it.
"""

import hashlib

import numpy as np
import pytest

from repro import backends
from repro.cme.models import brusselator, phage_lambda, schnakenberg
from repro.cme.models import toggle_switch
from repro.cme.ratematrix import build_rate_matrix
from repro.cme.statespace import StateSpace, enumerate_state_space
from repro.durability import CheckpointPolicy, Checkpointer, system_signature
from repro.solvers import BatchedJacobiSolver, JacobiSolver

MODELS = {
    "toggle": lambda: toggle_switch(max_protein=20),
    "brusselator": lambda: brusselator(max_x=30, max_y=15),
    "schnakenberg": lambda: schnakenberg(max_x=30, max_y=15),
    "phage": lambda: phage_lambda(max_monomer=6, max_dimer=3),
}

#: Every solve stops here at the latest, so undamped cases that never
#: converge stay cheap.
MAX_ITERATIONS = 20_000

#: The digest of :func:`answer_digest` (see the module docstring).
EXPECTED = "313534c1a8e7d5aa"


def _update(h, results) -> None:
    for r in results:
        x = np.ascontiguousarray(r.x, dtype=np.float64)
        h.update(str(x.shape).encode())
        h.update(x.tobytes())
        h.update(f"{r.iterations}|{float(r.residual).hex()}|"
                 f"{r.stop_reason.value}|".encode())
        h.update(repr([(int(i), float(v).hex())
                       for i, v in r.residual_history]).encode())


def toggle_conditions(k: int) -> list:
    """*k* toggle-switch generators, ``degA`` from 0.8x to 1.25x, over
    one state space."""
    network = toggle_switch(max_protein=20)
    space = enumerate_state_space(network)
    base = {r.name: r.rate for r in network.reactions}["degA"]
    return [build_rate_matrix(StateSpace(
        network=network.with_rates({"degA": base * m}),
        states=space.states)) for m in np.linspace(0.8, 1.25, k)]


def answer_digest(tmp_path) -> str:
    h = hashlib.sha256()
    for name in sorted(MODELS):
        A = build_rate_matrix(enumerate_state_space(MODELS[name]()))
        for damping in (1.0, 0.9):
            _update(h, [JacobiSolver(A, damping=damping,
                                     max_iterations=MAX_ITERATIONS).solve()])

    for k in (2, 3, 5, 12):
        _update(h, BatchedJacobiSolver.stacked(
            toggle_conditions(k), damping=0.9,
            max_iterations=MAX_ITERATIONS).solve_many())

    mats = toggle_conditions(3)

    def checkpointer(resume: bool) -> Checkpointer:
        return Checkpointer(
            tmp_path, resume=resume,
            signature=system_signature(mats[0], method="batched", tol=1e-10),
            policy=CheckpointPolicy(every_iterations=100, keep_last=3))

    BatchedJacobiSolver.stacked(mats, tol=1e-10, damping=0.9,
                                max_iterations=400).solve_many(
        checkpointer=checkpointer(False))
    ck = checkpointer(True)
    _update(h, BatchedJacobiSolver.stacked(
        mats, tol=1e-10, damping=0.9).solve_many(checkpointer=ck))
    assert ck.resumed_from is not None
    return h.hexdigest()[:16]


@pytest.mark.parametrize("backend", backends.available_backends())
def test_answers_match_recorded_digest(backend, tmp_path):
    with backends.use(backend):
        assert answer_digest(tmp_path) == EXPECTED
