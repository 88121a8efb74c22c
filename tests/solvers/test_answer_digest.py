"""Solver answers are bitwise-stable across backends and refactors.

A rewired sweep or loop path can move an answer by an ulp while every
tolerance test still passes.  So one SHA-256 digest is recorded over
every result of a fixed set of Jacobi solves: each result's ``x``
bytes, iteration count, residual (as a hex float), stop reason and
residual history.  The cases cover every path a Jacobi answer takes:

* :class:`JacobiSolver` on the four oracle models (toggle switch
  ``max_protein=20``, Brusselator and Schnakenberg at ``max_x=30,
  max_y=15``, phage lambda ``(6, 3)``) at damping 1.0 and 0.9;
* one generator batched K wide, ``BatchedJacobiSolver(A).solve_many``
  for K = 2, 3 and 5 with per-column tolerances and one warm column;
* ``BatchedJacobiSolver.stacked`` over K toggle-switch ``degA``
  conditions, K = 2, 3, 5 and 12;
* the serve pool's :func:`~repro.serve.pool.run_task` with ``tols``;
* a batched solve checkpointed at 400 iterations and resumed.

The value was re-recorded once, on purpose, when every Jacobi loop
gained the extrapolated stop (the answers move there; the value before
it was ``e4cd23babf85d991``).  Every backend must reproduce it.
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
from repro.serve.pool import SolveTask, run_task
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

#: The digest of :func:`answer_digest`, recorded with the extrapolated
#: stop (see the module docstring).
EXPECTED = "0a5a63bb41670e92"


def _update(h, results) -> None:
    for r in results:
        x = np.ascontiguousarray(r.x, dtype=np.float64)
        h.update(str(x.shape).encode())
        h.update(x.tobytes())
        h.update(f"{r.iterations}|{float(r.residual).hex()}|"
                 f"{r.stop_reason.value}|".encode())
        h.update(repr([(int(i), float(v).hex())
                       for i, v in r.residual_history]).encode())


def answer_digest(tmp_path) -> str:
    h = hashlib.sha256()
    systems = {name: build_rate_matrix(enumerate_state_space(make()))
               for name, make in MODELS.items()}
    for name in sorted(systems):
        A = systems[name]
        for damping in (1.0, 0.9):
            _update(h, [JacobiSolver(A, damping=damping,
                                     max_iterations=MAX_ITERATIONS).solve()])
        warm = JacobiSolver(A, damping=0.9, tol=1e-5).solve().x
        for k in (2, 3, 5):
            tols = list(np.geomspace(1e-6, 1e-9, k))
            x0s = [None] * (k - 1) + [warm]
            _update(h, BatchedJacobiSolver(
                A, damping=0.9, max_iterations=MAX_ITERATIONS).solve_many(
                x0s, k=k, tols=tols))

    network = toggle_switch(max_protein=20)
    space = enumerate_state_space(network)
    base = {r.name: r.rate for r in network.reactions}["degA"]
    for k in (2, 3, 5, 12):
        mats = [build_rate_matrix(StateSpace(
            network=network.with_rates({"degA": base * m}),
            states=space.states)) for m in np.linspace(0.8, 1.25, k)]
        tols = list(np.geomspace(1e-6, 1e-9, k))
        _update(h, BatchedJacobiSolver.stacked(
            mats, damping=0.9, max_iterations=MAX_ITERATIONS).solve_many(
            tols=tols))

    A = systems["toggle"]
    _update(h, run_task(A, SolveTask(
        method="jacobi", tol=1e-8, max_iterations=MAX_ITERATIONS,
        options={"damping": 0.9}, tols=[1e-6, 1e-8, 1e-9])))

    tols = [1e-10, 1e-8, 1e-9]

    def checkpointer(resume: bool) -> Checkpointer:
        return Checkpointer(
            tmp_path, resume=resume,
            signature=system_signature(A, method="batched", tol=1e-10),
            policy=CheckpointPolicy(every_iterations=100, keep_last=3))

    BatchedJacobiSolver(A, tol=1e-10, damping=0.9,
                        max_iterations=400).solve_many(
        k=3, tols=tols, checkpointer=checkpointer(False))
    ck = checkpointer(True)
    _update(h, BatchedJacobiSolver(A, tol=1e-10, damping=0.9).solve_many(
        k=3, tols=tols, checkpointer=ck))
    assert ck.resumed_from is not None
    return h.hexdigest()[:16]


@pytest.mark.parametrize("backend", backends.available_backends())
def test_answers_match_recorded_digest(backend, tmp_path):
    with backends.use(backend):
        assert answer_digest(tmp_path) == EXPECTED
