"""Subprocess target for the crash-recovery suite.

Run as ``python crash_child.py <mode> <checkpoint-dir> <out-prefix>``
with ``PYTHONPATH`` pointing at ``src``.  Environment knobs:

- ``CRASH_AFTER_SAVES=N`` — SIGKILL this process right after the N-th
  durable checkpoint lands (the torn-free kill: the file is already
  fsynced and renamed when the signal fires).  ``0`` disables.
- ``CRASH_RESUME=1`` — resume from the newest intact checkpoint.

The sharded mode kills through the ``shard.parent`` fault site instead,
which fires *after* the parent's durable epoch snapshot — same
guarantee, exercised through the injector path the chaos CI uses.

The batched mode solves three ``degA`` conditions stacked; they stop
at 200, 400 (an extrapolated stop) and 500 sweeps, so a kill after the
third save (at 300) leaves one column retired before the checkpoint and
two live after it.

On clean exit the child writes ``<out-prefix>.npy`` (the solution, one
column per condition for the batched mode) and ``<out-prefix>.json``
with diagnostics the parent test asserts on.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

import numpy as np

from repro.cme.models import toggle_switch
from repro.cme.ratematrix import build_rate_matrix
from repro.cme.statespace import StateSpace, enumerate_state_space
from repro.durability import (
    CheckpointPolicy,
    Checkpointer,
    network_signature,
    system_signature,
)
from repro.sparse.base import as_csr
from repro.sparse.conversion import to_scipy

TOL = 1e-10
DAMPING = 0.7
#: ``degA`` multipliers of the batched mode's stacked conditions.
BATCH_MULTIPLIERS = (0.25, 1.6, 2.0)


class KillingCheckpointer(Checkpointer):
    """A checkpointer that SIGKILLs the process after N durable saves.

    The kill happens *after* ``save`` returns, so the checkpoint the
    resume run will load is fully written, fsynced and renamed — this
    models a crash between two checkpoints, not a torn write (torn
    writes are covered by the ``checkpoint.write`` fault site).
    """

    kill_after: int = 0

    def save(self, iteration, arrays, meta=None, *, kind="solver"):
        path = super().save(iteration, arrays, meta, kind=kind)
        if self.kill_after and self.saves >= self.kill_after:
            os.kill(os.getpid(), signal.SIGKILL)
        return path


def build_matrix():
    return build_rate_matrix(
        enumerate_state_space(toggle_switch(max_protein=10)))


def make_ck(mode, directory, A, network, *, resume, kill_after):
    if mode == "fsp":
        signature = network_signature(network, extra="crash-fsp")
        policy = CheckpointPolicy(every_iterations=1, keep_last=3)
    else:
        signature = system_signature(as_csr(to_scipy(A)), method=mode,
                                     tol=TOL)
        policy = CheckpointPolicy(every_iterations=50, keep_last=3)
    ck = KillingCheckpointer(directory, signature=signature,
                             policy=policy, resume=resume)
    ck.kill_after = kill_after
    return ck


def run_serial(ck, A):
    from repro.solvers import JacobiSolver

    result = JacobiSolver(A, tol=TOL, damping=DAMPING).solve(
        checkpointer=ck)
    return result.x, {"iterations": result.iterations,
                      "residual": result.residual,
                      "stop_reason": result.stop_reason.name}


def run_batched(ck, network):
    from repro.solvers.batched import BatchedJacobiSolver

    space = enumerate_state_space(network)
    base = {r.name: r.rate for r in network.reactions}["degA"]
    mats = [build_rate_matrix(StateSpace(
        network=network.with_rates({"degA": base * m}),
        states=space.states)) for m in BATCH_MULTIPLIERS]
    results = BatchedJacobiSolver.stacked(
        mats, tol=TOL, damping=DAMPING).solve_many(checkpointer=ck)
    x = np.stack([r.x for r in results], axis=1)
    return x, {"iterations": [r.iterations for r in results],
               "residuals": [r.residual for r in results]}


def run_fsp(ck, network):
    from repro.fsp import AdaptiveFspController

    result = AdaptiveFspController(network, fsp_tol=1e-4, tol=1e-8,
                                   initial_size=32).solve(checkpointer=ck)
    return result.x, {"rounds": [r.round for r in result.rounds],
                      "space_size": result.space.size,
                      "converged": result.converged}


def run_sharded(ck, A, *, kill):
    from repro.distributed import ShardedJacobiSolver
    from repro.resilience.faults import FaultPlan, injecting

    solver = ShardedJacobiSolver(A, shards=2, sync="barrier", tol=TOL,
                                 check_interval=50, damping=0.9)
    if kill:
        # The second durable_save visit: one epoch snapshot is already
        # on disk when the parent dies.
        plan = FaultPlan([{"site": "shard.parent", "kind": "kill",
                           "at": 1, "count": 1}], seed=0)
        with injecting(plan):
            result = solver.solve(checkpointer=ck)
    else:
        result = solver.solve(checkpointer=ck)
    return result.x, {"iterations": result.iterations,
                      "residual": result.residual,
                      "sharding": {"shards": result.sharding["shards"]}}


def main(argv):
    mode, ckdir, out = argv[1], Path(argv[2]), Path(argv[3])
    resume = os.environ.get("CRASH_RESUME") == "1"
    kill_after = int(os.environ.get("CRASH_AFTER_SAVES", "0"))

    network = toggle_switch(max_protein=12 if mode == "fsp" else 10)
    A = None if mode == "fsp" else build_matrix()
    ck = make_ck(mode, ckdir, A, network, resume=resume,
                 kill_after=0 if mode == "sharded" else kill_after)

    if mode == "serial":
        x, diag = run_serial(ck, A)
    elif mode == "batched":
        x, diag = run_batched(ck, network)
    elif mode == "fsp":
        x, diag = run_fsp(ck, network)
    elif mode == "sharded":
        x, diag = run_sharded(ck, A, kill=kill_after > 0)
    else:
        raise SystemExit(f"unknown mode {mode!r}")

    diag["resumed"] = (None if ck.resumed_from is None
                       else Path(ck.resumed_from).name)
    diag["saves"] = ck.saves
    np.save(out.with_suffix(".npy"), x)
    out.with_suffix(".json").write_text(json.dumps(diag) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
