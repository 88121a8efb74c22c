"""The shard worker process: command loop, sweeps and halo gathers.

Each worker owns one contiguous row block of the generator (a
rectangular ``(m, n)`` CSR slice) and a *private* full-length gather
buffer ``xl``.  Before a sweep it copies its own block plus the halo
columns — the only out-of-block entries its slice references — from
the shared iterate buffer into ``xl``, then runs the backend's
``jacobi_sweep_block`` on it, with the band the parent decided on the
whole matrix, and writes its rows of the result back to shared memory.  Only ``block + halo`` entries ever
cross the process boundary per sweep; the worker counts the halo
bytes in its ``halo_bytes`` slot.

Sync modes (see :mod:`repro.distributed.shm` for the protocol):

barrier
    The worker executes exactly one command per epoch
    (``SWEEP`` / ``PRODUCT``) and acknowledges it.
chaotic
    On ``CMD_CHAOTIC`` the worker acknowledges once, then free-runs
    in-place on buffer 0 — gathering whatever (possibly stale) halo
    values its peers last published — until the parent moves the
    epoch.  Each sweep it reports its block's ``||A x||_inf`` /
    ``||x||_inf`` for the parent's residual aggregator and tracks how
    far it has run ahead of the slowest peer (``staleness``).

Fault injection (site ``"shard.worker"``) rides in the spec as a JSON
fault plan rather than the process-global injector, which does not
cross process boundaries.  Faults match against the shard's cumulative
*attempted* sweep counter, which lives in shared memory and therefore
survives a respawn — a one-shot ``kill`` fires once, not on every
reincarnation.
"""

from __future__ import annotations

import os
import sys
import time
import traceback

import numpy as np
import scipy.sparse as sp

from repro.distributed import shm as S


def worker_main(spec) -> None:
    """Entry point of one shard worker process."""
    # Workers are pinned to one OpenMP thread each: the parent already
    # runs one process per shard, and nested OMP teams would thrash an
    # oversubscribed host.  Set before any kernel library loads.
    os.environ["OMP_NUM_THREADS"] = os.environ.get(
        "REPRO_SHARD_OMP_THREADS", "1")
    from repro import backends
    from repro.errors import WorkerCrashError
    from repro.resilience.faults import FaultPlan

    state = S.SharedState.attach(spec.data_name, spec.ctrl_name,
                                 n=spec.n, shards=spec.shards)
    try:
        _run(spec, state, backends, FaultPlan, WorkerCrashError)
    except WorkerCrashError:
        # An injected kill: die silently with a nonzero status; the
        # parent's liveness scan turns this into a recovery event.
        os._exit(1)
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc(file=sys.stderr)
        os._exit(1)
    finally:
        state.close()


def _run(spec, state, backends, FaultPlan, WorkerCrashError) -> None:
    d = spec.shard
    lo, hi = spec.row_start, spec.row_stop
    local = sp.csr_matrix((spec.data, spec.indices, spec.indptr),
                          shape=(hi - lo, spec.n))
    diag = spec.diag
    halo = spec.halo
    halo_delta = int(halo.size) * 8
    damping = spec.damping

    be = backends.serving("", "jacobi_sweep", spec.backend)

    fault_specs = ()
    if spec.plan_json:
        fault_specs = FaultPlan.from_json(spec.plan_json).for_site(
            "shard.worker")
    fired = [0] * len(fault_specs)

    ctrl = state.ctrl
    done = state.done
    sweeps = state.sweeps
    halo_bytes = state.halo_bytes
    staleness = state.staleness
    ynorm = state.ynorm
    xnorm = state.xnorm
    xl = np.zeros(spec.n, dtype=np.float64)

    def gather(xb: np.ndarray) -> None:
        xl[lo:hi] = xb[lo:hi]
        if halo.size:
            xl[halo] = xb[halo]
            halo_bytes[d] += halo_delta

    def maybe_fault() -> None:
        # Count the attempt *before* evaluating the schedule so a
        # one-shot kill cannot refire after the parent respawns us.
        idx = int(sweeps[d])
        sweeps[d] = idx + 1
        for i, fs in enumerate(fault_specs):
            if fired[i] < fs.count and fs.matches(idx):
                fired[i] += 1
                if fs.kind == "kill":
                    raise WorkerCrashError(
                        f"injected kill fault at shard {d}, sweep {idx}")
                time.sleep(fs.delay_s)  # kind == "stall"

    parent = spec.parent_pid

    def orphaned() -> bool:
        return os.getppid() != parent

    def chaotic_run(my_epoch: int) -> None:
        xb = state.x(0)
        while int(ctrl[S.IDX_EPOCH]) == my_epoch:
            if orphaned():
                return
            if int(sweeps[d]) >= spec.max_iterations:
                time.sleep(0.0005)
                continue
            maybe_fault()
            gather(xb)
            # The explicit product (instead of the fused kernel) keeps
            # the block residual norm available for the aggregator.
            y = local @ xl
            new = -(y - diag * xl[lo:hi]) / diag
            if damping != 1.0:
                new = (1.0 - damping) * xl[lo:hi] + damping * new
            xb[lo:hi] = new
            ynorm[d] = float(np.abs(y).max()) if y.size else 0.0
            xnorm[d] = float(np.abs(new).max()) if new.size else 0.0
            mine = int(sweeps[d])
            lag = mine - min(int(sweeps[j]) for j in range(spec.shards)
                             if j != d) if spec.shards > 1 else 0
            if lag > int(staleness[d]):
                staleness[d] = lag
            # Yield the core between sweeps: on an oversubscribed host
            # the OS otherwise timeslices whole shards for ~100ms at a
            # time, and a shard iterating against a frozen peer block
            # makes no global progress (the Cormie-Bowins staleness
            # pathology).  On a wide host this is a microsecond no-op.
            time.sleep(0)

    seen = spec.start_epoch
    while True:
        if not S.wait_until(lambda: int(ctrl[S.IDX_EPOCH]) != seen,
                            abort=orphaned):
            return
        seen = int(ctrl[S.IDX_EPOCH])
        cmd = int(ctrl[S.IDX_CMD])
        read = int(ctrl[S.IDX_READ])
        if cmd == S.CMD_STOP:
            done[d] = seen
            return
        if cmd == S.CMD_SWEEP:
            maybe_fault()
            gather(state.x(read))
            state.x(1 - read)[lo:hi] = be.jacobi_sweep_block(
                local, diag, xl, lo, damping=damping, band=spec.band)
        elif cmd == S.CMD_PRODUCT:
            gather(state.x(read))
            state.y[lo:hi] = local @ xl
        elif cmd == S.CMD_CHAOTIC:
            done[d] = seen
            chaotic_run(seen)
            continue
        # CMD_PAUSE (and unknown commands) just acknowledge.
        done[d] = seen
