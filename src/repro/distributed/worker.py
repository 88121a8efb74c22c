"""The shard worker process: command loop, sweeps and halo gathers.

Each worker owns one contiguous row block of the generator (a
rectangular ``(m, n)`` CSR slice) and a *private* full-length gather
buffer ``xl``.  On each ``SWEEP`` epoch it copies its own block plus
the halo columns — the only out-of-block entries its slice references
— from the shared buffer ``x[read]`` into ``xl``, runs the backend's
``jacobi_sweep_block`` on it, with the band the parent decided on the
whole matrix, writes its rows of the result to ``x[1 - read]`` and
acknowledges the epoch (see :mod:`repro.distributed.shm` for the
protocol).  Only ``block + halo`` entries ever cross the process
boundary per sweep; the worker counts the halo bytes in its
``halo_bytes`` slot.

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
    os.environ["OMP_NUM_THREADS"] = "1"
    from repro import backends
    from repro.errors import WorkerCrashError
    from repro.resilience.faults import FaultPlan

    state = S.SharedState.attach(spec.data_name, spec.ctrl_name,
                                 n=spec.n, shards=spec.shards)
    try:
        _run(spec, state, backends, FaultPlan, WorkerCrashError)
    except WorkerCrashError:
        # An injected kill: die silently with a nonzero status; the
        # parent's liveness scan respawns the shard.
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
    halo = spec.halo
    halo_delta = int(halo.size) * 8
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
    xl = np.zeros(spec.n, dtype=np.float64)

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

    seen = spec.start_epoch
    while True:
        if not S.wait_until(lambda: int(ctrl[S.IDX_EPOCH]) != seen,
                            abort=orphaned):
            return
        seen = int(ctrl[S.IDX_EPOCH])
        cmd = int(ctrl[S.IDX_CMD])
        if cmd == S.CMD_SWEEP:
            read = int(ctrl[S.IDX_READ])
            maybe_fault()
            xb = state.x(read)
            xl[lo:hi] = xb[lo:hi]
            if halo.size:
                xl[halo] = xb[halo]
                halo_bytes[d] += halo_delta
            state.x(1 - read)[lo:hi] = be.jacobi_sweep_block(
                local, spec.diag, xl, lo, damping=spec.damping,
                band=spec.band)
        done[d] = seen
        if cmd == S.CMD_STOP:
            return
