"""Tracked benchmark baseline: write ``BENCH_9.json`` at the repo root.

Unlike the pytest-benchmark suites next door (which regenerate the
paper's tables), this script times the *engineering* surfaces this
codebase optimizes and records them in one machine-readable file.
Every entry names the kernel backend (:mod:`repro.backends`) that
produced it; the hot sections run once per available backend so the
reference and JIT paths are tracked side by side:

* ``formats`` — per backend, per-format ``spmv`` time on the
  toggle-switch generator.
* ``solver`` — per backend, Jacobi iterations/s; the reference entry
  additionally counts SpMVs per iteration (product reuse means a solve
  of ``I`` iterations performs exactly ``I + 1`` products — the fused
  JIT sweep never materializes its product, so only the reference can
  count through ``@``).
* ``batched`` — 8 sweep conditions solved serially vs. through the
  stacked :class:`~repro.solvers.batched.BatchedJacobiSolver`, at two
  scopes: ``solver_only`` (the Jacobi loops alone, identical prebuilt
  systems; timed per backend against the *reference serial* baseline)
  and ``workload`` (what a user actually runs: independent
  ``solve_steady_state`` calls, each re-enumerating the state space,
  vs. ``ParameterSweep.run(batch=K)``, which shares one enumeration).
  Each entry records what its timing includes.
* ``gpusim_memo`` — one traffic analysis cold (full structure walk)
  vs. memoized repeat (fingerprint probe), plus the hit/miss counters.
* ``serve`` — jobs/s through :class:`~repro.serve.SolveService` on the
  four paper models at small state spaces.
* ``fsp`` — adaptive Finite State Projection on phage lambda: final
  certified projection size vs. the full enumeration, rounds, and
  end-to-end time against the fixed-capacity full-space solve.
* ``sharded`` — the domain-decomposed process-pool Jacobi
  (:class:`~repro.distributed.ShardedJacobiSolver`): barrier-mode
  solver-only scaling at 1/2/4 shards against a serial baseline
  (fixed iteration budget, identical prebuilt system) plus — full mode
  only — one phage-lambda capacity solve at a copy-number buffer
  ``>= 10x`` the model's default, enumerated and solved end-to-end
  through the chaotic (asynchronous) path.  Scaling numbers are only
  meaningful when the machine has at least as many cores as shards;
  the JSON records ``cpus`` next to them.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py            # full
    PYTHONPATH=src python benchmarks/run_benchmarks.py --quick
    PYTHONPATH=src python benchmarks/run_benchmarks.py \
        --quick --check-memo-speedup 5 --check-fsp --check-sharded \
        --check-checkpoint 5

``--check-sharded`` exits nonzero when 4-shard barrier scaling falls
below 1.5× the 1-shard time — enforced only on machines with >= 4
CPUs (elsewhere the efficiency is recorded but cannot be meaningful);
``--check-memo-speedup X`` exits nonzero when the memoized gpusim
analysis is less than ``X``× faster than the cold one; ``--check-fsp``
exits nonzero unless the adaptive phage-lambda solve certifies its
tolerance with a projection strictly smaller than the full enumeration,
from a final-round inner solve whose residual reached the solve's
``tol``; ``--check-checkpoint PCT`` exits nonzero when the
median per-pair overhead of checkpointing every 1,000 iterations
exceeds ``PCT`` percent of a phage-lambda solve — the CI smoke gates.
All timings are single-process wall clock on whatever machine runs
the script; the JSON records the machine so baselines are only
compared like-for-like.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp

from repro import (
    brusselator,
    phage_lambda,
    schnakenberg,
    solve_steady_state,
    toggle_switch,
)
from repro import backends
from repro.cme.ratematrix import build_rate_matrix
from repro.cme.statespace import StateSpace, enumerate_state_space
from repro.gpusim import clear_memo, memo_stats, spmv_traffic
from repro.serve import SolveService
from repro.solvers import BatchedJacobiSolver, JacobiSolver
from repro.sparse.base import as_csr
from repro.sparse.csr import CSRMatrix
from repro.sparse.ell import ELLMatrix
from repro.sparse.ell_dia import ELLDIAMatrix
from repro.sparse.ellr import ELLRMatrix
from repro.sparse.sell_c_sigma import SellCSigmaMatrix
from repro.sparse.sliced_ell import SlicedELLMatrix
from repro.sparse.warped_ell import WarpedELLMatrix
from repro.sweep import ParameterSweep

FORMATS = [CSRMatrix, ELLMatrix, ELLRMatrix, ELLDIAMatrix,
           SlicedELLMatrix, SellCSigmaMatrix, WarpedELLMatrix]

#: degA multipliers of the batched-sweep benchmark: 8 conditions, the
#: batch width the serve layer coalesces to by default.
DEG_POINTS = [0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5]


def best_of(fn, repeats: int) -> float:
    """Minimum wall-clock seconds of *repeats* calls (noise floor)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class CountingCSR(sp.csr_matrix):
    """A CSR matrix that counts its ``@`` products (see tier-1 test
    ``tests/solvers/test_single_spmv.py`` for the same idiom)."""

    def __matmul__(self, other):
        self.matmul_count = getattr(self, "matmul_count", 0) + 1
        return super().__matmul__(other)


def bench_formats(csr, repeats: int, backend_names: list[str]) -> dict:
    """Per-backend, per-format spmv timings on the toggle generator."""
    x = np.random.default_rng(0).random(csr.shape[0])
    out = {}
    for backend in backend_names:
        table = {}
        for cls in FORMATS:
            fmt = cls(csr)
            spmv_s = best_of(lambda: fmt.spmv(x, backend=backend), repeats)
            table[cls.__name__] = {
                "backend": backend,
                "spmv_us": round(spmv_s * 1e6, 2),
            }
        out[backend] = table
    return out


def bench_solver(A, max_iterations: int, backend_names: list[str]) -> dict:
    """Per-backend Jacobi iterations/s (reference also counts SpMVs)."""
    out = {}
    for backend in backend_names:
        solver = JacobiSolver(A, tol=1e-300, max_iterations=max_iterations,
                              stagnation_tol=None, backend=backend)
        is_reference = backends.get_backend(backend).is_reference
        if is_reference:
            counted = CountingCSR(solver.A)
            counted.matmul_count = 0
            solver.A = counted
        t0 = time.perf_counter()
        result = solver.solve()
        elapsed = time.perf_counter() - t0
        entry = {
            "backend": backend,
            "n": A.shape[0],
            "iterations": result.iterations,
            "iterations_per_s": round(result.iterations / elapsed, 1),
        }
        if is_reference:
            # Product reuse: I iterations cost exactly I + 1 products,
            # plus one per extrapolated candidate (none in a run this
            # short: a candidate needs three checked iterates).
            # (The fused JIT sweep never materializes its product, so
            # only the reference path can count through ``@``.)
            entry["spmv_count"] = counted.matmul_count
            entry["spmv_per_iteration"] = round(
                counted.matmul_count / result.iterations, 4)
        out[backend] = entry
    return out


def bench_batched(net, max_iterations: int, backend_names: list[str]) -> dict:
    """Serial vs. batched over the 8-point degA sweep, at two scopes."""
    degs = DEG_POINTS
    kwargs = dict(tol=1e-300, max_iterations=max_iterations,
                  stagnation_tol=None)

    # -- solver_only: identical prebuilt systems, Jacobi loops alone --
    # The serial baseline is always the reference backend ("what plain
    # NumPy costs"); each backend's stacked solve is measured against it.
    base_space = enumerate_state_space(net)
    mats = [build_rate_matrix(
        StateSpace(network=net.with_rates({"degA": d}),
                   states=base_space.states))
            for d in degs]
    t0 = time.perf_counter()
    for A in mats:
        JacobiSolver(A, **kwargs, backend="numpy").solve()
    serial_solver_s = time.perf_counter() - t0
    batched_solver = {}
    for backend in backend_names:
        t0 = time.perf_counter()
        BatchedJacobiSolver.stacked(mats, **kwargs,
                                    backend=backend).solve_many()
        batched_s = time.perf_counter() - t0
        batched_solver[backend] = {
            "backend": backend,
            "batched_s": round(batched_s, 4),
            "speedup_x": round(serial_solver_s / batched_s, 3),
        }

    # -- workload: what a user runs for 8 conditions ------------------
    t0 = time.perf_counter()
    for d in degs:
        solve_steady_state(net.with_rates({"degA": d}), **kwargs)
    serial_workload_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    sweep = ParameterSweep(net, {"degA": degs})
    sweep.run(batch=len(degs), tol=1e-300, max_iterations=max_iterations,
              solver_kwargs={"stagnation_tol": None})
    batched_workload_s = time.perf_counter() - t0

    return {
        "n": base_space.size,
        "conditions": len(degs),
        "max_iterations": max_iterations,
        "solver_only": {
            "includes": "Jacobi loops on prebuilt identical systems "
                        "(no enumeration, no matrix assembly); serial "
                        "baseline always runs the numpy reference",
            "serial_backend": "numpy",
            "serial_s": round(serial_solver_s, 4),
            "batched": batched_solver,
        },
        "workload": {
            "backend": backends.resolve().name,
            "includes_serial": "8 independent solve_steady_state calls, "
                               "each enumerating the state space and "
                               "assembling its matrix",
            "includes_batched": "ParameterSweep.run(batch=8): one shared "
                                "enumeration, per-condition assembly, one "
                                "stacked multi-RHS solve",
            "serial_s": round(serial_workload_s, 4),
            "batched_s": round(batched_workload_s, 4),
            "speedup_x": round(serial_workload_s / batched_workload_s, 3),
        },
    }


def bench_gpusim_memo(csr, repeats: int) -> dict:
    """Cold structure walk vs. memoized repeat of one traffic analysis."""
    fmt = WarpedELLMatrix(csr, separate_diagonal=True)
    clear_memo()
    cold_s = best_of(lambda: spmv_traffic(fmt, memoize=False), repeats)
    spmv_traffic(fmt)  # populate: fingerprint + one cache entry
    loops = 200
    t0 = time.perf_counter()
    for _ in range(loops):
        spmv_traffic(fmt)
    warm_s = (time.perf_counter() - t0) / loops
    stats = memo_stats()
    return {
        "format": type(fmt).__name__,
        "backend": backends.resolve().name,
        "n": csr.shape[0],
        "cold_us": round(cold_s * 1e6, 2),
        "memoized_us": round(warm_s * 1e6, 3),
        "speedup_x": round(cold_s / warm_s, 1),
        "hits": stats["hits"],
        "misses": stats["misses"],
    }


def bench_serve(quick: bool) -> dict:
    """Jobs/s through SolveService on the four paper models."""
    small = dict(max_x=16, max_y=8) if quick else dict(max_x=24, max_y=12)
    models = [
        ("toggle_switch", toggle_switch(max_protein=11 if quick else 15),
         "degA"),
        ("brusselator", brusselator(**small), "drain"),
        ("schnakenberg", schnakenberg(**small), "decX"),
        ("phage_lambda", phage_lambda(max_monomer=3, max_dimer=1), "degCI"),
    ]
    jobs = 4 if quick else 8
    out = {}
    for name, net, rate in models:
        base = next(r.rate for r in net.reactions if r.name == rate)
        conds = [{rate: base * (1.0 + 0.05 * i)} for i in range(jobs)]
        with SolveService(net, workers=2) as service:
            t0 = time.perf_counter()
            outcomes = service.map(conds)
            elapsed = time.perf_counter() - t0
        out[name] = {
            "n": outcomes[0].result.x.size,
            "backend": backends.resolve().name,
            "jobs": jobs,
            "seconds": round(elapsed, 4),
            "jobs_per_s": round(jobs / elapsed, 2),
        }
    return out


def bench_fsp(quick: bool) -> dict:
    """Adaptive FSP vs. full enumeration on phage lambda.

    The adaptive side runs the whole projection loop to a certified
    ``1e-6`` truncation mass; the full side enumerates the buffered
    space and solves it once with the same inner-solver settings.  The
    FSP claim being tracked: a *certified* answer from strictly fewer
    states, end-to-end.
    """
    from repro.fsp import AdaptiveFspController

    fsp_tol = 1e-6
    net = (phage_lambda(max_monomer=8, max_dimer=4) if quick
           else phage_lambda())

    controller = AdaptiveFspController(net, fsp_tol=fsp_tol)
    t0 = time.perf_counter()
    result = controller.solve()
    adaptive_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    full = enumerate_state_space(net)
    full_result = JacobiSolver(build_rate_matrix(full),
                               stagnation_tol=1e-4).solve()
    full_s = time.perf_counter() - t0

    return {
        "model": "phage_lambda",
        "backend": backends.resolve().name,
        "fsp_tol": fsp_tol,
        "adaptive": {
            "converged": result.converged,
            "reason": result.reason,
            "truncation_mass": result.truncation_mass,
            "final_states": int(result.space.size),
            "rounds": len(result.rounds),
            "iterations": result.iterations,
            "final_residual": (result.rounds[-1].residual if result.rounds
                               else float("inf")),
            "tol": controller.tol,
            "seconds": round(adaptive_s, 4),
        },
        "full": {
            "states": int(full.size),
            "iterations": full_result.iterations,
            "residual": full_result.residual,
            "seconds": round(full_s, 4),
        },
        "projection_fraction": round(result.space.size / full.size, 4),
        "speedup_x": round(full_s / adaptive_s, 2),
    }


def bench_sharded(quick: bool) -> dict:
    """Shard-scaling efficiency plus the full-mode capacity solve."""
    from repro.distributed import ShardedJacobiSolver

    # -- scaling: barrier mode, fixed budget, identical system --------
    net = toggle_switch(max_protein=23 if quick else 63)
    A = build_rate_matrix(enumerate_state_space(net))
    iters = 80 if quick else 400
    kwargs = dict(tol=1e-300, max_iterations=iters, stagnation_tol=None,
                  check_interval=iters)

    t0 = time.perf_counter()
    JacobiSolver(A, **kwargs).solve()
    serial_s = time.perf_counter() - t0

    scaling = {}
    for shards in (1, 2, 4):
        solver = ShardedJacobiSolver(A, shards=shards, sync="barrier",
                                     **kwargs)
        t0 = time.perf_counter()
        result = solver.solve()
        elapsed = time.perf_counter() - t0
        info = result.sharding
        scaling[str(shards)] = {
            "seconds": round(elapsed, 4),
            "iterations": result.iterations,
            "backend": info["backend"],
            "start_method": info["start_method"],
            "halo_bytes": sum(info["halo_bytes"]),
            "vs_serial_x": round(serial_s / elapsed, 3),
        }
    t1 = scaling["1"]["seconds"]
    for shards in (2, 4):
        entry = scaling[str(shards)]
        entry["speedup_vs_1shard_x"] = round(t1 / entry["seconds"], 3)
        entry["efficiency"] = round(t1 / entry["seconds"] / shards, 3)

    out = {
        "scaling": {
            "includes": "whole solve() wall clock — pool spawn, "
                        f"{iters} barrier sweeps, shutdown — on one "
                        "prebuilt system; serial row is a plain "
                        "JacobiSolver on the same matrix",
            "model": "toggle_switch",
            "n": A.shape[0],
            "iterations": iters,
            "cpus": os.cpu_count(),
            "serial_s": round(serial_s, 4),
            "shards": scaling,
        },
    }
    if quick:
        return out

    # -- capacity: >= 10x the default phage-lambda buffer, end-to-end --
    big = phage_lambda(max_monomer=31, max_dimer=12)
    default_bound = 1
    for s in phage_lambda().species:
        default_bound *= s.max_count + 1
    bound = 1
    for s in big.species:
        bound *= s.max_count + 1
    t0 = time.perf_counter()
    space = enumerate_state_space(big, max_states=bound)
    enum_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    A_big = build_rate_matrix(space)
    assemble_s = time.perf_counter() - t0
    solver = ShardedJacobiSolver(A_big, shards=2, sync="chaotic",
                                 tol=1e-8, max_iterations=15_000,
                                 stagnation_tol=None, check_interval=500)
    t0 = time.perf_counter()
    result = solver.solve()
    solve_s = time.perf_counter() - t0
    info = result.sharding
    out["capacity"] = {
        "model": "phage_lambda",
        "max_monomer": 31,
        "max_dimer": 12,
        "buffer_bound": bound,
        "default_buffer_bound": default_bound,
        "capacity_ratio_x": round(bound / default_bound, 2),
        "n": int(space.size),
        "nnz": int(A_big.nnz),
        "enumerate_s": round(enum_s, 2),
        "assemble_s": round(assemble_s, 2),
        "solve_s": round(solve_s, 2),
        "stop_reason": result.stop_reason.value,
        "iterations": result.iterations,
        "residual": result.residual,
        "sync": info["sync"],
        "shards": info["shards"],
        "sweeps": info["sweeps"],
        "staleness": info["staleness"],
        "halo_bytes": info["halo_bytes"],
    }
    return out


def bench_durability(quick: bool) -> dict:
    """Checkpoint overhead at the default cadence, on phage lambda.

    Identical fixed-budget Jacobi solves on the full default
    phage-lambda generator — plain, and writing durable checkpoints
    every 1000 iterations (the default
    :class:`~repro.durability.CheckpointPolicy` cadence) — timed in
    alternated pairs: each pair runs the two back to back, and the
    order switches from pair to pair, so drift in the host's speed
    lands on both sides (two independent best-of-3 minima read 0–40%
    on an unchanged checkpoint path on a 2-CPU host).  The acceptance
    number is the median of the per-pair relative wall-time overheads,
    which the ``--check-checkpoint`` gate holds under 5%.  A
    journal-append throughput sample rides along for scale.
    """
    import tempfile

    from repro.durability import (
        CheckpointPolicy,
        Checkpointer,
        JobJournal,
        system_signature,
    )
    from repro.sparse.conversion import to_scipy

    net = phage_lambda()
    A = build_rate_matrix(enumerate_state_space(net))
    iters = 1200 if quick else 3000
    cadence = 1000
    pairs = 21
    kwargs = dict(tol=1e-300, max_iterations=iters, stagnation_tol=None,
                  check_interval=100)
    signature = system_signature(as_csr(to_scipy(A)), method="jacobi",
                                 tol=1e-300)

    def timed(run):
        t0 = time.perf_counter()
        run()
        return time.perf_counter() - t0

    def plain():
        JacobiSolver(A, **kwargs).solve()

    saves = 0
    checkpoint_bytes = 0

    def checkpointed():
        nonlocal saves, checkpoint_bytes
        with tempfile.TemporaryDirectory() as tmp:
            ck = Checkpointer(
                tmp, signature=signature,
                policy=CheckpointPolicy(every_iterations=cadence,
                                        keep_last=3))
            JacobiSolver(A, **kwargs).solve(checkpointer=ck)
            saves = ck.saves
            checkpoint_bytes = max(
                (p.stat().st_size for p in ck.files()), default=0)

    plain()  # first-sweep setup (the cached sliced layout) is untimed
    plain_times, checkpointed_times, overheads = [], [], []
    for pair in range(pairs):
        if pair % 2:
            checkpointed_s = timed(checkpointed)
            plain_s = timed(plain)
        else:
            plain_s = timed(plain)
            checkpointed_s = timed(checkpointed)
        plain_times.append(plain_s)
        checkpointed_times.append(checkpointed_s)
        overheads.append((checkpointed_s - plain_s) / plain_s * 100.0)
    overhead_pct = max(0.0, statistics.median(overheads))

    appends = 2000
    with tempfile.TemporaryDirectory() as tmp:
        with JobJournal(Path(tmp) / "bench.journal", fsync=False) as j:
            t0 = time.perf_counter()
            for i in range(appends):
                j.accepted(f"k{i}", {"i": i})
            nofsync_s = time.perf_counter() - t0
        with JobJournal(Path(tmp) / "fsync.journal", fsync=True) as j:
            t0 = time.perf_counter()
            for i in range(100):
                j.accepted(f"k{i}", {"i": i})
            fsync_s = time.perf_counter() - t0

    return {
        "includes": f"fixed {iters}-iteration Jacobi solves on one "
                    f"prebuilt system, {pairs} alternated plain/"
                    "checkpointed pairs, medians; the checkpointed run "
                    f"writes durable snapshots every {cadence} "
                    "iterations into a fresh temp directory",
        "model": "phage_lambda",
        "n": A.shape[0],
        "nnz": int(A.nnz),
        "iterations": iters,
        "cadence_iterations": cadence,
        "pairs": pairs,
        "plain_s": round(statistics.median(plain_times), 4),
        "checkpointed_s": round(statistics.median(checkpointed_times), 4),
        "saves_per_run": saves,
        "checkpoint_bytes": checkpoint_bytes,
        "overhead_pct": round(overhead_pct, 3),
        "overhead_pct_per_pair": [round(o, 2) for o in overheads],
        "journal": {
            "appends_per_s_nofsync": round(appends / nofsync_s, 1),
            "appends_per_s_fsync": round(100 / fsync_s, 1),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small systems and budgets (CI smoke)")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_9.json",
                        help="output path (default: BENCH_9.json at root)")
    parser.add_argument("--check-memo-speedup", type=float, default=None,
                        metavar="X",
                        help="exit nonzero if memoized gpusim analysis is "
                             "less than X times faster than cold")
    parser.add_argument("--check-fsp", action="store_true",
                        help="exit nonzero unless adaptive FSP certifies "
                             "phage lambda with a projection strictly "
                             "smaller than the full enumeration, from a "
                             "final inner solve that reached its tol")
    parser.add_argument("--check-sharded", action="store_true",
                        help="exit nonzero unless 4-shard barrier scaling "
                             "reaches 1.5x the 1-shard time (enforced only "
                             "on machines with >= 4 CPUs)")
    parser.add_argument("--check-checkpoint", type=float, nargs="?",
                        const=5.0, default=None, metavar="PCT",
                        help="exit nonzero if the median per-pair "
                             "default-cadence checkpoint overhead on the "
                             "phage-lambda solve exceeds PCT percent of "
                             "wall time (default 5.0)")
    args = parser.parse_args(argv)

    max_protein = 31 if args.quick else 127
    max_iterations = 100 if args.quick else 200
    repeats = 5 if args.quick else 3

    net = toggle_switch(max_protein=max_protein)
    space = enumerate_state_space(net)
    A = build_rate_matrix(space)
    csr = as_csr(A)

    backend_names = backends.available_backends()
    jit_names = [n for n in backend_names
                 if not backends.get_backend(n).is_reference]

    report = {
        "bench": "BENCH_9",
        "quick": args.quick,
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "backends": backend_names,
        "default_backend": backends.resolve().name,
        "system": {"model": "toggle_switch",
                   "max_protein": max_protein,
                   "n": csr.shape[0], "nnz": int(csr.nnz)},
    }

    print(f"[bench] formats: n={csr.shape[0]}, nnz={csr.nnz}, "
          f"backends={backend_names}")
    report["formats"] = bench_formats(csr, repeats, backend_names)
    print("[bench] solver: Jacobi per backend")
    report["solver"] = bench_solver(A, max_iterations, backend_names)
    print(f"[bench] batched: {len(DEG_POINTS)}-point degA sweep")
    report["batched"] = bench_batched(net, max_iterations, backend_names)
    print("[bench] gpusim memo: cold vs. memoized")
    report["gpusim_memo"] = bench_gpusim_memo(csr, repeats)
    print("[bench] serve: four paper models")
    report["serve"] = bench_serve(args.quick)
    print("[bench] fsp: adaptive projection vs. full enumeration")
    report["fsp"] = bench_fsp(args.quick)
    print("[bench] sharded: barrier scaling"
          + ("" if args.quick else " + phage-lambda capacity solve"))
    report["sharded"] = bench_sharded(args.quick)
    print("[bench] durability: checkpoint overhead at default cadence")
    report["durability"] = bench_durability(args.quick)

    # The JIT backend the batched target reads (normally "native").
    gate_backend = jit_names[0] if jit_names else None

    report["acceptance"] = {
        "batched_workload_speedup_x":
            report["batched"]["workload"]["speedup_x"],
        "batched_workload_target_x": 3.0,
        "memo_speedup_x": report["gpusim_memo"]["speedup_x"],
        "memo_target_x": 10.0,
        "spmv_per_iteration": report["solver"]["numpy"]["spmv_per_iteration"],
        "spmv_per_iteration_target":
            "~1 (exactly iterations + 1 + extrapolated candidates "
            "products per solve)",
        "fsp_truncation_mass": report["fsp"]["adaptive"]["truncation_mass"],
        "fsp_truncation_target": report["fsp"]["fsp_tol"],
        "fsp_projection_fraction": report["fsp"]["projection_fraction"],
        "fsp_projection_target": "< 1.0 (strictly below full enumeration)",
        "sharded_4shard_speedup_x":
            report["sharded"]["scaling"]["shards"]["4"]
                  ["speedup_vs_1shard_x"],
        "sharded_4shard_target_x":
            "1.5 (only meaningful with >= 4 CPUs; this machine has "
            f"{os.cpu_count()})",
        "checkpoint_overhead_pct": report["durability"]["overhead_pct"],
        "checkpoint_overhead_target_pct": 5.0,
    }
    if "capacity" in report["sharded"]:
        cap = report["sharded"]["capacity"]
        report["acceptance"].update({
            "sharded_capacity_ratio_x": cap["capacity_ratio_x"],
            "sharded_capacity_target_x": 10.0,
            "sharded_capacity_stop_reason": cap["stop_reason"],
            "sharded_capacity_residual": cap["residual"],
        })
    if gate_backend is not None:
        report["acceptance"].update({
            "gate_backend": gate_backend,
            "batched_solver_only_speedup_x":
                report["batched"]["solver_only"]["batched"]
                      [gate_backend]["speedup_x"],
            "batched_solver_only_target_x": 2.0,
        })

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[bench] wrote {args.out}")
    for key, value in report["acceptance"].items():
        print(f"  {key}: {value}")

    if args.check_memo_speedup is not None:
        measured = report["gpusim_memo"]["speedup_x"]
        if measured < args.check_memo_speedup:
            print(f"[bench] FAIL: memo speedup {measured}x < "
                  f"required {args.check_memo_speedup}x", file=sys.stderr)
            return 1
        print(f"[bench] memo speedup {measured}x >= "
              f"{args.check_memo_speedup}x")

    if args.check_fsp:
        fsp = report["fsp"]
        ok = (fsp["adaptive"]["converged"]
              and fsp["adaptive"]["truncation_mass"] <= fsp["fsp_tol"]
              and fsp["adaptive"]["final_states"] < fsp["full"]["states"]
              and fsp["adaptive"]["final_residual"]
              <= fsp["adaptive"]["tol"])
        if not ok:
            print(f"[bench] FAIL: fsp gate — converged="
                  f"{fsp['adaptive']['converged']}, bound="
                  f"{fsp['adaptive']['truncation_mass']:.3e} (target "
                  f"{fsp['fsp_tol']:.1e}), projection "
                  f"{fsp['adaptive']['final_states']}/"
                  f"{fsp['full']['states']}, final inner residual "
                  f"{fsp['adaptive']['final_residual']:.3e} (tol "
                  f"{fsp['adaptive']['tol']:.1e})", file=sys.stderr)
            return 1
        print(f"[bench] fsp gate: certified "
              f"{fsp['adaptive']['truncation_mass']:.3e} <= "
              f"{fsp['fsp_tol']:.1e} on "
              f"{fsp['adaptive']['final_states']}/"
              f"{fsp['full']['states']} states, final inner residual "
              f"{fsp['adaptive']['final_residual']:.3e} <= "
              f"{fsp['adaptive']['tol']:.1e}")

    if args.check_sharded:
        measured = (report["sharded"]["scaling"]["shards"]["4"]
                    ["speedup_vs_1shard_x"])
        cpus = os.cpu_count() or 1
        if cpus >= 4:
            if measured < 1.5:
                print(f"[bench] FAIL: sharded gate — 4-shard speedup "
                      f"{measured}x < 1.5x on a {cpus}-cpu machine",
                      file=sys.stderr)
                return 1
            print(f"[bench] sharded gate: 4-shard speedup {measured}x "
                  f">= 1.5x")
        else:
            print(f"[bench] sharded gate: recorded {measured}x but not "
                  f"enforced — {cpus} cpu(s) < 4 shards, scaling cannot "
                  f"be meaningful here")

    if args.check_checkpoint is not None:
        measured = report["durability"]["overhead_pct"]
        if measured > args.check_checkpoint:
            print(f"[bench] FAIL: checkpoint gate — default-cadence "
                  f"overhead {measured}% > {args.check_checkpoint}%",
                  file=sys.stderr)
            return 1
        print(f"[bench] checkpoint gate: overhead {measured}% <= "
              f"{args.check_checkpoint}%")

    return 0


if __name__ == "__main__":
    raise SystemExit(main())
