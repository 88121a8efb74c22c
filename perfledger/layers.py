"""Per-layer metrics: the traced pass's view of each layer.

Every number here is taken from outside a layer, around a call to its
public function, with a span on a :class:`~repro.telemetry.TraceRecorder`
owned by the benchmark (the program's own spans stay off).  The
layers, named after their modules:

* ``backends`` / ``sparse`` — per-format SpMV and the fused Jacobi
  sweep on each kernel backend, with bytes moved computed from the
  layout arrays and GB/s against the triad peak of the cache level the
  working set fits in (``mem``);
* ``gpusim`` — the Fermi model's predicted format rates, and how well
  its ranking matches the measured one;
* ``cme`` — enumeration and assembly;
* ``solvers`` — the Jacobi loop split into sweep, residual check and
  renormalisation from :class:`~repro.telemetry.RecordingHooks`;
* ``fsp``, ``sweep``, ``serve`` — the workload-specific layers;
* ``distributed``, ``durability``, ``telemetry`` — record-only costs.

A layer the workload's op never enters reports 0 (no work done there);
:data:`LAYER_PATHS` says which layers each workload passes through.
"""

from __future__ import annotations

import math
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.stats import spearmanr

from repro import backends
from repro.cme.ratematrix import build_rate_matrix
from repro.cme.statespace import StateSpace, enumerate_state_space
from repro.distributed import ShardedJacobiSolver
from repro.durability import Checkpointer, CheckpointPolicy, system_signature
from repro.gpusim import spmv_performance
from repro.serve import ProcessSolverPool
from repro.solvers import JacobiSolver
from repro.sparse.base import as_csr
from repro.sparse.conversion import from_scipy
from repro.telemetry import RecordingHooks, TraceRecorder

from harness import percentile, repeat, summary
from workloads import SOLVE_TOL, SWEEP_DAMPING, ServeMix

#: (metric name, FORMAT_REGISTRY key) for the paper's seven formats.
FORMATS = (("csr", "csr"), ("ell", "ell"), ("ellr", "ellr"),
           ("ell-dia", "ell+dia"), ("sliced-ell", "sell"),
           ("sell-c-sigma", "sell-c-sigma"), ("warped-ell", "warped-ell"))
BACKENDS = ("numpy", "native")
LEVELS = ("l2", "llc", "dram")

#: Repeats for every per-layer timing (after one warm-up call); kernel
#: calls shorter than KERNEL_BATCH_S are timed in batches.
REPEATS = 5
KERNEL_BATCH_S = 0.02
#: Fixed iteration budgets: one solver loop per backend, and the
#: record-only probes.
LOOP_ITERATIONS = 300
SHARD_ITERATIONS = 200
CHECKPOINT_ITERATIONS = 1000
CHECKPOINT_EVERY = 250

#: Which layers each workload's op passes through.  The rest report 0.
LAYER_PATHS = {
    "solve-phage": ("backends", "sparse", "mem", "gpusim", "cme",
                    "solvers", "distributed", "durability", "telemetry"),
    "fsp-phage": ("backends", "sparse", "mem", "gpusim", "cme", "solvers",
                  "fsp", "distributed", "durability", "telemetry"),
    "sweep-toggle": ("backends", "sparse", "mem", "gpusim", "cme",
                     "solvers", "sweep", "distributed", "durability",
                     "telemetry"),
    "serve-mix": ("backends", "sparse", "mem", "gpusim", "cme", "solvers",
                  "serve", "distributed", "durability", "telemetry"),
}

#: Layer -> which end-to-end metric it should move, on which workloads,
#: and where it should stay flat (the prediction a change is held to).
LAYER_MAP = {
    "backends/sparse": {"moves": "time_to_solution_s",
                        "on": ["solve-phage", "fsp-phage"],
                        "flat": ["serve-mix"]},
    "mem": {"moves": None, "on": [], "flat": [],
            "note": "reference peaks only"},
    "gpusim": {"moves": None, "on": [], "flat": [],
               "note": "model fidelity only"},
    "cme": {"moves": "time_to_solution_s, solutions_per_s",
            "on": ["solve-phage", "sweep-toggle"], "flat": ["serve-mix"]},
    "solvers": {"moves": "time_to_solution_s",
                "on": ["solve-phage", "fsp-phage"], "flat": ["serve-mix"]},
    "fsp": {"moves": "time_to_solution_s", "on": ["fsp-phage"],
            "flat": ["solve-phage", "sweep-toggle"]},
    "sweep": {"moves": "solutions_per_s", "on": ["sweep-toggle"],
              "flat": ["solve-phage"]},
    "serve": {"moves": "time_to_solution_s, solutions_per_s",
              "on": ["serve-mix"], "flat": ["solve-phage"]},
    "distributed": {"moves": None, "on": [], "flat": [],
                    "note": "record-only: counts, no scaling claim on 2 CPUs"},
    "durability": {"moves": None, "on": [], "flat": [],
                   "note": "record-only"},
    "telemetry": {"moves": None, "on": [], "flat": [],
                  "note": "record-only"},
}


def layer_of(metric: str) -> str:
    if metric.startswith("backends.sweep_many_us."):
        return "sweep"
    return metric.split(".", 1)[0]


# -- bytes moved (computed from the layout arrays) ---------------------------


def layout_arrays(fmt) -> list[np.ndarray]:
    """The arrays one SpMV of *fmt* streams (what the kernels read)."""
    name = fmt.format_name
    if name == "csr":
        return [fmt.indptr, fmt.col_indices, fmt.values]
    if name == "ell":
        return [fmt.values, fmt.cols]
    if name == "ellr":
        return [fmt.values, fmt.cols, fmt.rl]
    if name == "ell+dia":
        return [fmt.dia.offsets, fmt.dia.data] + layout_arrays(fmt.ell)
    if name in ("sell", "sell-c-sigma", "warped-ell"):
        arrays = [fmt.slice_ptr, fmt.slice_k, fmt.cols, fmt.values]
        if name != "sell":
            arrays.append(fmt.row_ids)
        diag = getattr(fmt, "diagonal_values", None)
        if diag is not None:
            arrays.append(diag)
        return arrays
    raise ValueError(f"no byte count for format {name!r}")


def spmv_bytes(fmt) -> int:
    """Computed bytes per SpMV: each layout array read once, ``x`` read
    once, ``y`` written once.  Cache misses on the ``x`` gathers are
    not counted, so real traffic can only be higher."""
    n_rows, n_cols = fmt.shape
    return int(sum(a.nbytes for a in layout_arrays(fmt))
               + 8 * n_cols + 8 * n_rows)


def sweep_bytes(A) -> int:
    """Computed bytes per fused Jacobi sweep on CSR *A*: the CSR arrays,
    the diagonal, the iterate read and the new iterate written."""
    return int(A.indptr.nbytes + A.indices.nbytes + A.data.nbytes
               + 3 * 8 * A.shape[0])


# -- the probe: spans and samples for one traced pass ------------------------


class Probe:
    """Benchmark-side spans plus the per-layer samples they yield."""

    def __init__(self) -> None:
        self.recorder = TraceRecorder()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.spans: dict[str, list[float]] = defaultdict(list)
        self.meta: dict = {}

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside span *name*; keep its seconds."""
        with self.recorder.span(name):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
        self.spans[name].append(dt)
        return out

    def measure(self, metric: str, fn, *args, **kwargs):
        """:meth:`call` that also keeps the seconds as a sample of
        *metric* (the span is the metric name minus its unit)."""
        out = self.call(metric.rsplit("_", 1)[0], fn, *args, **kwargs)
        self.add(metric, self.spans[metric.rsplit("_", 1)[0]][-1])
        return out

    def add(self, metric: str, value) -> None:
        self.samples[metric].append(float(value))

    def add_times(self, metric: str, secs) -> None:
        """Per-call seconds, kept in microseconds."""
        self.samples[metric] += [t * 1e6 for t in secs]

    def add_rates(self, metric: str, nbytes: int, secs, *,
                  scale: float = 1.0) -> float:
        """GB/s of each repeat (times *scale*); returns their median."""
        rates = [scale * nbytes / t / 1e9 for t in secs]
        self.samples[metric] += rates
        return summary(rates)["median"]

    def record_cme(self, space, A) -> None:
        self.add("cme.states", space.size)
        self.add("cme.nnz", A.nnz)

    def record_loop(self, hooks: RecordingHooks) -> None:
        """Split one solve's loop into sweep, check and renormalise.

        A plain iteration is one sweep; a residual-check or
        renormalising iteration costs its sweep plus the extra work, so
        the extra is its time minus the plain-iteration median.
        """
        for key, value in loop_split(hooks).items():
            self.add(f"solvers.{key}", value)

    def record_fsp(self, result) -> None:
        self.add("fsp.rounds", len(result.rounds))
        self.add("fsp.inner_iterations", sum(r.iterations
                                             for r in result.rounds))
        self.add("fsp.final_states", result.space.size)
        self.add("fsp.truncation_mass", result.truncation_mass)


def loop_split(hooks: RecordingHooks) -> dict:
    stamps = np.array([hooks.started_at] + hooks.timestamps)
    dur = np.diff(stamps)
    n = dur.size
    checks = np.zeros(n, dtype=bool)
    renorms = np.zeros(n, dtype=bool)
    # on_iteration fires once per iteration, in order: call k is k.
    checks[[k - 1 for k, _ in hooks.residuals if 0 < k <= n]] = True
    renorms[[k - 1 for k in hooks.renormalizations if 0 < k <= n]] = True
    plain = dur[~checks & ~renorms]
    p50 = float(np.median(plain)) if plain.size else 0.0
    return {"iterations": hooks.iterations,
            "residual_checks": len(hooks.residuals),
            "renormalizations": len(hooks.renormalizations),
            "iter_us_p50": p50 * 1e6,
            "sweep_s": p50 * n,
            "check_s": float(np.sum(dur[checks] - p50)),
            "renorm_s": float(np.sum(dur[renorms & ~checks] - p50))}


def sum_loops(hooks_list) -> dict:
    """Totals over several solves (iteration median over all of them)."""
    parts = [loop_split(h) for h in hooks_list]
    out = {k: sum(p[k] for p in parts) for k in parts[0]}
    durs = np.concatenate([np.diff([h.started_at] + h.timestamps)
                           for h in hooks_list])
    out["iter_us_p50"] = float(np.median(durs)) * 1e6 if durs.size else 0.0
    return out


# -- shared layer probes (run on every workload's primary system) ------------


def measure_memory(probe: Probe, caches: dict, quick: bool) -> dict:
    """STREAM-style triad ``out = a*x + y`` through each backend's
    public ``axpy`` at three working-set sizes; returns the peak GB/s
    per level (best backend).  Bytes are the triad's nominal 3 arrays."""
    l2 = caches.get("l2_bytes") or (1 << 20)
    llc = caches.get("llc_bytes") or (32 << 20)
    # Working sets (all three arrays together): half the L2, a quarter
    # of the LLC (shared with other tenants), and 4x the LLC.
    sets = {"l2": l2 // 2, "llc": llc // 4,
            "dram": (llc // 4) if quick else 4 * llc}
    probe.meta["triad_working_set_bytes"] = sets
    peaks = {}
    for level, total in sets.items():
        n = max(1024, total // 24)
        x = np.full(n, 1.5)
        y = np.full(n, 0.5)
        out = np.empty(n)
        for be_name in BACKENDS:
            be = backends.get_backend(be_name)
            secs = probe.call(
                f"mem.triad.{level}.{be_name}", repeat,
                lambda: be.axpy(2.0, x, y, out=out), repeats=REPEATS,
                min_seconds=KERNEL_BATCH_S)
            gbs = probe.add_rates(f"mem.triad_gbs.{level}.{be_name}",
                                  24 * n, secs)
            peaks[level] = max(peaks.get(level, 0.0), gbs)
        del x, y, out
    return peaks


def _peak_for(nbytes: int, caches: dict, peaks: dict) -> float:
    if nbytes <= (caches.get("l2_bytes") or 0):
        return peaks["l2"]
    if nbytes <= (caches.get("llc_bytes") or 0):
        return peaks["llc"]
    return peaks["dram"]


def measure_kernels(probe: Probe, A, caches: dict, peaks: dict) -> None:
    """SpMV per format x backend, the fused sweep, and gpusim's view."""
    A = as_csr(A)
    n = A.shape[0]
    x = np.random.default_rng(0).random(n)
    measured = {be: [] for be in BACKENDS}
    predicted = []
    for fmt_name, key in FORMATS:
        fmt = from_scipy(A, key)
        nbytes = spmv_bytes(fmt)
        probe.add(f"sparse.spmv_bytes.{fmt_name}", nbytes)
        peak = _peak_for(nbytes, caches, peaks)
        for be in BACKENDS:
            secs = probe.call(f"backends.spmv.{fmt_name}.{be}", repeat,
                              lambda: fmt.spmv(x, backend=be),
                              repeats=REPEATS, min_seconds=KERNEL_BATCH_S)
            probe.add_times(f"backends.spmv_us.{fmt_name}.{be}", secs)
            probe.add_rates(f"backends.spmv_gbs.{fmt_name}.{be}", nbytes,
                            secs)
            probe.add_rates(f"backends.spmv_pct_peak.{fmt_name}.{be}",
                            nbytes, secs, scale=100.0 / peak)
            measured[be].append(2.0 * A.nnz / summary(secs)["median"])
        predicted.append(probe.call(f"gpusim.spmv.{fmt_name}",
                                    spmv_performance, fmt).gflops)
        probe.add(f"gpusim.predicted_gflops.{fmt_name}", predicted[-1])
    for be in BACKENDS:
        rho = spearmanr(predicted, measured[be]).correlation
        probe.add(f"gpusim.rank_spearman.{be}",
                  0.0 if math.isnan(rho) else rho)
    secs = probe.call("backends.spmv.csr.scipy", repeat, lambda: A @ x,
                      repeats=REPEATS, min_seconds=KERNEL_BATCH_S)
    probe.add_times("backends.spmv_us.csr.scipy", secs)

    diag = A.diagonal()
    out = np.empty(n)
    nbytes = sweep_bytes(A)
    probe.add("backends.jacobi_sweep_bytes", nbytes)
    for be_name in BACKENDS:
        be = backends.get_backend(be_name)
        secs = probe.call(f"backends.jacobi_sweep.{be_name}", repeat,
                          lambda: be.jacobi_sweep(A, diag, x, 1.0, out=out),
                          repeats=REPEATS, min_seconds=KERNEL_BATCH_S)
        probe.add_times(f"backends.jacobi_sweep_us.{be_name}", secs)
        probe.add_rates(f"backends.jacobi_sweep_gbs.{be_name}", nbytes,
                        secs)
        # The same sweep inside JacobiSolver's loop: the difference to
        # the bare kernel is the loop's own per-iteration cost.
        solver = JacobiSolver(A, backend=be_name, tol=1e-300,
                              max_iterations=LOOP_ITERATIONS,
                              stagnation_tol=None,
                              check_interval=LOOP_ITERATIONS)
        secs = probe.call(f"backends.jacobi_loop.{be_name}", repeat,
                          solver.solve, repeats=REPEATS)
        probe.add_times(f"backends.jacobi_iter_us.{be_name}",
                        [t / LOOP_ITERATIONS for t in secs])


def measure_distributed(probe: Probe, A, repeats: int) -> None:
    """Fixed-budget 2-shard barrier solves: halo bytes and sweeps are
    counts; wall time is recorded, no scaling is claimed on 2 CPUs."""
    for _ in range(repeats):
        solver = ShardedJacobiSolver(
            A, shards=2, sync="barrier", tol=1e-300,
            max_iterations=SHARD_ITERATIONS, stagnation_tol=None,
            check_interval=SHARD_ITERATIONS)
        result = probe.call("distributed.solve", solver.solve)
        info = result.sharding
        sweeps = sum(info["sweeps"])
        probe.add("distributed.sweeps", sweeps)
        probe.add("distributed.halo_bytes_per_sweep",
                  sum(info["halo_bytes"]) / max(1, sweeps))
    probe.samples["distributed.wall_s_2shard"] += probe.spans[
        "distributed.solve"]


def measure_durability(probe: Probe, A, repeats: int) -> None:
    """Paired fixed-budget solves, plain vs checkpointing every
    CHECKPOINT_EVERY iterations, alternated so drift hits both."""
    kwargs = dict(tol=1e-300, max_iterations=CHECKPOINT_ITERATIONS,
                  stagnation_tol=None, check_interval=CHECKPOINT_EVERY)
    signature = system_signature(as_csr(A), method="jacobi", tol=1e-300)
    plain, checked = [], []
    for _ in range(repeats):
        probe.call("durability.plain", JacobiSolver(A, **kwargs).solve)
        plain.append(probe.spans["durability.plain"][-1])
        with tempfile.TemporaryDirectory() as tmp:
            ck = Checkpointer(tmp, signature=signature,
                              policy=CheckpointPolicy(
                                  every_iterations=CHECKPOINT_EVERY,
                                  keep_last=2))
            probe.call("durability.checkpointed",
                       JacobiSolver(A, **kwargs).solve, checkpointer=ck)
            checked.append(probe.spans["durability.checkpointed"][-1])
            probe.add("durability.checkpoint_bytes",
                      max(p.stat().st_size for p in ck.files()))
    base = summary(plain)["median"]
    probe.add("durability.checkpoint_overhead_pct",
              100.0 * (summary(checked)["median"] - base) / base)


# -- workload-specific layer probes ------------------------------------------


def sweep_serial_baseline(probe: Probe, workload, points, repeats: int):
    """The 8 conditions as 8 plain single-system Jacobi solves (the
    batched path's baseline), plus the stacked sweep kernel alone."""
    systems = []
    for rep in range(repeats):
        hooks_list, total = [], 0.0
        for d in points:
            A = probe.measure("cme.assemble_s", workload.matrix_for, d)
            hooks = RecordingHooks()
            probe.call("sweep.serial_solve", lambda: JacobiSolver(
                A, tol=SOLVE_TOL, damping=SWEEP_DAMPING).solve(hooks=hooks))
            total += probe.spans["sweep.serial_solve"][-1]
            hooks_list.append(hooks)
            if rep == 0:
                systems.append(as_csr(A))
        probe.add("sweep.serial_solve_s", total)
        for key, value in sum_loops(hooks_list).items():
            probe.add(f"solvers.{key}", value)
    n, m = systems[0].shape[0], len(systems)
    D = np.ascontiguousarray(np.stack([A.diagonal() for A in systems], 1))
    X = np.full((n, m), 1.0 / n)
    out = np.empty_like(X)
    native = backends.get_backend("native")
    secs = probe.call("backends.sweep_many.native", repeat,
                      lambda: native.jacobi_sweep_many(
                          systems, D, X, SWEEP_DAMPING, out=out),
                      repeats=REPEATS, min_seconds=KERNEL_BATCH_S)
    probe.add_times("backends.sweep_many_us.native", secs)
    # The reference stacks the systems on one block diagonal and sweeps
    # the concatenated iterate (what BatchedJacobiSolver does without a
    # fused kernel).
    stack = sp.csr_matrix(sp.block_diag(systems, format="csr"))
    dflat = np.ascontiguousarray(D.T).ravel()
    xflat = np.ascontiguousarray(X.T).ravel()
    oflat = np.empty_like(xflat)
    ref = backends.get_backend("numpy")
    secs = probe.call("backends.sweep_many.numpy", repeat,
                      lambda: ref.jacobi_sweep(stack, dflat, xflat,
                                               SWEEP_DAMPING, out=oflat),
                      repeats=REPEATS, min_seconds=KERNEL_BATCH_S)
    probe.add_times("backends.sweep_many_us.numpy", secs)


def solver_settings(service) -> dict:
    """The Jacobi settings *service* gives every request it builds."""
    req = service.request()
    return dict(tol=req.tol, max_iterations=req.max_iterations,
                **req.solver_options)


def serve_model_baseline(probe: Probe, workload, repeats: int) -> None:
    """Each mix model at its base rates, enumerated, assembled and
    solved once with its service's settings (totals over the mix)."""
    for _ in range(repeats):
        totals = defaultdict(float)
        hooks_list = []
        for model, net in workload.networks.items():
            settings = solver_settings(workload.services[model])
            space = probe.call("cme.enumerate", enumerate_state_space, net)
            A = probe.call("cme.assemble", build_rate_matrix, space)
            hooks = RecordingHooks()
            probe.call("solvers.solve", lambda: JacobiSolver(
                A, **settings).solve(hooks=hooks))
            hooks_list.append(hooks)
            totals["cme.enumerate_s"] += probe.spans["cme.enumerate"][-1]
            totals["cme.assemble_s"] += probe.spans["cme.assemble"][-1]
            totals["cme.states"] += space.size
            totals["cme.nnz"] += A.nnz
        for key, value in totals.items():
            probe.add(key, value)
        for key, value in sum_loops(hooks_list).items():
            probe.add(f"solvers.{key}", value)


def record_serve(probe: Probe, records: list) -> None:
    """Caller-side decomposition of one open-loop window."""
    ok = [r for r in records if r.error is None]
    probe.add("serve.submit_us_p50", percentile(
        [(r.returned - r.submitted) * 1e6 for r in records], 0.50))
    probe.add("serve.submit_us_p99", percentile(
        [(r.returned - r.submitted) * 1e6 for r in records], 0.99))
    probe.add("serve.generator_lag_s_p99", percentile(
        [max(0.0, r.submitted - r.due) for r in records], 0.99))
    hits = [r for r in ok if r.answer.cached]
    probe.add("serve.cache_hit_rate", len(hits) / max(1, len(ok)))
    probe.add("serve.coalesced_frac",
              sum(r.coalesced for r in records) / max(1, len(records)))
    solved = [r for r in ok if not r.answer.cached and not r.coalesced]
    if solved:
        probe.add("serve.worker_solve_s_p50", percentile(
            [r.answer.solve_seconds for r in solved], 0.50))
        waits = [max(0.0, r.done - r.returned - r.answer.solve_seconds)
                 for r in solved]
        probe.add("serve.queue_wait_s_p50", percentile(waits, 0.50))
        probe.add("serve.queue_wait_s_p99", percentile(waits, 0.99))
    # Job times are perf_counter stamps; shift them onto the trace clock.
    shift_us = probe.recorder.now_us() - time.perf_counter() * 1e6
    for r in records:
        end = r.done if not math.isnan(r.done) else r.returned
        probe.recorder.add_event(
            "serve.job", r.due * 1e6 + shift_us, (end - r.due) * 1e6,
            model=r.model, cached=bool(r.answer and r.answer.cached),
            coalesced=r.coalesced, error=r.error)


def measure_pool(probe: Probe, workload, repeats: int) -> None:
    """First vs repeat ``ProcessSolverPool.solve`` on one system: the
    first ships the matrix to the worker, the repeat reuses it."""
    net = workload.networks["toggle_switch"]
    req = workload.services["toggle_switch"].request()
    space = enumerate_state_space(net)
    with ProcessSolverPool(workers=1, name="ledger-ship") as pool:
        for i in range(repeats):
            A = as_csr(build_rate_matrix(StateSpace(
                network=net.with_rates({"degA": 1.0 + 0.01 * i}),
                states=space.states)))
            kwargs = dict(system_key=f"ledger-{i}", matrix=A,
                          method="jacobi", tol=req.tol,
                          max_iterations=req.max_iterations,
                          options=req.solver_options)
            probe.call("serve.pool_first", pool.solve, **kwargs)
            probe.call("serve.pool_repeat", pool.solve, **kwargs)
            ship = (probe.spans["serve.pool_first"][-1]
                    - probe.spans["serve.pool_repeat"][-1])
            probe.add("serve.pool_ship_ms", ship * 1e3)
            probe.add("serve.pool_solve_ms",
                      probe.spans["serve.pool_repeat"][-1] * 1e3)


def measure_thread_capacity(probe: Probe, seed: int, bursts: int) -> None:
    """Burst capacity on the thread executor (record-only)."""
    mix = ServeMix(seed, executor="thread")
    try:
        mix.warmup()
        for _ in range(bursts):
            _, done, secs = probe.call("serve.burst_thread", mix.burst)
            probe.add("serve.capacity_thread_jobs_per_s", done / secs)
    finally:
        mix.close()


# -- results -----------------------------------------------------------------


def finalize(probe: Probe, workload: str, declared: list) -> tuple[dict, list]:
    """Every per-layer metric *declared* in ``BENCHMARK.json`` as a
    summary; layers off the workload's path report 0."""
    on_path = LAYER_PATHS[workload]
    out, absent = {}, []
    for m in declared:
        name, unit = m["name"], m["unit"]
        values = probe.samples.get(name)
        if values:
            out[name] = {**summary(values), "unit": unit}
        else:
            out[name] = {**summary([0.0]), "unit": unit}
            absent.append(name)
            if layer_of(name) in on_path:
                raise RuntimeError(f"{workload}: no samples for {name}")
    return out, absent


def write_trace(probe: Probe, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    probe.recorder.write(path)
