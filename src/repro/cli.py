"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``solve``
    Enumerate a model and compute its steady-state landscape.
``fsp``
    Solve a model by adaptive Finite State Projection: grow a small
    projection until the certified truncation bound meets ``--fsp-tol``
    (no full enumeration), reporting the per-round trajectory.
``stats``
    Table I-style structure statistics of a benchmark or ``.mtx`` file.
``spmv``
    Modeled GTX580 SpMV performance of a matrix in a chosen format.
``export``
    Write a benchmark rate matrix to a Matrix Market file.
``sweep``
    Grid-sweep reaction rates and solve each condition (the paper's
    motivating exploratory workload); ``--workers`` routes it through
    the solve service with caching and warm starting.
``serve``
    Exercise :mod:`repro.serve` directly: run a rate grid through the
    concurrent solve service and report cache hit rates, warm-start
    iteration savings, and latency percentiles.
``profile``
    Trace one full solve pipeline (enumeration, assembly, format
    conversion, modeled GPU kernels, solver iterations) to
    Chrome-trace JSON plus a Prometheus-style metrics report.
``experiments``
    Run the full table/figure harness (see
    :mod:`repro.experiments.runner`).
"""

from __future__ import annotations

import argparse
import sys

MODELS = ("toggle-switch", "brusselator", "schnakenberg", "phage-lambda")
FORMATS = ("csr", "ell", "ellr", "ell+dia", "sell", "warped-ell")


def build_model(args):
    from repro.cme.models import (
        brusselator,
        phage_lambda,
        schnakenberg,
        toggle_switch,
    )
    if args.model == "toggle-switch":
        return toggle_switch(max_protein=args.max_protein)
    if args.model == "brusselator":
        return brusselator(max_x=args.max_x, max_y=args.max_y)
    if args.model == "schnakenberg":
        return schnakenberg(max_x=args.max_x, max_y=args.max_y)
    return phage_lambda(max_monomer=args.max_monomer,
                        max_dimer=args.max_dimer)


def load_matrix(args):
    """Resolve --benchmark/--mtx arguments to a CSR matrix."""
    if getattr(args, "mtx", None):
        from repro.sparse.mmio import read_matrix_market
        return read_matrix_market(args.mtx)
    from repro.cme.models import load_benchmark_matrix
    return load_benchmark_matrix(args.benchmark, args.scale)


def cmd_solve(args) -> int:
    import contextlib

    from repro import solve_steady_state
    network = build_model(args)
    print(network.describe())
    kwargs = {}
    if args.damping is not None:
        kwargs["damping"] = args.damping
    if args.method == "sharded":
        kwargs["shards"] = args.shards if args.shards is not None else 2
        kwargs["sync"] = args.sync if args.sync is not None else "barrier"
    elif args.shards is not None or args.sync is not None:
        print("note: --shards/--sync only apply to --method sharded")

    chaos = contextlib.nullcontext()
    if args.inject_faults:
        from repro.resilience import FaultPlan, injecting
        plan = FaultPlan.load(args.inject_faults)
        if args.fault_seed is not None:
            plan = FaultPlan(plan.specs, seed=args.fault_seed,
                             name=plan.name)
        print(f"injecting faults: plan {plan.name!r} "
              f"({len(plan.specs)} spec(s), seed {plan.seed})")
        chaos = injecting(plan)

    if args.checkpoint:
        kwargs["checkpoint"] = args.checkpoint
        kwargs["resume"] = args.resume
        kwargs["checkpoint_every"] = args.checkpoint_every
    elif args.resume:
        print("--resume needs --checkpoint DIR", file=sys.stderr)
        return 2

    with chaos:
        result = solve_steady_state(
            network, args.method, tol=args.tol,
            max_iterations=args.max_iterations, **kwargs)
    landscape = result.landscape
    print(f"\n{result.stop_reason.value} after {result.iterations} "
          f"iterations (residual {result.residual:.3e}, "
          f"{result.runtime_s:.2f}s)")
    if result.recovery is not None:
        rep = result.recovery
        print(f"recovery: {rep.faults_seen} fault(s) seen, "
              f"{rep.rollbacks} rollback(s), "
              f"fallbacks {rep.fallback_chain or ['none']}")
    if args.recovery_report:
        import json
        payload = (result.recovery.to_dict() if result.recovery is not None
                   else {"events": [], "checkpoints": 0, "rollbacks": 0,
                         "faults_seen": 0, "fallback_chain": [],
                         "degraded": False, "recovered": False})
        payload["stop_reason"] = result.stop_reason.value
        payload["iterations"] = result.iterations
        payload["residual"] = result.residual
        with open(args.recovery_report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"recovery report written to {args.recovery_report}")
    means = {k: round(v, 2) for k, v in landscape.mean_counts().items()}
    print(f"mean copy numbers: {means}")
    if network.n_species == 2:
        a, b = (s.name for s in network.species)
        print(f"modes: {landscape.grid_modes(a, b)}")
        if not args.no_heatmap:
            print(landscape.ascii_heatmap(a, b))
    return 0 if result.residual < 1e-3 else 1


def cmd_fsp(args) -> int:
    import json

    from repro.fsp import AdaptiveFspController
    from repro.utils.tables import Table

    network = build_model(args)
    print(network.describe())
    print(f"buffered state-space bound: {network.state_space_bound()}")
    solver_options = ({"damping": args.damping}
                      if args.damping is not None else {})
    checkpointer = None
    if args.checkpoint:
        from repro.durability import (
            Checkpointer,
            CheckpointPolicy,
            network_signature,
        )
        checkpointer = Checkpointer(
            args.checkpoint,
            signature=network_signature(
                network, extra=f"fsp|{args.fsp_tol}|{args.tol}"),
            policy=CheckpointPolicy(keep_last=3),
            resume=args.resume)
    elif args.resume:
        print("--resume needs --checkpoint DIR", file=sys.stderr)
        return 2
    controller = AdaptiveFspController(
        network, fsp_tol=args.fsp_tol, tol=args.tol,
        max_iterations=args.max_iterations, method=args.method,
        solver_options=solver_options, initial_size=args.initial_size,
        max_rounds=args.max_rounds, prune_mass=args.prune_mass,
        safety=args.safety, expand_depth=args.expand_depth,
        max_new_states=args.max_new_states)
    result = controller.solve(time_budget_s=args.timeout,
                              checkpointer=checkpointer)

    table = Table(["round", "states", "added", "pruned", "iters",
                   "residual", "outflux", "bound"],
                  title=f"adaptive FSP · {network.name}")
    for r in result.rounds:
        table.add_row([r.round, r.states, r.added, r.pruned, r.iterations,
                       f"{r.residual:.2e}", f"{r.outflow_flux:.2e}",
                       f"{r.bound:.2e}"])
    print(table.render())
    status = "certified" if result.converged else "NOT certified"
    print(f"\n{status} ({result.reason}): truncation_mass "
          f"{result.truncation_mass:.3e} (target {args.fsp_tol:.1e}) on "
          f"{result.space.size} states after {len(result.rounds)} rounds, "
          f"{result.iterations} solver iterations, {result.runtime_s:.2f}s")
    if args.compare_full:
        from repro.cme import enumerate_state_space
        full = enumerate_state_space(network)
        pct = 100.0 * result.space.size / full.size
        print(f"full enumeration: {full.size} states "
              f"(projection is {pct:.1f}%)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result.payload(), fh, indent=2)
        print(f"wrote {args.out}")
    return 0 if result.converged else 1


def cmd_stats(args) -> int:
    from repro.sparse.stats import matrix_stats
    from repro.utils.tables import Table
    A = load_matrix(args)
    st = matrix_stats(A)
    table = Table(["metric", "value"], title="Matrix structure (Table I)")
    table.add_row(["n", st.n])
    table.add_row(["nnz", st.nnz])
    table.add_row(["Matrix Market size (MB)", round(st.disk_megabytes, 2)])
    table.add_row(["nnz/row min / mean / max",
                   f"{st.min_nnz_row} / {st.mean_nnz_row:.2f} / "
                   f"{st.max_nnz_row}"])
    table.add_row(["variability sigma/mu", round(st.variability, 3)])
    table.add_row(["skew (max-mu)/mu", round(st.skew, 3)])
    table.add_row(["d{0}", round(st.diag_density, 3)])
    table.add_row(["d{-1,0,+1}", round(st.band_density, 3)])
    table.add_row(["ELL efficiency", round(st.ell_efficiency, 3)])
    print(table.render())
    return 0


def cmd_spmv(args) -> int:
    from repro.gpusim import GTX580, spmv_performance
    from repro.sparse.conversion import from_scipy
    from repro.utils.tables import Table
    A = load_matrix(args)
    table = Table(["format", "GFLOPS", "limiting", "footprint MB"],
                  title=f"Modeled {GTX580.name} SpMV")
    formats = FORMATS if args.format == "all" else (args.format,)
    for name in formats:
        fmt = from_scipy(A, name)
        perf = spmv_performance(fmt, GTX580, x_scale=args.x_scale)
        table.add_row([name, round(perf.gflops, 3),
                       perf.limiting_resource,
                       round(fmt.footprint() / 1e6, 2)])
    print(table.render())
    return 0


def cmd_export(args) -> int:
    from repro.sparse.mmio import write_matrix_market
    A = load_matrix(args)
    n_bytes = write_matrix_market(A, args.out)
    print(f"wrote {args.out}: {A.shape[0]}x{A.shape[1]}, "
          f"{A.nnz} nonzeros, {n_bytes / 1e6:.2f} MB")
    return 0


def parse_grid(specs) -> dict | None:
    """``name=v1,v2,...`` specs to a sweep grid (None on a bad spec)."""
    grid = {}
    for spec in specs:
        name, _, values = spec.partition("=")
        if not values:
            print(f"bad --vary spec {spec!r}; expected name=v1,v2,...",
                  file=sys.stderr)
            return None
        grid[name] = [float(v) for v in values.split(",")]
    return grid


def cmd_sweep(args) -> int:
    from repro.sweep import ParameterSweep
    network = build_model(args)
    grid = parse_grid(args.vary)
    if grid is None:
        return 2
    sweep = ParameterSweep(network, grid)
    kwargs = {"damping": args.damping} if args.damping is not None else {}
    sweep.run(tol=args.tol, max_iterations=args.max_iterations,
              solver_kwargs=kwargs, workers=args.workers,
              cache=not args.no_cache, warm_start=args.warm_start)
    print(sweep.table().render())
    print(f"{len(sweep.points)} conditions in "
          f"{sweep.total_solve_seconds():.2f}s")
    if sweep.service_report is not None:
        print()
        print(sweep.service_report)
    return 0


def cmd_serve(args) -> int:
    from repro.serve import SolutionCache, SolveService
    from repro.sweep import ParameterSweep
    network = build_model(args)
    grid = parse_grid(args.vary)
    if grid is None:
        return 2
    kwargs = {"damping": args.damping} if args.damping is not None else {}
    cache = (SolutionCache(disk_dir=args.cache_dir)
             if args.cache_dir else True)
    if args.processes:
        executor, workers = "process", args.processes
    else:
        executor, workers = "thread", args.workers
    service = SolveService(
        network, workers=workers, executor=executor, cache=cache,
        warm_start=not args.cold, warm_audit_interval=args.audit_interval,
        queue_capacity=args.queue_capacity, timeout_s=args.timeout,
        retries=args.retries, tol=args.tol,
        max_iterations=args.max_iterations, solver_options=kwargs,
        journal=args.journal)
    if args.journal:
        service.install_sigterm_handler(timeout_s=args.timeout)
        replayed = service.snapshot()["journal_replayed"]
        if replayed:
            print(f"replayed {replayed} accepted-but-unfinished "
                  f"journal entries")
    try:
        for pass_no in range(1, args.passes + 1):
            sweep = ParameterSweep(network, grid)
            sweep.run(tol=args.tol, max_iterations=args.max_iterations,
                      solver_kwargs=kwargs, service=service)
            print(f"pass {pass_no}: {len(sweep.points)} conditions in "
                  f"{sweep.total_solve_seconds():.2f}s solve time")
        print()
        print(service.render_metrics())
    finally:
        service.close()
    return 0


def cmd_profile(args) -> int:
    import os

    from repro import solve_steady_state
    from repro.cme.ratematrix import build_rate_matrix
    from repro.cme.statespace import enumerate_state_space
    from repro.errors import FormatError
    from repro.gpusim import GTX580, jacobi_performance, spmv_performance
    from repro.sparse.conversion import from_scipy
    from repro.telemetry import (
        MetricsRegistry,
        MultiHooks,
        RecordingHooks,
        TelemetryHooks,
        TraceRecorder,
        tracing,
    )

    network = build_model(args)
    recorder = TraceRecorder()
    registry = MetricsRegistry()
    recording = RecordingHooks()
    # Damping is a Jacobi-only knob (the default tames the toggle
    # switch's bipartite oscillation).
    kwargs = ({"damping": args.damping}
              if args.method == "jacobi" and args.damping is not None
              else {})

    with tracing.recording(recorder):
        with tracing.span("profile", model=args.model, method=args.method):
            with tracing.span("enumerate", network=network.name) as sp:
                space = enumerate_state_space(network)
                sp.set_attribute("states", len(space.states))
            with tracing.span("assemble") as sp:
                A = build_rate_matrix(space)
                sp.set_attribute("nnz", int(A.nnz))
            with tracing.span("convert", format=args.format):
                fmt = from_scipy(A, args.format)
            spmv_performance(fmt, GTX580)
            try:
                jacobi_performance(fmt, GTX580,
                                   check_interval=50, normalize_interval=10)
            except FormatError:
                # The fused Jacobi kernel only models ELL+DIA-style
                # layouts; profile it on that conversion instead.
                jacobi_performance(from_scipy(A, "ell+dia"), GTX580,
                                   check_interval=50, normalize_interval=10)
            hooks = MultiHooks(
                recording,
                TelemetryHooks(recorder, registry,
                               prefix=args.method.replace("-", "_"),
                               trace_every=args.trace_every))
            result = solve_steady_state(
                A, method=args.method, tol=args.tol,
                max_iterations=args.max_iterations, hooks=hooks, **kwargs)
            if args.serve_sample:
                # Route a few jobs through the serve layer on the same
                # registry so the exported metrics include the
                # end-to-end solve_latency_seconds histogram (and its
                # derivable p50/p99), not just solver-loop counters.
                from repro.serve import SolveService
                # The first mass-action reaction: a custom propensity
                # ignores its rate, so the service refuses to vary it.
                rxn = next(r for r in network.reactions
                           if r.propensity_fn is None)
                with tracing.span("serve-sample", jobs=args.serve_sample):
                    with SolveService(
                            network, workers=1, tol=args.tol,
                            max_iterations=args.max_iterations,
                            solver_options=kwargs,
                            metrics_registry=registry) as sample:
                        for i in range(args.serve_sample):
                            sample.submit(
                                {rxn.name: rxn.rate * (1.0 + 0.05 * i)}
                            ).result(timeout=600)

    os.makedirs(args.out, exist_ok=True)
    trace_path = os.path.join(args.out, "trace.json")
    metrics_path = os.path.join(args.out, "metrics.prom")
    recorder.write(trace_path)
    with open(metrics_path, "w", encoding="utf-8") as fh:
        fh.write(registry.render_prometheus())
        # The process-wide default registry carries the cross-cutting
        # counters (durability checkpoint/journal, shard respawns,
        # injected faults) that never see the profile's private
        # registry — append them so one .prom file tells the whole
        # story.
        from repro.telemetry.metrics import get_registry
        default = get_registry().render_prometheus()
        if default.strip():
            fh.write("\n")
            fh.write(default)

    print(f"{network.name}: {len(space.states)} states, {A.nnz} nonzeros")
    print(f"{result.stop_reason.value} after {result.iterations} "
          f"iterations (residual {result.residual:.3e}, "
          f"{result.runtime_s:.2f}s)")
    if recording.iterations:
        per_it = recording.total_seconds() / recording.iterations
        print(f"measured {per_it * 1e6:.1f} us/iteration over "
              f"{recording.iterations} hooked iterations")
    print(f"wrote {trace_path} ({len(recorder)} spans; open in "
          f"chrome://tracing or ui.perfetto.dev)")
    print(f"wrote {metrics_path}")
    return 0


def cmd_experiments(args) -> int:
    from repro.experiments.runner import run_all, write_markdown
    results = run_all(args.scale)
    if args.out:
        write_markdown(results, args.out)
        print(f"wrote {args.out}")
    return 0


def _add_matrix_source(parser, benchmarks) -> None:
    parser.add_argument("--benchmark", choices=benchmarks,
                        default="toggle-switch-1")
    parser.add_argument("--scale", choices=("tiny", "small", "bench"),
                        default="small")
    parser.add_argument("--mtx", help="read a Matrix Market file instead")


def make_parser() -> argparse.ArgumentParser:
    from repro.cme.models import benchmark_names
    from repro.solvers import DEFAULT_DAMPING
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--backend", default=None, metavar="NAME",
        help="kernel backend for sparse/solver hot paths (numpy or "
             "native; native is used when it compiles); becomes the "
             "process default, overriding REPRO_BACKEND.  Must precede "
             "the subcommand.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a model's steady state")
    p.add_argument("--model", choices=MODELS, default="toggle-switch")
    p.add_argument("--max-protein", type=int, default=40)
    p.add_argument("--max-x", type=int, default=60)
    p.add_argument("--max-y", type=int, default=30)
    p.add_argument("--max-monomer", type=int, default=8)
    p.add_argument("--max-dimer", type=int, default=4)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iterations", type=int, default=200_000)
    p.add_argument("--damping", type=float, default=None)
    p.add_argument("--method", default="jacobi",
                   choices=["jacobi", "gauss-seidel", "power", "resilient",
                            "sharded"],
                   help="solver method (resilient = jacobi -> gauss-seidel "
                        "-> gmres fallback chain; sharded = "
                        "domain-decomposed Jacobi across a process pool)")
    p.add_argument("--shards", type=int, default=None,
                   help="worker count for --method sharded (default 2)")
    p.add_argument("--sync", choices=["barrier", "chaotic"], default=None,
                   help="sharded sync mode: barrier is bitwise-equal to "
                        "serial jacobi, chaotic relaxes asynchronously "
                        "(default barrier)")
    p.add_argument("--inject-faults", metavar="PLAN.json", default=None,
                   help="run the solve under a seeded fault-injection plan")
    p.add_argument("--fault-seed", type=int, default=None,
                   help="override the fault plan's seed")
    p.add_argument("--checkpoint", metavar="DIR", default=None,
                   help="write durable checkpoints to DIR during the "
                        "solve (see DESIGN.md §15)")
    p.add_argument("--resume", action="store_true",
                   help="resume from the newest intact checkpoint in "
                        "--checkpoint DIR")
    p.add_argument("--checkpoint-every", type=int, default=1000,
                   help="checkpoint cadence in iterations")
    p.add_argument("--recovery-report", metavar="PATH", default=None,
                   help="write the solve's RecoveryReport JSON here")
    p.add_argument("--no-heatmap", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("fsp",
                       help="adaptive FSP solve with a certified "
                            "truncation bound")
    p.add_argument("--model", choices=MODELS, default="phage-lambda")
    p.add_argument("--max-protein", type=int, default=40)
    p.add_argument("--max-x", type=int, default=60)
    p.add_argument("--max-y", type=int, default=30)
    p.add_argument("--max-monomer", type=int, default=8)
    p.add_argument("--max-dimer", type=int, default=4)
    p.add_argument("--fsp-tol", type=float, default=1e-6,
                   help="target certified truncation mass")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="inner solver residual tolerance")
    p.add_argument("--max-iterations", type=int, default=1_000_000,
                   help="inner solver iteration cap per round")
    p.add_argument("--method", default="jacobi",
                   choices=["jacobi", "gauss-seidel", "power", "resilient"],
                   help="inner steady-state solver")
    p.add_argument("--damping", type=float, default=None)
    p.add_argument("--initial-size", type=int, default=64,
                   help="seed projection size (BFS ball)")
    p.add_argument("--max-rounds", type=int, default=40)
    p.add_argument("--prune-mass", type=float, default=None,
                   help="stationary mass the per-round prune may drop "
                        "(default fsp_tol/100; 0 disables)")
    p.add_argument("--safety", type=float, default=4.0,
                   help="certificate cushion multiplier")
    p.add_argument("--expand-depth", type=int, default=2,
                   help="frontier layers grown per round")
    p.add_argument("--checkpoint", metavar="DIR", default=None,
                   help="durable per-round checkpoints to DIR")
    p.add_argument("--resume", action="store_true",
                   help="resume the projection loop from the newest "
                        "intact round checkpoint in --checkpoint DIR")
    p.add_argument("--max-new-states", type=int, default=None,
                   help="cap on flux-ranked growth per round")
    p.add_argument("--timeout", type=float, default=None,
                   help="wall-clock budget in seconds")
    p.add_argument("--compare-full", action="store_true",
                   help="also enumerate the full space and report the "
                        "projection's size advantage")
    p.add_argument("--out", default=None,
                   help="write the FSP payload JSON here")
    p.set_defaults(func=cmd_fsp)

    p = sub.add_parser("sweep", help="grid-sweep reaction rates")
    p.add_argument("--model", choices=MODELS, default="toggle-switch")
    p.add_argument("--max-protein", type=int, default=20)
    p.add_argument("--max-x", type=int, default=40)
    p.add_argument("--max-y", type=int, default=20)
    p.add_argument("--max-monomer", type=int, default=6)
    p.add_argument("--max-dimer", type=int, default=3)
    p.add_argument("--vary", action="append", required=True,
                   metavar="REACTION=V1,V2,...",
                   help="rate grid, repeatable")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iterations", type=int, default=200_000)
    p.add_argument("--damping", type=float, default=None)
    p.add_argument("--workers", type=int, default=None,
                   help="route through the solve service with N workers")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the solution cache (served runs)")
    p.add_argument("--warm-start", action="store_true",
                   help="seed each solve from nearby conditions "
                        "(served runs)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("serve", help="run a grid through the solve service")
    p.add_argument("--model", choices=MODELS, default="toggle-switch")
    p.add_argument("--max-protein", type=int, default=20)
    p.add_argument("--max-x", type=int, default=40)
    p.add_argument("--max-y", type=int, default=20)
    p.add_argument("--max-monomer", type=int, default=6)
    p.add_argument("--max-dimer", type=int, default=3)
    p.add_argument("--vary", action="append", required=True,
                   metavar="REACTION=V1,V2,...",
                   help="rate grid, repeatable")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iterations", type=int, default=200_000)
    p.add_argument("--damping", type=float, default=None)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--processes", type=int, default=None, metavar="N",
                   help="dispatch solves to a pool of N worker "
                        "processes instead of threads (true multi-core "
                        "parallelism for native solves)")
    p.add_argument("--cold", action="store_true",
                   help="disable warm starting")
    p.add_argument("--audit-interval", type=int, default=8,
                   help="audit every Nth warm start against a cold "
                        "solve (0 disables)")
    p.add_argument("--passes", type=int, default=2,
                   help="sweep the grid this many times (later passes "
                        "exercise the cache)")
    p.add_argument("--journal", metavar="PATH", default=None,
                   help="write-ahead job journal: accepted jobs are "
                        "durably recorded and replayed on restart")
    p.add_argument("--cache-dir", default=None,
                   help="persist solutions to this directory")
    p.add_argument("--queue-capacity", type=int, default=1024)
    p.add_argument("--timeout", type=float, default=None,
                   help="per-attempt solve budget in seconds")
    p.add_argument("--retries", type=int, default=0)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("stats", help="matrix structure statistics")
    _add_matrix_source(p, benchmark_names())
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("spmv", help="modeled GTX580 SpMV performance")
    _add_matrix_source(p, benchmark_names())
    p.add_argument("--format", choices=FORMATS + ("all",), default="all")
    p.add_argument("--x-scale", type=float, default=1.0,
                   help="problem-size normalization (paper_n / n)")
    p.set_defaults(func=cmd_spmv)

    p = sub.add_parser("export", help="write a benchmark to .mtx")
    _add_matrix_source(p, benchmark_names())
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("profile",
                       help="trace a full solve pipeline to Chrome-trace "
                            "JSON plus a metrics report")
    p.add_argument("--model", choices=MODELS, default="toggle-switch")
    p.add_argument("--max-protein", type=int, default=16)
    p.add_argument("--max-x", type=int, default=40)
    p.add_argument("--max-y", type=int, default=20)
    p.add_argument("--max-monomer", type=int, default=6)
    p.add_argument("--max-dimer", type=int, default=3)
    p.add_argument("--method", choices=("jacobi", "gauss-seidel", "power"),
                   default="jacobi")
    p.add_argument("--format", choices=FORMATS[1:], default="warped-ell",
                   help="device format profiled by the kernel models")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iterations", type=int, default=200_000)
    p.add_argument("--damping", type=float, default=DEFAULT_DAMPING)
    p.add_argument("--trace-every", type=int, default=25,
                   help="emit a solver-iteration span every N iterations")
    p.add_argument("--serve-sample", type=int, default=1, metavar="N",
                   help="also serve N jobs through SolveService on the "
                        "same registry so metrics.prom carries the "
                        "solve_latency_seconds histogram (0 disables)")
    p.add_argument("--out", default="profile-out",
                   help="directory for trace.json and metrics.prom")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("experiments", help="run the table/figure harness")
    p.add_argument("--scale", choices=("tiny", "small", "bench"),
                   default="small")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_experiments)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    if args.backend is not None:
        from repro import backends
        from repro.errors import BackendError
        try:
            backends.set_default(args.backend)
        except BackendError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
