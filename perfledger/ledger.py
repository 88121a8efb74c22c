"""Layered performance ledger for the CME steady-state solver.

Runs the four workloads declared in ``BENCHMARK.json`` (solve-phage,
fsp-phage, sweep-toggle, serve-mix) and reports their end-to-end
metrics with tracing off, or — with ``--trace 1`` — the per-layer
metrics of a separate traced pass.  Every output is checked for
correctness; a failed check counts the op as failed.  Every
end-to-end time (and rate) is scaled to a nominal host speed by a
reference loop timed on both sides of it (see
:class:`harness.HostSpeed`), and a run reports the median over its
repeats.

Usage, from the checkout root::

    # one run of one workload (the last stdout line is a JSON result)
    python3 perfledger/ledger.py --workload solve-phage --seed 0 \\
        --seconds 20 --trace 0

    # every workload, 3 untraced runs and 1 traced, each in a fresh
    # process; writes perfledger/results/BENCH_11.json
    python3 perfledger/ledger.py [--quick] [--workload NAME] [--out PATH]

    # one row per workload x end-to-end metric; exits 1 on a regression
    python3 perfledger/ledger.py --compare OLD.json NEW.json
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import subprocess
import sys
import time
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
SPEC_PATH = harness.ROOT / "BENCHMARK.json"
RESULTS_DIR = HERE / "results"
DEFAULT_OUT = RESULTS_DIR / "BENCH_11.json"

DEFAULT_SECONDS = 20
QUICK_SECONDS = 2
#: Timed ops (closed loops) or cycles (serve-mix) per run, at least;
#: more while time remains.
MIN_OPS = 5
#: Open-loop windows offered untraced, and again traced, in the traced
#: pass (~100 jobs each).
TRACED_WINDOWS = 10
#: Fresh-process set-ups per run (setup_s is their median).
SETUP_REPEATS = 5
#: Untraced runs per workload in a full ledger run.
RUNS = 3
#: Per-layer units whose values must repeat exactly for one seed.
EXACT_UNITS = ("count", "B")
#: Child-process wait limits, seconds.
SETUP_TIMEOUT_S = 120
CHILD_TIMEOUT_S = 600


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def peak_rss_mb() -> float:
    """Peak resident set of this process image.  ``VmHWM`` resets at
    exec; ``ru_maxrss`` (the fallback) keeps the high-water mark of the
    process that forked us, e.g. whatever launched the benchmark."""
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def value(v: float, **extra) -> dict:
    return {"value": v, **extra}


def stat(values) -> dict:
    s = harness.summary(values)
    return value(s["median"], iqr=s["iqr"], q1=s["q1"], q3=s["q3"],
                 n=s["n"])


# -- set-up ------------------------------------------------------------------


def measure_setup(name: str, seed: int, repeats: int,
                  host: harness.HostSpeed) -> list[float]:
    """Seconds from starting a fresh interpreter until the workload is
    ready for its first op: imports, backend load, model construction
    and service start-up (the JIT is already compiled).  Each is scaled
    by *host*, sampled before the start and after the probe exits."""
    out = []
    for _ in range(repeats):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--setup-probe", name, "--seed", str(seed)]
        before = host.sample()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.wait(timeout=SETUP_TIMEOUT_S)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {name} failed "
                               f"(exit {proc.returncode})")
        out.append(host.scale(dt, before))
    return out


def setup_probe(name: str, seed: int) -> int:
    import workloads

    w = workloads.WORKLOADS[name](seed)
    print("ready", flush=True)
    w.close()
    return 0


# -- untraced runs (end-to-end metrics) ---------------------------------------


def closed_loop(w, seconds: float, min_ops: int) -> dict:
    """Warm up, then run ops back to back until they have taken
    *seconds* in all (at least *min_ops* of them).  Each output is
    checked as soon as its op returns, outside the timing, and then
    dropped: outputs kept to the end would make the peak RSS grow with
    the number of ops, i.e. with the host's speed."""
    w.warmup()
    host = harness.HostSpeed()
    times, scaled, problems = [], [], []
    attempted = 0
    while attempted < min_ops or sum(times) < seconds:
        inp = w.next_input()
        attempted += 1
        try:
            dt, dt_scaled, out = host.timed(w.op, inp)
        except Exception as exc:  # a failed op is counted, not fatal
            problems.append(f"op raised {type(exc).__name__}: {exc}")
            if attempted >= min_ops and not times:
                break
            continue
        times.append(dt)
        scaled.append(dt_scaled)
        problem = w.check(inp, out)
        if problem:
            problems.append(problem)
    rss = peak_rss_mb()
    if not times:
        raise RuntimeError(f"{w.name}: every op failed: {problems[:3]}")
    return {
        "attempted": attempted,
        "problems": problems,
        "load_shape": f"closed loop, 1 caller, 1 warm-up + {len(times)} "
                      "timed ops",
        "end_to_end": {
            "time_to_solution_s": stat(scaled),
            "solutions_per_s": stat([w.conditions_per_op / t
                                     for t in scaled]),
            "peak_rss_mb": value(rss),
        },
        "latency_s": {f"p{q}": harness.percentile(times, q / 100)
                      for q in (50, 90, 99)},
        "host_speed": host.record(),
        "samples": {"op_s": times, "op_scaled_s": scaled},
    }


def serve_run(w, seconds: float, min_cycles: int) -> dict:
    """Cycles of one open-loop window and two closed bursts until the
    cycles have taken *seconds* in all.  Each cycle's jobs are checked
    after it, outside the timing, and then dropped."""
    import workloads

    w.warmup()
    host = harness.HostSpeed()
    solved, lat, rates, problems = [], [], [], []
    attempted, cycles, busy = 0, 0, 0.0
    burst_jobs, burst_s = 0, 0.0
    while cycles < min_cycles or busy < seconds:
        dt, dt_scaled, (window, bursts) = host.timed(w.cycle)
        cycles += 1
        busy += dt
        # How much slower than nominal the host ran this cycle.
        slow = dt / dt_scaled
        # Half the mix repeats a cached request.  Cache hits (< 1 ms)
        # and solves (several ms) form two modes, and the median over
        # all jobs falls in the gap between them, where it jumps run to
        # run; the median over the jobs the service solved does not.
        solved += [r.latency / slow for r in window
                   if r.answer is None or not r.answer.cached]
        lat += [r.latency for r in window]
        for _, done, secs in bursts:
            burst_jobs += done
            burst_s += secs / slow
            rates.append(done / secs * slow)
        records = window + [r for recs, _, _ in bursts for r in recs]
        attempted += len(records)
        problems += [p for p in map(w.check, records) if p]
    rss = peak_rss_mb()
    return {
        "attempted": attempted,
        "problems": problems,
        "load_shape": f"{cycles} cycles of an open-loop Poisson window "
                      f"({workloads.OPEN_LOOP_RATE:g} jobs/s for "
                      f"{workloads.WINDOW_S:g} s, the same arrivals each "
                      f"cycle; {len(lat)} jobs in all), each followed by "
                      f"{workloads.BURSTS_PER_CYCLE} closed bursts of "
                      f"{workloads.BURST_JOBS} jobs submitted at once",
        "end_to_end": {
            "time_to_solution_s": stat(solved),
            # Completed burst jobs over the bursts' summed time, as if
            # one long burst: one slow job weighs in by its share of the
            # total time, not as a whole burst's rate.
            "solutions_per_s": value(burst_jobs / burst_s, n=len(rates)),
            "peak_rss_mb": value(rss),
        },
        "latency_s": {f"p{q}": harness.percentile(lat, q / 100)
                      for q in (50, 90, 99)},
        "host_speed": host.record(),
        "samples": {"burst_jobs_per_s_scaled": rates},
    }


# -- traced runs (per-layer metrics) -------------------------------------------


def closed_loop_traced(w, probe, ops: int, repeats: int) -> list:
    """Alternate untraced and traced ops (*ops* of each, fixed so every
    count repeats exactly); returns ``(input, output)`` pairs to check."""
    w.warmup()
    kept, untraced, traced, covered = [], [], [], []
    for _ in range(ops):
        inp = w.next_input()
        dt, out = harness.timed(w.op, inp)
        untraced.append(dt)
        kept.append((inp, out))
        inp = w.next_input()
        dt, out = harness.timed(w.traced_op, inp, probe)
        traced.append(dt)
        covered.append(sum(probe.spans[s][-1] for s in w.layer_spans))
        kept.append((inp, out))
    # Each traced op against the untraced op just before it: the host's
    # drift over the pass cancels within a pair.
    pairs = list(zip(untraced, traced, covered))
    probe.add("telemetry.trace_overhead_pct", harness.summary(
        [100.0 * (t - u) / u for u, t, _ in pairs])["median"])
    probe.add("telemetry.span_coverage_pct", harness.summary(
        [100.0 * c / u for u, _, c in pairs])["median"])
    probe.meta["untraced_op_s"] = harness.summary(untraced)
    probe.meta["traced_op_s"] = harness.summary(traced)
    if w.name == "fsp-phage":
        walls = [w.traced_full_solve(probe) for _ in range(repeats)]
        probe.add("fsp.vs_full_x", harness.summary(
            probe.spans["fsp.solve"])["median"]
            / harness.summary(walls)["median"])
    return kept


def serve_traced(w, probe, seed: int, quick: bool, repeats: int) -> list:
    import layers

    w.warmup()
    # The same windows untraced and traced: their p50s give the
    # tracing overhead.
    plain, traced = [], []
    windows = 2 if quick else TRACED_WINDOWS
    for _ in range(windows):
        plain += w.offer(w.arrivals)
    for _ in range(windows):
        traced += probe.call("serve.open_loop", w.offer, w.arrivals)
    layers.record_serve(probe, traced)
    p50 = harness.percentile([r.latency for r in plain], 0.5)
    probe.add("telemetry.trace_overhead_pct", 100.0 * (
        harness.percentile([r.latency for r in traced], 0.5) - p50) / p50)
    # Share of job latency spent in timed work: the caller's submit()
    # plus the worker's solve (fresh solves only; a cache hit or a
    # coalesced job did no solving of its own).
    done = [r for r in traced if r.error is None]
    work = sum((r.returned - r.submitted)
               + (0.0 if r.answer.cached or r.coalesced
                  else r.answer.solve_seconds) for r in done)
    probe.add("telemetry.span_coverage_pct",
              100.0 * work / sum(r.latency for r in done))
    layers.serve_model_baseline(probe, w, repeats)
    layers.measure_pool(probe, w, 2 if quick else layers.REPEATS)
    layers.measure_thread_capacity(probe, seed,
                                   2 if quick else 4 * layers.REPEATS)
    return plain + traced


def traced_run(w, seed: int, quick: bool, declared: list) -> dict:
    import layers

    probe = layers.Probe()
    caches = harness.cache_sizes()
    ops = 2 if quick else MIN_OPS
    repeats = 1 if quick else 3
    if w.name == "serve-mix":
        records = serve_traced(w, probe, seed, quick, repeats)
        problems = [p for p in map(w.check, records) if p]
        attempted = len(records)
    else:
        baseline_input = w.next_input()
        kept = closed_loop_traced(w, probe, ops, repeats)
        if w.name == "sweep-toggle":
            layers.sweep_serial_baseline(probe, w, baseline_input, repeats)
        problems = [p for p in (w.check(i, o) for i, o in kept) if p]
        attempted = len(kept)
    A = w.primary_system()
    peaks = layers.measure_memory(probe, caches, quick)
    layers.measure_kernels(probe, A, caches, peaks)
    layers.measure_distributed(probe, A, repeats)
    layers.measure_durability(probe, A, repeats)
    per_layer, absent = layers.finalize(probe, w.name, declared)
    trace_path = RESULTS_DIR / f"trace_{w.name}.json"
    layers.write_trace(probe, trace_path)
    return {"attempted": attempted, "problems": problems,
            "per_layer": per_layer, "absent_layers": absent,
            "peaks_gbs": peaks, "probe_meta": probe.meta,
            "trace_file": str(trace_path.relative_to(harness.ROOT))}


# -- one workload run ----------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool,
            quick: bool, pinned: dict) -> dict:
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; expected one of "
                         f"{sorted(workloads.WORKLOADS)}")
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "fingerprint": harness.fingerprint(pinned)}
    # Set-up is probed on both sides of the measurement, so one noisy
    # second on a shared host cannot move every probe.
    before = SETUP_REPEATS // 2 + 1
    setup_host = harness.HostSpeed()
    setup = [] if trace else measure_setup(name, seed, before, setup_host)
    w = workloads.WORKLOADS[name](seed)
    min_ops = 2 if quick else MIN_OPS
    try:
        if trace:
            record.update(traced_run(w, seed, quick,
                                     load_spec()["per_layer"]))
        elif name == "serve-mix":
            record.update(serve_run(w, seconds, min_ops))
        else:
            record.update(closed_loop(w, seconds, min_ops))
    finally:
        w.close()
    if not trace:
        setup += measure_setup(name, seed, SETUP_REPEATS - before,
                               setup_host)
        record["end_to_end"]["setup_s"] = stat(setup)
        record["host_speed"]["setup"] = setup_host.record()
    record["failed"] = len(record["problems"])
    record["failed_frac"] = record["failed"] / record["attempted"]
    return record


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource-tracker process.

    The sharded probe's shared memory starts it; left alone it exits only
    after this process does, so the run would end with a child alive.
    ``_stop`` is private to CPython's multiprocessing (3.8+), hence the
    guard.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def result_line(record: dict, spec: dict) -> dict:
    """The result object: every end-to-end metric (untraced) or every
    per-layer metric (traced), as measured."""
    if record["trace"]:
        metrics = {m["name"]: {"value": record["per_layer"][m["name"]]
                               ["median"], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": record["end_to_end"][m["name"]]
                               ["value"], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for entry in metrics.values():
        if not math.isfinite(entry["value"]):
            entry["value"] = None
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def print_record(record: dict, spec: dict) -> None:
    print(f"[ledger] {record['workload']} seed={record['seed']} "
          f"{'traced' if record['trace'] else 'untraced'}: "
          f"{record['attempted']} attempted, {record['failed']} failed")
    for problem in record["problems"][:5]:
        print(f"[ledger]   failed: {problem}")
    if record["trace"]:
        return
    for m in spec["end_to_end"]:
        e = record["end_to_end"][m["name"]]
        extra = (f" (median of n={e['n']}, IQR {e['iqr']:.4g})"
                 if "iqr" in e else "")
        print(f"[ledger]   {m['name']} = {e['value']:.6g} {m['unit']}{extra}")
    lat = record["latency_s"]
    print(f"[ledger]   latency p50/p90/p99 = {lat['p50']:.4g} / "
          f"{lat['p90']:.4g} / {lat['p99']:.4g} s (as measured, info)")
    ref = record["host_speed"]
    print(f"[ledger]   host reference = {ref['median']:.4g} s "
          f"(nominal {ref['ref_nominal_s']:g} s; times above are scaled "
          f"by nominal / reference)")


# -- every workload, each in fresh processes ----------------------------------


def run_child(name: str, seed: int, seconds: float, trace: bool,
              quick: bool) -> dict:
    detail = harness.BUILD_DIR / "tmp" / f"ledger-{name}-{int(trace)}.json"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           name, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace)), "--detail", str(detail)]
    if quick:
        cmd.append("--quick")
    subprocess.run(cmd, check=True, timeout=CHILD_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    with open(detail, encoding="utf-8") as fh:
        record = json.load(fh)
    detail.unlink()
    return record


def run_all(names: list, seed: int, seconds: float, quick: bool,
            out: Path, pinned: dict) -> int:
    """Every workload untraced RUNS times (seeds ``seed``, ``seed+1``,
    ...; the rounds interleave the workloads, so a slow spell on a
    shared host lands on one run of each at most) and traced once.
    End-to-end values are the median over the runs."""
    import layers

    spec = load_spec()
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    report = {"bench": "BENCH_11", "seed": seed, "seconds": seconds,
              "quick": quick, "fingerprint": harness.fingerprint(pinned),
              "layer_map": layers.LAYER_MAP,
              "layer_paths": layers.LAYER_PATHS, "workloads": {}}
    runs = {name: [] for name in names}
    for r in range(1 if quick else RUNS):
        for name in names:
            runs[name].append(run_child(name, seed + r, seconds, False,
                                        quick))
            print_record(runs[name][-1], spec)
    for name in names:
        traced = run_child(name, seed, seconds, True, quick)
        print_record(traced, spec)
        plain = runs[name]
        attempted = sum(p["attempted"] for p in plain) + traced["attempted"]
        failed = sum(p["failed"] for p in plain) + traced["failed"]
        end_to_end = {}
        for m in spec["end_to_end"]:
            values = [p["end_to_end"][m["name"]]["value"] for p in plain]
            end_to_end[m["name"]] = {**stat(values), "runs": values,
                                     "unit": m["unit"],
                                     "better": m["better"]}
        report["workloads"][name] = {
            "why": why[name],
            "load_shape": plain[0]["load_shape"],
            "seeds": [p["seed"] for p in plain],
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "problems": sum((p["problems"] for p in plain), [])
            + traced["problems"],
            "end_to_end": end_to_end,
            "samples": [p["samples"] for p in plain],
            "per_layer": traced["per_layer"],
            "absent_layers": traced["absent_layers"],
            "triad_peaks_gbs": traced["peaks_gbs"],
            "traced_pass": traced["probe_meta"],
            "trace_file": traced["trace_file"],
            "loadavg_at_start": [p["fingerprint"]["loadavg_at_start"]
                                 for p in plain],
        }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"[ledger] wrote {out}")
    return 0 if all(w["failed"] == 0
                    for w in report["workloads"].values()) else 1


# -- compare -------------------------------------------------------------------


def same_program(old: dict, new: dict) -> bool:
    """Both files measured the same sources at the same seed."""
    def key(report):
        return (report.get("fingerprint", {}).get("source_sha256"),
                report.get("seed"))
    return key(old) == key(new)


def compare(old_path: Path, new_path: Path) -> int:
    """One row per workload x end-to-end metric; exit 1 when a metric
    worsened by more than its bound or ``failed_frac`` rose.

    Counts (units ``count`` and ``B``) must repeat exactly when both
    files measured the same code at the same seed.  Across a code
    change, a count fails only when it moved in its worse direction;
    other moves are listed for information.
    """
    spec = load_spec()
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    old = json.loads(Path(old_path).read_text(encoding="utf-8"))
    new = json.loads(Path(new_path).read_text(encoding="utf-8"))
    exact = same_program(old, new)
    bad, moved = [], []
    print(f"{'workload':<14} {'metric':<20} {'old':>12} {'new':>12} "
          f"{'change':>8} {'bound':>6}  status")
    for w in spec["workloads"]:
        name = w["name"]
        o, n = old["workloads"].get(name), new["workloads"].get(name)
        if o is None or n is None:
            bad.append(f"{name}: missing from "
                       f"{old_path if o is None else new_path}")
            continue
        for m in spec["end_to_end"]:
            ov = o["end_to_end"][m["name"]]["value"]
            nv = n["end_to_end"][m["name"]]["value"]
            change = (nv - ov) / ov
            worse = change if m["better"] == "lower" else -change
            status = "WORSE" if worse > m["bound"] else "ok"
            if status != "ok":
                bad.append(f"{name} {m['name']} worse by {worse:.1%}")
            print(f"{name:<14} {m['name']:<20} {ov:>12.5g} {nv:>12.5g} "
                  f"{change:>+8.1%} {m['bound']:>6.0%}  {status}")
        if n["failed_frac"] > o["failed_frac"]:
            bad.append(f"{name} failed_frac rose {o['failed_frac']:.3g} "
                       f"-> {n['failed_frac']:.3g}")
        for metric, entry in o["per_layer"].items():
            if entry["unit"] not in EXACT_UNITS or metric not in better:
                continue
            ov = entry["median"]
            nv = n["per_layer"].get(metric, {}).get("median")
            if nv == ov:
                continue
            line = f"{name} {metric} count changed {ov} -> {nv}"
            worse = nv is None or (nv > ov if better[metric] == "lower"
                                   else nv < ov)
            (bad if exact or worse else moved).append(line)
    for line in moved:
        print(f"info: {line}")
    for line in bad:
        print(f"FAIL: {line}")
    print("compare: " + ("FAIL" if bad else "ok"))
    return 1 if bad else 0


# -- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measuring time per run (default "
                             f"{DEFAULT_SECONDS}, --quick {QUICK_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one run of --workload: 0 end-to-end "
                             "metrics, 1 per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="short smoke run (fewer ops and repeats)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="results file of a full ledger run")
    parser.add_argument("--detail", type=Path, default=None,
                        help="also write the full record of a --trace run")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("OLD", "NEW"))
    parser.add_argument("--setup-probe", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    try:
        pinned = harness.pin_environment()
    except harness.MissingProgram as exc:
        print(f"[ledger] {exc}", file=sys.stderr)
        return 2
    harness.warm_native()
    if args.setup_probe:
        return setup_probe(args.setup_probe, args.seed)
    seconds = args.seconds or (QUICK_SECONDS if args.quick
                               else DEFAULT_SECONDS)
    spec = load_spec()
    if args.trace is None:
        names = ([args.workload] if args.workload
                 else [w["name"] for w in spec["workloads"]])
        return run_all(names, args.seed, seconds, args.quick, args.out,
                       pinned)
    if not args.workload:
        parser.error("--trace needs --workload")
    record = run_one(args.workload, args.seed, seconds, bool(args.trace),
                     args.quick, pinned)
    stop_resource_tracker()
    if args.detail is not None:
        args.detail.write_text(json.dumps(record, indent=1) + "\n",
                               encoding="utf-8")
    print_record(record, spec)
    print(json.dumps(result_line(record, spec)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
