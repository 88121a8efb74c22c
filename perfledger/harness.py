"""Measurement harness shared by every ledger workload and layer probe.

What makes two timings comparable lives here and nowhere else:

* :func:`pin_environment` — fixed thread counts, the program's default
  kernel backend, and every file a run writes kept inside the checkout;
* :func:`summary` / :func:`percentile` — median, interquartile range and
  sample count for every timing, nearest-rank percentiles for tails;
* :func:`repeat` — one warm-up call, then timed repeats;
* :class:`HostSpeed` — a reference loop, timed on both sides of every
  end-to-end measurement, that rescales it to a nominal host speed;
* :func:`fingerprint` — the machine and the code a result came from.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

#: Checkout root: the directory holding ``src/`` and ``BENCHMARK.json``.
ROOT = Path(__file__).resolve().parents[1]

#: Everything a run leaves behind (JIT cache, temp files) goes here.
BUILD_DIR = ROOT / ".bench_build"

#: Threads per process for OpenMP, pool workers and shard workers.  The
#: bench host has 2 CPUs and all load comes from one process, so one
#: thread each keeps kernels from competing with the service's workers.
PINNED_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "REPRO_POOL_OMP_THREADS",
               "REPRO_SHARD_OMP_THREADS")


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` to benchmark."""


def pin_environment() -> dict:
    """Pin threads, clear backend overrides, keep writes in the checkout.

    Call before NumPy is imported (OpenMP reads its thread count at
    load).  Child processes inherit the same settings.  Returns the
    pinned values for the fingerprint.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program to benchmark: {src / 'repro'} "
                             "is missing")
    for var in THREAD_VARS:
        os.environ[var] = str(PINNED_THREADS)
    # The program's own default backend is the one measured.
    os.environ.pop("REPRO_BACKEND", None)
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(BUILD_DIR / "repro-native")
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    paths = [str(src)] + [p for p in os.environ.get(
        "PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return {var: PINNED_THREADS for var in THREAD_VARS}


def warm_native() -> tuple[str, ...]:
    """Compile (first run) or load the native kernels before any timing;
    returns the backends available afterwards."""
    from repro import backends
    return backends.available_backends()


# -- statistics --------------------------------------------------------------


def summary(values) -> dict:
    """Median, quartiles, IQR and n of *values* (quartiles as
    :func:`statistics.quantiles` gives them; IQR 0 for one sample)."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("summary of no samples")
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "n": len(vals)}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a
    share *q* of the samples at or below it.  ``inf`` samples (failed
    requests) sort last."""
    vals = sorted(float(v) for v in values)
    if not vals:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    rank = max(1, math.ceil(q * len(vals) - 1e-9))
    return vals[rank - 1]


# -- timing ------------------------------------------------------------------


def timed(fn, *args):
    """``(seconds, result)`` of one call."""
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def repeat(fn, *, repeats: int = 5, warmup: int = 1,
           min_seconds: float = 0.0) -> list[float]:
    """Per-call seconds of *repeats* timed calls after *warmup* calls.

    Calls shorter than *min_seconds* are timed in batches (the batch
    size is fixed by the warm-up call) and divided, so microsecond
    kernels are not lost in clock overhead.
    """
    batch = 1
    for _ in range(warmup):
        dt, _ = timed(fn)
        if min_seconds > 0.0 and dt > 0.0:
            batch = max(1, int(min_seconds / dt))
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        out.append((time.perf_counter() - t0) / batch)
    return out


# -- host speed ----------------------------------------------------------------

#: Seconds of one :class:`HostSpeed` reference call on a quiet 2-vCPU
#: Xeon VM.  Scaled timings are seconds on a host that runs the
#: reference this fast.
REF_NOMINAL_S = 0.0125


class HostSpeed:
    """How fast the host runs right now, from a fixed reference loop.

    On a shared 2-vCPU VM, neighbours slow every instruction by up to
    40% for seconds to minutes at a time: CPU time tracks wall time, so
    nothing can be timed away, and spells outlast a run.  A reference
    loop timed next to the program slows with it: over 8 minutes of
    such drift, 20 s window medians of a SpMV loop spread 26%, their
    ratio to this loop's 3%.

    The loop is the benchmark's own code (SciPy SpMV on a fixed random
    matrix, NumPy vector ops and a pure-Python loop, like a Jacobi
    solve's mix), so no change to the program can move it.
    """

    ROWS = 1 << 14
    NNZ_PER_ROW = 8
    SPMVS = 50
    PY_STEPS = 100_000
    #: Reference calls per :meth:`sample`.
    CALLS = 3

    def __init__(self) -> None:
        import numpy as np
        import scipy.sparse as sp

        rng = np.random.default_rng(0)
        n, k = self.ROWS, self.NNZ_PER_ROW
        self._A = sp.csr_matrix(
            (rng.random(n * k), rng.integers(0, n, n * k),
             np.arange(0, n * k + 1, k)), shape=(n, n))
        self._x = rng.random(n)
        self.samples: list[float] = []
        self._last: list[float] = []

    def _reference(self) -> float:
        y = self._x
        for _ in range(self.SPMVS):
            y = self._A @ y
            y *= 1.0 / y.sum()
        s = 0
        for i in range(self.PY_STEPS):
            s += i * i
        return float(y[0]) + s

    def sample(self) -> list[float]:
        """Time the reference :attr:`CALLS` times (outside any timed
        work); the times are also kept for the run's record."""
        self._last = [timed(self._reference)[0] for _ in range(self.CALLS)]
        self.samples += self._last
        return self._last

    def scale(self, seconds: float, before: list[float]) -> float:
        """*seconds*, timed after the reference samples *before*, in
        units of the median of those and a fresh sample, times
        :data:`REF_NOMINAL_S`."""
        ref = statistics.median(before + self.sample())
        return seconds * REF_NOMINAL_S / ref

    def timed(self, fn, *args):
        """``(seconds, scaled seconds, result)`` of one call, the
        reference sampled just before (the previous call's closing
        sample, when there was one) and just after."""
        before = self._last or self.sample()
        dt, result = timed(fn, *args)
        return dt, self.scale(dt, before), result

    def record(self) -> dict:
        return {"ref_nominal_s": REF_NOMINAL_S, **summary(self.samples)}


# -- machine fingerprint -----------------------------------------------------


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _size_bytes(text: str | None) -> int | None:
    if not text:
        return None
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def cache_sizes() -> dict:
    """L2 and last-level cache sizes in bytes, read from sysfs
    (``None`` where the host does not expose them)."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    levels = {}
    for idx in range(8):
        level = _read(f"{base}/index{idx}/level")
        kind = _read(f"{base}/index{idx}/type")
        if level is None:
            break
        if kind in ("Unified", "Data"):
            levels[int(level)] = _size_bytes(_read(f"{base}/index{idx}/size"))
    return {"l2_bytes": levels.get(2),
            "llc_bytes": levels[max(levels)] if levels else None}


def cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def source_digest() -> str:
    """SHA-256 over the program's sources, so two result files can tell
    whether they measured the same code."""
    src = ROOT / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(pinned: dict) -> dict:
    """Where a result came from: CPU, caches, versions, backend, threads
    and the source digest."""
    import numpy
    import scipy

    from repro import backends

    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        **cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "backend": backends.resolve().name,
        "backends_available": list(backends.available_backends()),
        "pinned_threads": pinned,
        "loadavg_at_start": list(os.getloadavg()),
        "source_sha256": source_digest(),
    }
