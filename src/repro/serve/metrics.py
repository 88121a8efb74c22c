"""Service observability — a façade over :mod:`repro.telemetry`.

:class:`ServiceMetrics` records every update in a
:class:`repro.telemetry.metrics.MetricsRegistry`: counters become
``serve_<name>_total``, end-to-end job latency (submit to terminal)
the one ``solve_latency_seconds`` histogram, queue depth a bound
gauge, and the per-stage timings (queue wait / solve / cache) the
``serve_stage_<stage>_seconds`` histograms.  Pass a shared registry to
co-locate service metrics with solver/gpusim telemetry in one
Prometheus exposition (:meth:`ServiceMetrics.render_prometheus`);
by default each service gets its own registry so instances stay
independent.
"""

from __future__ import annotations

import re
import threading
import zlib

from repro.telemetry.metrics import DEFAULT_BUCKETS, MetricsRegistry
from repro.utils.tables import Table

__all__ = ["COUNTER_NAMES", "SOLVE_LATENCY_BUCKETS", "STAGE_NAMES",
           "ServiceMetrics"]

#: The ``_<crc32>`` suffix :meth:`ServiceMetrics.incr_tenant` appends.
_CRC_SUFFIX = re.compile(r"_[0-9a-f]{8}$")

#: Fixed bucket bounds of the ``solve_latency_seconds`` histogram
#: (end-to-end submit→terminal).  Finer than :data:`DEFAULT_BUCKETS`
#: in the serving sweet spot (1 ms – 1 s) so bucket-derived p50/p99
#: stay meaningful for interactive workloads; Prometheus-compatible
#: (cumulative ``le`` buckets, implicit ``+Inf``).
SOLVE_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

COUNTER_NAMES = (
    "submitted",        # jobs admitted (including coalesced + cache hits)
    "cache_hits",       # served directly from the cache at submit time
    "coalesced",        # deduplicated onto an in-flight job (single-flight)
    "scheduled",        # actually enqueued for a worker
    "completed",        # solved by a worker
    "failed",           # terminal failures after the retry budget
    "rejected",         # backpressure rejections
    "retried",          # retry attempts consumed
    "warm_started",     # solves seeded from a neighbor
    "cold_started",     # solves from the uniform vector
    "breaker_open",     # attempts shed by the open circuit breaker
    "deadline_expired", # jobs whose propagated deadline lapsed pre/mid-solve
    "worker_faults",    # injected worker kills/stalls observed
    "cache_faults",     # injected cache misses observed
    "journal_replayed", # accepted-but-unfinished jobs replayed on restart
    "pool_respawns",    # dead pool worker processes replaced
)

#: Pipeline stages timed per job (see :class:`SolveService`).
STAGE_NAMES = ("queue", "solve", "cache")


class ServiceMetrics:
    """Thread-safe counters, gauges and histograms for a solve service.

    Parameters
    ----------
    registry:
        The :class:`MetricsRegistry` to register instruments in; a
        fresh private registry by default.  Sharing one registry across
        services (or with solver/gpusim telemetry) merges everything
        into a single exposition.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self._counters = {
            name: self.registry.counter(f"serve_{name}_total",
                                        f"serve jobs {name}")
            for name in COUNTER_NAMES
        }
        # Deliberately unprefixed: services sharing one registry (one
        # service per model behind one pool) aggregate into a single
        # end-to-end latency distribution, which is what a load test
        # and an operator dashboard both want.
        self._solve_latency = self.registry.histogram(
            "solve_latency_seconds",
            "end-to-end job latency from submission to terminal state",
            buckets=SOLVE_LATENCY_BUCKETS)
        self._tenant_lock = threading.Lock()
        self._tenant_counters: dict[tuple[str, str], object] = {}
        self._stages = {
            stage: self.registry.histogram(
                f"serve_stage_{stage}_seconds",
                f"time spent in the {stage} stage",
                buckets=DEFAULT_BUCKETS)
            for stage in STAGE_NAMES
        }
        self._queue_depth = self.registry.gauge(
            "serve_queue_depth", "jobs waiting for a worker")
        self._warm_audits = self.registry.counter(
            "serve_warm_start_audits_total",
            "measured warm-vs-cold comparisons")
        self._warm_saved = self.registry.gauge(
            "serve_warm_start_iterations_saved",
            "net iterations saved by warm starting (audited sample)")

    # -- updates ------------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        """Increment one of :data:`COUNTER_NAMES` (KeyError otherwise)."""
        self._counters[name].inc(amount)

    def observe_solve_latency(self, seconds: float) -> None:
        """Record one end-to-end (submit → terminal) job latency."""
        self._solve_latency.observe(seconds)

    def incr_tenant(self, tenant: str, name: str, amount: int = 1) -> None:
        """Increment a per-tenant counter (created lazily).

        Counters register as
        ``serve_tenant_<sanitized tenant>_<name>_total``; tenant
        ids are sanitized to ``[A-Za-z0-9_]`` for the metric name but
        the snapshot keys keep the original id.  When sanitizing
        changes an id, or the id already ends in ``_`` and 8 hex
        digits, the CRC32 of the raw id is appended, so ids that
        sanitize alike (``a-b``, ``a.b``, ``a_b``) still count
        separately and no raw id can spell another's suffixed name.
        """
        key = (str(tenant), str(name))
        counter = self._tenant_counters.get(key)
        if counter is None:
            with self._tenant_lock:
                counter = self._tenant_counters.get(key)
                if counter is None:
                    safe = re.sub(r"[^A-Za-z0-9_]", "_", key[0])
                    if (safe != key[0] or not safe
                            or _CRC_SUFFIX.search(safe)):
                        crc = zlib.crc32(key[0].encode("utf-8"))
                        safe = f"{safe}_{crc:08x}"
                    counter = self.registry.counter(
                        f"serve_tenant_{safe}_{key[1]}_total",
                        f"serve jobs {key[1]} for tenant {key[0]}")
                    self._tenant_counters[key] = counter
        counter.inc(amount)

    def tenant_snapshot(self) -> dict:
        """``{tenant: {counter: value}}`` for every tenant seen so far."""
        with self._tenant_lock:
            items = list(self._tenant_counters.items())
        out: dict[str, dict[str, int]] = {}
        for (tenant, name), counter in items:
            out.setdefault(tenant, {})[name] = counter.value
        return out

    def observe_stage(self, stage: str, seconds: float) -> None:
        """Record one *stage* duration (a key of :data:`STAGE_NAMES`)."""
        self._stages[stage].observe(seconds)

    def record_warm_audit(self, *, cold_iterations: int,
                          warm_iterations: int) -> None:
        """Record one measured warm-vs-cold comparison (may be negative)."""
        self._warm_audits.inc()
        self._warm_saved.inc(cold_iterations - warm_iterations)

    def bind_queue_depth(self, fn) -> None:
        """Attach a live queue-depth gauge (called at snapshot time)."""
        self._queue_depth.set_function(fn)

    # -- reads --------------------------------------------------------------

    def snapshot(self, *, cache_stats=None, breaker=None,
                 journal=None) -> dict:
        """A point-in-time dict of every counter, gauge and percentile.

        ``breaker`` merges a :meth:`CircuitBreaker.snapshot` dict as
        ``breaker_state`` / ``breaker_failures`` / ``breaker_opened``;
        ``journal`` merges a :class:`repro.durability.JobJournal`'s
        append/corruption counters.
        """
        out = {name: c.value for name, c in self._counters.items()}
        out["warm_start_audits"] = self._warm_audits.value
        out["warm_start_iterations_saved"] = self._warm_saved.value
        out["queue_depth"] = self._queue_depth.value
        # End-to-end percentiles derived from the fixed cumulative
        # buckets (not the bounded sample window), exactly as a
        # Prometheus histogram_quantile() over the exposition would
        # compute them.
        out["solve_latency_count"] = self._solve_latency.count
        out["solve_latency_p50_s"] = self._solve_latency.bucket_quantile(0.50)
        out["solve_latency_p99_s"] = self._solve_latency.bucket_quantile(0.99)
        for stage, hist in self._stages.items():
            out[f"stage_{stage}_p50_s"] = hist.quantile(0.50)
            out[f"stage_{stage}_count"] = hist.count
        if cache_stats is not None:
            out["cache_lookup_hits"] = cache_stats.hits
            out["cache_lookup_misses"] = cache_stats.misses
            out["cache_evictions"] = cache_stats.evictions
            out["cache_disk_hits"] = cache_stats.disk_hits
            out["cache_disk_corrupt"] = cache_stats.disk_corrupt
            out["cache_hit_rate"] = round(cache_stats.hit_rate, 4)
        if breaker is not None:
            out["breaker_state"] = breaker.get("state")
            out["breaker_failures"] = breaker.get("failures", 0)
            out["breaker_opened"] = breaker.get("opened_count", 0)
        if journal is not None:
            out["journal_appended"] = journal.appended
            out["journal_corrupt_skipped"] = journal.corrupt_skipped
        return out

    def render(self, *, cache_stats=None, breaker=None, journal=None,
               title: str = "serve metrics") -> str:
        """The snapshot as a printable two-column table."""
        snap = self.snapshot(cache_stats=cache_stats, breaker=breaker,
                             journal=journal)
        table = Table(["metric", "value"], title=title)
        for name in COUNTER_NAMES:
            table.add_row([name, snap[name]])
        table.add_row(["queue_depth", snap["queue_depth"]])
        table.add_row(["warm_start_iterations_saved",
                       snap["warm_start_iterations_saved"]])
        for name in ("solve_latency_p50_s", "solve_latency_p99_s"):
            table.add_row([name, f"{snap[name]:.4f}"])
        for stage in STAGE_NAMES:
            table.add_row([f"stage_{stage}_p50_s",
                           f"{snap[f'stage_{stage}_p50_s']:.4f}"])
        if cache_stats is not None:
            table.add_row(["cache_hit_rate", snap["cache_hit_rate"]])
            table.add_row(["cache_evictions", snap["cache_evictions"]])
            table.add_row(["cache_disk_corrupt",
                           snap["cache_disk_corrupt"]])
        if breaker is not None:
            table.add_row(["breaker_state", snap["breaker_state"]])
            table.add_row(["breaker_opened", snap["breaker_opened"]])
        if journal is not None:
            table.add_row(["journal_appended", snap["journal_appended"]])
            table.add_row(["journal_corrupt_skipped",
                           snap["journal_corrupt_skipped"]])
        return table.render()

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the backing registry."""
        return self.registry.render_prometheus()
