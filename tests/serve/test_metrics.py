"""Tests for service metrics accounting and rendering."""

import zlib

import pytest

from repro.serve import ServiceMetrics
from repro.serve.cache import CacheStats
from repro.telemetry.metrics import percentile


class TestPercentile:
    def test_empty_and_single(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([7.0], 0.99) == 7.0

    def test_interpolation(self):
        values = [0.0, 1.0, 2.0, 3.0]
        assert percentile(values, 0.5) == pytest.approx(1.5)
        assert percentile(values, 0.0) == 0.0
        assert percentile(values, 1.0) == 3.0


class TestCounters:
    def test_incr_and_snapshot(self):
        m = ServiceMetrics()
        m.incr("submitted")
        m.incr("submitted")
        m.incr("cache_hits")
        snap = m.snapshot()
        assert snap["submitted"] == 2
        assert snap["cache_hits"] == 1
        assert snap["failed"] == 0

    def test_unknown_counter_rejected(self):
        with pytest.raises(KeyError):
            ServiceMetrics().incr("made_up")

    def test_latency_percentiles(self):
        m = ServiceMetrics()
        for v in (0.1, 0.2, 0.3, 0.4):
            m.observe_solve_latency(v)
        snap = m.snapshot()
        assert snap["solve_latency_count"] == 4
        # Cumulative-bucket interpolation: the 2nd sample closes the
        # (0.1, 0.25] bucket; the 99th percentile sits 98% into the
        # (0.25, 0.5] bucket holding the last two samples.
        assert snap["solve_latency_p50_s"] == pytest.approx(0.25)
        assert snap["solve_latency_p99_s"] == pytest.approx(0.495)

    def test_tenant_counters_do_not_alias(self):
        # "a-b", "a_b" and "a.b" all sanitize to "a_b" for the metric
        # name; each must still count on its own.  The last id needs
        # no sanitizing but spells the suffixed name "a-b" gets.
        spoof = f"a_b_{zlib.crc32(b'a-b'):08x}"
        m = ServiceMetrics()
        for tenant, n in (("a-b", 1), ("a_b", 1), ("a.b", 5), (spoof, 3)):
            m.incr_tenant(tenant, "completed", n)
        snap = m.tenant_snapshot()
        assert {t: c["completed"] for t, c in snap.items()} \
            == {"a-b": 1, "a_b": 1, "a.b": 5, spoof: 3}
        lines = [ln for ln in m.render_prometheus().splitlines()
                 if ln.startswith("serve_tenant_")]
        assert len(lines) == 4
        assert "serve_tenant_a_b_completed_total 1" in lines

    def test_warm_audit_accumulates(self):
        m = ServiceMetrics()
        m.record_warm_audit(cold_iterations=500, warm_iterations=400)
        m.record_warm_audit(cold_iterations=300, warm_iterations=350)
        snap = m.snapshot()
        assert snap["warm_start_audits"] == 2
        assert snap["warm_start_iterations_saved"] == 50

    def test_queue_depth_gauge(self):
        m = ServiceMetrics()
        assert m.snapshot()["queue_depth"] == 0
        m.bind_queue_depth(lambda: 7)
        assert m.snapshot()["queue_depth"] == 7


class TestRendering:
    def test_render_lists_every_counter(self):
        m = ServiceMetrics()
        m.incr("completed", 3)
        text = m.render(cache_stats=CacheStats(hits=3, misses=1),
                        title="test metrics")
        assert "test metrics" in text
        assert "completed" in text
        assert "cache_hit_rate" in text
        assert "0.75" in text

    def test_snapshot_merges_cache_stats(self):
        snap = ServiceMetrics().snapshot(
            cache_stats=CacheStats(hits=1, misses=3, evictions=2))
        assert snap["cache_lookup_hits"] == 1
        assert snap["cache_hit_rate"] == 0.25
        assert snap["cache_evictions"] == 2
