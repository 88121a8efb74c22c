"""Multi-tenant fairness: DRR queuing and its service wiring.

The guarantees under test: the fair queue serves backlogged tenants in
proportion to their weights (deterministic DRR order at queue level),
and a tenant offering 10x the load cannot starve a light tenant behind
its backlog (the starvation regression).
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.cme.models import toggle_switch
from repro.errors import JobRejectedError
from repro.serve import SolveService
from repro.serve.fairness import FairPriorityQueue
from repro.serve.jobs import JobState


class FakeJob:
    """The minimal surface FairPriorityQueue touches."""

    def __init__(self, tenant, priority=0, key="k"):
        self.tenant = tenant
        self.priority = priority
        self.key = key
        self.state = JobState.PENDING

    def __repr__(self):
        return f"FakeJob({self.tenant!r}, p={self.priority})"


class TestFairPriorityQueue:
    def test_deterministic_drr_order(self):
        q = FairPriorityQueue(weights={"a": 2, "b": 1})
        for i in range(6):
            q.put(FakeJob("a", key=f"a{i}"))
        for i in range(3):
            q.put(FakeJob("b", key=f"b{i}"))
        served = [q.get(timeout=0).tenant for _ in range(9)]
        # Weight 2:1 -> two a's per b, every round, regardless of the
        # 6-deep a backlog enqueued first.
        assert served == ["a", "a", "b", "a", "a", "b", "a", "a", "b"]

    def test_starved_tenant_regression(self):
        # 100 heavy jobs enqueued before a single light one: the light
        # tenant must be served within one full DRR round (its weight
        # share), not after the heavy backlog drains.
        q = FairPriorityQueue(weights={"heavy": 1, "light": 1})
        for i in range(100):
            q.put(FakeJob("heavy", key=f"h{i}"))
        q.put(FakeJob("light", key="l0"))
        first_two = [q.get(timeout=0).tenant for _ in range(2)]
        assert "light" in first_two

    def test_closed_loop_tenant_cannot_starve_a_backlog(self):
        # The light tenant resubmits only after its job is served, so
        # its lane empties and is recreated every time.  A recreated
        # lane must wait for the next round's credit: one granted a
        # full quantum on creation is served ahead of the spent heavy
        # lane, and the round that would re-credit heavy never starts.
        q = FairPriorityQueue(weights={"heavy": 1, "light": 1})
        for i in range(10):
            q.put(FakeJob("heavy", key=f"h{i}"))
        q.put(FakeJob("light", key="l0"))
        served = []
        for i in range(1, 17):
            job = q.get(timeout=0)
            served.append(job.tenant)
            if job.tenant == "light":
                q.put(FakeJob("light", key=f"l{i}"))
        assert served == ["heavy", "light"] * 8

    def test_priority_and_fifo_within_a_tenant(self):
        q = FairPriorityQueue(weights={"a": 4})
        q.put(FakeJob("a", priority=5, key="late"))
        q.put(FakeJob("a", priority=0, key="urgent"))
        q.put(FakeJob("a", priority=5, key="later"))
        assert [q.get(timeout=0).key for _ in range(3)] \
            == ["urgent", "late", "later"]

    def test_global_capacity_rejects(self):
        q = FairPriorityQueue(capacity=2, weights={"a": 1})
        q.put(FakeJob("a"))
        q.put(FakeJob("b"))
        with pytest.raises(JobRejectedError):
            q.put(FakeJob("c"))

    def test_unknown_tenant_gets_default_weight(self):
        q = FairPriorityQueue(weights={"a": 1})
        q.put(FakeJob("mystery"))
        assert q.get(timeout=0).tenant == "mystery"

    def test_idle_tenants_keep_no_lane(self):
        # Tenant ids come from callers; a lane kept per id ever seen
        # made every serve scan (and re-credit) all of them.
        q = FairPriorityQueue()
        for i in range(1000):
            q.put(FakeJob(f"t{i}"))
            assert q.get(timeout=0).tenant == f"t{i}"
        for tenant in ("drained-1", "drained-2", "live"):
            q.put(FakeJob(tenant))
        q.put(FakeJob("live"))
        assert [q.get(timeout=0).tenant for _ in range(3)] \
            == ["drained-1", "drained-2", "live"]
        assert list(q._lanes) == ["live"]
        assert q._order == ["live"]

    def test_lane_drops_keep_drr_order(self):
        q = FairPriorityQueue()
        for key in ("a0", "b0", "b1", "c0", "c1"):
            q.put(FakeJob(key[0], key=key))
        # Serving a0 empties lane a; b, which moves into its slot, must
        # keep its turn instead of handing it to c.
        served = [q.get(timeout=0).key for _ in range(5)]
        assert served == ["a0", "b0", "c0", "b1", "c1"]
        assert len(q) == 0 and not q._lanes

    def test_concurrent_lane_churn_loses_no_job(self):
        # Lanes appear and vanish under many producers and consumers:
        # every job must come out exactly once, and no lane may
        # outlive its backlog.
        q = FairPriorityQueue(capacity=10_000, weights={"t0": 3})
        jobs = [FakeJob(f"t{i % 7}", priority=i % 3, key=f"k{i}")
                for i in range(1200)]
        out, errors = [], []
        lock, produced = threading.Lock(), threading.Event()

        def produce(chunk):
            for job in chunk:
                q.put(job)

        def consume():
            try:
                while True:
                    job = q.get(timeout=0.01)
                    if job is not None:
                        with lock:
                            out.append(job)
                    elif produced.is_set() and not len(q):
                        return
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        producers = [threading.Thread(target=produce, args=(jobs[i::4],))
                     for i in range(4)]
        consumers = [threading.Thread(target=consume) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in producers + consumers:
                t.start()
            for t in producers:
                t.join(timeout=30.0)
            produced.set()
            for t in consumers:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in producers + consumers)
        assert errors == []
        assert sorted(j.key for j in out) == sorted(j.key for j in jobs)
        assert len(q) == 0 and not q._lanes and not q._order


class TestServiceFairness:
    @pytest.fixture
    def network(self):
        return toggle_switch(max_protein=6)

    def test_ten_to_one_load_cannot_starve_light_tenant(self, network):
        """10:1 offered load: the light tenant's jobs complete within
        its weight share, not behind the heavy backlog."""
        order: list[str] = []
        lock = threading.Lock()

        def record(job):
            with lock:
                order.append(job.tenant)

        with SolveService(network, workers=1, cache=False,
                          tenant_weights={"heavy": 1, "light": 1}) as svc:
            # Occupy the single worker so the backlog queues up intact.
            plug = svc.submit({"degA": 1.93}, tenant="heavy")
            plug.add_done_callback(record)
            heavy = [svc.submit({"degA": 0.4 + 0.01 * i}, tenant="heavy")
                     for i in range(10)]
            light = svc.submit({"degA": 3.7}, tenant="light")
            for job in [*heavy, light]:
                job.add_done_callback(record)
            light.result(timeout=120)
            for job in heavy:
                job.result(timeout=120)
        light_pos = order.index("light")
        # plug + at most one heavy quantum before the light serve.
        assert light_pos <= 2, f"light tenant starved: {order}"
        snap = svc.snapshot()
        assert snap["tenants"]["light"]["completed"] == 1
        assert snap["tenants"]["heavy"]["completed"] == 11

    def test_unweighted_service_alternates_tenants(self, network):
        # Without tenant_weights every tenant queues at weight 1, so
        # two tenants' backlogs alternate instead of draining FIFO.
        with SolveService(network, workers=1, cache=False) as svc:
            svc._scheduler._stop.set()
            for t in svc._scheduler._threads:
                t.join(timeout=5.0)
                assert not t.is_alive()
            for i, tenant in enumerate("aaabbb"):
                svc.submit({"degA": 0.5 + 0.01 * i}, tenant=tenant)
            served = [svc._scheduler.queue.get(timeout=0).tenant
                      for _ in range(6)]
        assert served == ["a", "b", "a", "b", "a", "b"]

    def test_tenant_never_forks_the_cache_key(self, network):
        with SolveService(network, workers=1) as svc:
            a = svc.submit({"degA": 0.5}, tenant="a")
            a.result(timeout=60)
            b = svc.submit({"degA": 0.5}, tenant="b")
            out = b.result(timeout=60)
            assert out.cached  # b got a's answer from the cache
