"""The service's multi-tenant fair queue.

:class:`FairPriorityQueue` is the service's bounded queue, running
deficit round robin (DRR) across per-tenant priority heaps.  Jobs have
unit cost (one solve), so DRR reduces to weighted round robin with
per-tenant credit counters: each scheduling round a tenant may be
served up to ``weight`` jobs, and the round replenishes only when
every backlogged tenant has exhausted its credit.  A tenant with
weight ``w`` therefore gets at least ``w / sum(weights of backlogged
tenants)`` of the service no matter how much load its neighbors offer
— the starvation bound the fairness tests assert.

Within a tenant, ordering is lowest ``priority`` first, FIFO within a
priority, so single-tenant traffic is a plain priority queue.  The
queue is the service's backpressure point: it holds at most
``capacity`` pending jobs across all tenants, and
:meth:`FairPriorityQueue.put` on a full queue raises
:class:`~repro.errors.JobRejectedError` at once (load shedding; the
caller sees the failure and can back off).
"""

from __future__ import annotations

import heapq
import threading
import time
from typing import Mapping

from repro.errors import JobRejectedError, ValidationError
from repro.serve.jobs import JobState, SolveJob, _QueueItem

__all__ = ["FairPriorityQueue"]


class _TenantLane:
    """One tenant's backlog: a priority heap plus its DRR credit.

    A lane starts with no credit: it gets its quantum at the next
    round's re-credit, like every other backlogged lane.
    """

    __slots__ = ("heap", "credit")

    def __init__(self) -> None:
        self.heap: list[_QueueItem] = []
        self.credit = 0


class FairPriorityQueue:
    """A bounded queue serving tenants by deficit round robin.

    The scheduler's queue (``put`` / ``get`` / ``drain_matching`` /
    ``close`` / ``len``).  Jobs are routed to per-tenant heaps by
    ``job.tenant``; ``get`` serves lanes in round-robin order, up to
    ``weight`` jobs per lane per round (see module docstring).  Only
    backlogged tenants hold a lane: a lane is dropped when its heap
    empties, so the per-serve scan grows with the tenants that have
    work queued, not with every tenant id ever submitted.

    ``weights`` maps tenant ids to integer weights ``>= 1``; unlisted
    tenants get weight 1.  Batch draining (:meth:`drain_matching`)
    charges no credit: the companions are answered by the primary's
    single solve, which already consumed one serve from its tenant's
    quantum.
    """

    def __init__(self, capacity: int = 1024, *,
                 weights: Mapping[str, int] | None = None):
        if capacity <= 0:
            raise ValidationError(
                f"queue capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.weights = {str(t): int(w) for t, w in dict(weights or {}).items()}
        for tenant, w in self.weights.items():
            if w < 1:
                raise ValidationError(
                    f"tenant weight for {tenant!r} must be >= 1, got {w}")
        # Backlogged tenants only; _order is their round-robin order.
        self._lanes: dict[str, _TenantLane] = {}
        self._order: list[str] = []
        self._cursor = 0
        self._size = 0
        self._seq = 0
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    def _weight(self, tenant: str) -> int:
        return self.weights.get(tenant, 1)

    def __len__(self) -> int:
        with self._lock:
            return self._size

    # -- producer side -------------------------------------------------------

    def put(self, job: SolveJob) -> None:
        """Enqueue *job* in its tenant's lane; global backpressure."""
        tenant = str(getattr(job, "tenant", "default") or "default")
        with self._lock:
            if self._closed:
                raise JobRejectedError("queue is closed", key=job.key)
            if self._size >= self.capacity:
                raise JobRejectedError(
                    f"queue full ({self.capacity} pending jobs)",
                    key=job.key)
            lane = self._lanes.get(tenant)
            if lane is None:
                lane = _TenantLane()
                self._lanes[tenant] = lane
                self._order.append(tenant)
            self._seq += 1
            heapq.heappush(lane.heap,
                           _QueueItem(job.priority, self._seq, job))
            self._size += 1
            self._not_empty.notify()

    # -- consumer side -------------------------------------------------------

    def _drop_lane(self, i: int) -> None:
        """Forget the emptied lane in round-robin slot *i* (under lock).

        DRR resets an idle flow's credit anyway; a tenant that queues
        again gets a fresh lane, with no credit, at the end of the
        round order.
        """
        del self._lanes[self._order.pop(i)]
        if i < self._cursor:
            self._cursor -= 1
        if self._cursor >= len(self._order):
            self._cursor = 0

    def _pop_locked(self) -> SolveJob | None:
        """One DRR serve: next backlogged lane with credit, under lock."""
        while self._size:
            n = len(self._order)
            for step in range(n):
                i = (self._cursor + step) % n
                lane = self._lanes[self._order[i]]
                if lane.credit <= 0:
                    continue
                lane.credit -= 1
                item = heapq.heappop(lane.heap)
                self._size -= 1
                # Serve a lane's whole quantum contiguously (DRR), then
                # move on; an exhausted or drained lane yields the turn.
                if not lane.heap:
                    self._cursor = i
                    self._drop_lane(i)
                else:
                    self._cursor = i if lane.credit > 0 else (i + 1) % n
                return item.job
            # Every backlogged lane is out of credit: a new DRR round.
            for tenant, lane in self._lanes.items():
                lane.credit = self._weight(tenant)
        return None

    def get(self, timeout: float | None = None) -> SolveJob | None:
        """Pop per DRR order; ``None`` on timeout or closed-and-empty."""
        with self._lock:
            deadline = (None if timeout is None
                        else time.monotonic() + timeout)
            while not self._size:
                if self._closed:
                    return None
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return None
                self._not_empty.wait(remaining)
            return self._pop_locked()

    def drain_matching(self, predicate, limit: int) -> list[SolveJob]:
        """Atomically remove up to *limit* queued jobs passing *predicate*.

        Lanes are scanned in the current round-robin order, each in
        its own priority/FIFO order, so batching respects the order a
        worker would have served.  No DRR credit is charged — the
        drained companions ride the primary's single solve.
        """
        matched: list[SolveJob] = []
        if limit <= 0:
            return matched
        with self._lock:
            if not self._size:
                return matched
            n = len(self._order)
            emptied: list[int] = []
            for step in range(n):
                if len(matched) >= limit:
                    break
                i = (self._cursor + step) % n
                lane = self._lanes[self._order[i]]
                kept: list[_QueueItem] = []
                while lane.heap and len(matched) < limit:
                    item = heapq.heappop(lane.heap)
                    if (item.job.state is JobState.PENDING
                            and predicate(item.job)):
                        matched.append(item.job)
                    else:
                        kept.append(item)
                for item in kept:
                    heapq.heappush(lane.heap, item)
                if not lane.heap:
                    emptied.append(i)
            for i in sorted(emptied, reverse=True):
                self._drop_lane(i)
            self._size -= len(matched)
        return matched

    def close(self) -> None:
        """Stop accepting jobs and wake all waiters."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
