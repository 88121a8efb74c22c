"""Tests for the fair queue, backpressure and the retrying worker pool."""

import threading
import time

import pytest

from repro.errors import (
    ConvergenceError,
    JobRejectedError,
    JobTimeoutError,
    SolveJobError,
    ValidationError,
)
from repro.serve import (
    FairPriorityQueue,
    JobState,
    SolveJob,
    SolveRequest,
    SolveScheduler,
)


@pytest.fixture
def make_job(tiny_toggle_network):
    counter = iter(range(1, 10_000))

    def _make(priority=0, degA=None):
        overrides = {} if degA is None else {"degA": degA}
        return SolveJob(SolveRequest(tiny_toggle_network, overrides),
                        job_id=next(counter), priority=priority)

    return _make


class TestQueueOrdering:
    def test_priority_then_fifo(self, make_job):
        q = FairPriorityQueue(capacity=10)
        low_a, low_b = make_job(priority=5), make_job(priority=5)
        urgent = make_job(priority=0)
        q.put(low_a)
        q.put(low_b)
        q.put(urgent)
        assert q.get(timeout=0) is urgent
        assert q.get(timeout=0) is low_a, "FIFO within a priority"
        assert q.get(timeout=0) is low_b

    def test_get_timeout_returns_none(self):
        q = FairPriorityQueue(capacity=2)
        assert q.get(timeout=0.01) is None

    def test_capacity_validated(self):
        with pytest.raises(ValidationError):
            FairPriorityQueue(capacity=0)


class TestBackpressure:
    def test_reject_policy_raises_when_full(self, make_job):
        q = FairPriorityQueue(capacity=1)
        q.put(make_job())
        with pytest.raises(JobRejectedError, match="full"):
            q.put(make_job())

    def test_closed_queue_rejects(self, make_job):
        q = FairPriorityQueue(capacity=2)
        q.close()
        with pytest.raises(JobRejectedError, match="closed"):
            q.put(make_job())


class TestSchedulerRetries:
    def test_success_first_try(self, make_job):
        done = []
        sched = SolveScheduler(lambda job: f"ok-{job.id}",
                               workers=2, on_done=lambda j, e: done.append(e))
        try:
            job = make_job()
            sched.submit(job)
            assert job.result(timeout=5.0) == f"ok-{job.id}"
            assert job.attempts == 1
            assert done == [None]
        finally:
            sched.close()

    def test_retryable_error_retried_until_success(self, make_job):
        calls = []
        retries_seen = []

        def flaky(job):
            calls.append(job.id)
            if len(calls) < 3:
                raise JobTimeoutError("too slow")
            return "finally"

        sched = SolveScheduler(
            flaky, workers=1, retries=2,
            on_retry=lambda job, exc: retries_seen.append(type(exc)))
        try:
            job = make_job()
            sched.submit(job)
            assert job.result(timeout=5.0) == "finally"
            assert job.attempts == 3
            assert retries_seen == [JobTimeoutError, JobTimeoutError]
        finally:
            sched.close()

    def test_retry_budget_exhausted(self, make_job):
        def always_slow(job):
            raise JobTimeoutError("too slow")

        sched = SolveScheduler(always_slow, workers=1, retries=1)
        try:
            job = make_job()
            sched.submit(job)
            with pytest.raises(JobTimeoutError, match="too slow") as excinfo:
                job.result(timeout=5.0)
            assert excinfo.value.attempts == 2
            assert job.state is JobState.FAILED
        finally:
            sched.close()

    def test_convergence_error_is_retryable(self, make_job):
        calls = []

        def diverges_once(job):
            calls.append(1)
            if len(calls) == 1:
                raise ConvergenceError("diverged")
            return "recovered"

        sched = SolveScheduler(diverges_once, workers=1, retries=1)
        try:
            job = make_job()
            sched.submit(job)
            assert job.result(timeout=5.0) == "recovered"
        finally:
            sched.close()

    def test_non_retryable_fails_immediately(self, make_job):
        calls = []

        def broken(job):
            calls.append(1)
            raise RuntimeError("bug in execute")

        sched = SolveScheduler(broken, workers=1, retries=5)
        try:
            job = make_job()
            sched.submit(job)
            with pytest.raises(SolveJobError, match="bug in execute") as exc:
                job.result(timeout=5.0)
            assert len(calls) == 1, "no retries for non-retryable errors"
            assert isinstance(exc.value.__cause__, RuntimeError)
        finally:
            sched.close()


class TestShutdown:
    def test_close_cancels_pending(self, make_job):
        release = threading.Event()

        def slow(job):
            release.wait(5.0)
            return "done"

        sched = SolveScheduler(slow, workers=1,
                               queue=FairPriorityQueue(capacity=10))
        running = make_job()
        sched.submit(running)
        time.sleep(0.1)  # let the worker pick it up
        pending = make_job(degA=1.5)
        sched.submit(pending)
        release.set()
        sched.close()
        assert pending.state in (JobState.CANCELLED, JobState.DONE)

    def test_workers_validated(self):
        with pytest.raises(ValidationError):
            SolveScheduler(lambda job: None, workers=0)
        with pytest.raises(ValidationError):
            SolveScheduler(lambda job: None, retries=-1)
