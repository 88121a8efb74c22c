"""The worker pool: queue draining, timeouts and retries.

Workers pull jobs from the service's bounded
:class:`~repro.serve.fairness.FairPriorityQueue` (lowest ``priority``
first, FIFO within a priority, tenants served by deficit round robin;
a full queue rejects, see there) and run each through the
service's execute callable.  A *retryable* failure —
per-attempt timeout or a convergence failure — is re-attempted in place
up to the retry budget; the final failure surfaces to the job as a
:class:`~repro.errors.SolveJobError` with the original error chained.
"""

from __future__ import annotations

import threading
import time

from repro.errors import (
    ConvergenceError,
    JobTimeoutError,
    KernelLaunchError,
    SolveJobError,
    ValidationError,
    WorkerCrashError,
)
from repro.serve.fairness import FairPriorityQueue
from repro.serve.jobs import JobState, SolveJob

#: Errors worth a second attempt; anything else fails the job at once.
#: Timeouts and convergence failures may clear with a warm(er) start;
#: worker crashes and kernel-launch failures are properties of the
#: *attempt* (the next worker/launch is healthy).  Singular systems,
#: validation errors and open circuit breakers are properties of the
#: job or the service and never retried.
RETRYABLE_ERRORS = (JobTimeoutError, ConvergenceError, WorkerCrashError,
                    KernelLaunchError)


def settle(job: SolveJob, on_done, outcome=None,
           error: SolveJobError | None = None) -> None:
    """End *job*: ``on_done(job, error)`` first, so a caller woken by
    the terminal transition finds the job already counted and
    journaled, then ``finish``/``fail``.  The transition happens even
    when ``on_done`` raises, so a failed journal append never leaves a
    caller waiting."""
    try:
        if on_done is not None:
            on_done(job, error)
    finally:
        if error is None:
            job.finish(outcome)
        else:
            job.fail(error)


class SolveScheduler:
    """A worker pool draining a bounded fair priority queue.

    Parameters
    ----------
    execute:
        ``execute(job) -> SolveOutcome`` — provided by the service; runs
        one attempt and may raise.
    queue:
        The :class:`~repro.serve.fairness.FairPriorityQueue` to drain;
        a default-capacity one when omitted.
    workers:
        Thread count.  With a thread executor these threads *run* the
        solves; with ``SolveService(executor="process")`` they only
        dispatch to the process pool and block on results, so the
        count should match the pool's worker-process count.
    retries:
        Extra attempts after the first, consumed only by
        :data:`RETRYABLE_ERRORS`.
    retry_policy:
        Optional :class:`repro.resilience.backoff.RetryPolicy`; when
        set, the worker sleeps ``retry_policy.delay(attempt)`` before
        each re-attempt (exponential backoff with jitter) instead of
        retrying immediately.  Shutdown interrupts the sleep.
    on_retry, on_done:
        Optional metrics hooks; ``on_done(job, error_or_None)`` fires
        exactly once per job, just before its terminal transition (see
        :func:`settle`).
    """

    def __init__(self, execute, *, workers: int = 1,
                 queue=None,
                 retries: int = 0, retry_policy=None,
                 on_retry=None, on_done=None,
                 name: str = "solve"):
        if workers <= 0:
            raise ValidationError(f"workers must be positive, got {workers}")
        if retries < 0:
            raise ValidationError(f"retries must be >= 0, got {retries}")
        self.execute = execute
        self.queue = queue if queue is not None else FairPriorityQueue()
        self.retries = int(retries)
        self.retry_policy = retry_policy
        self.on_retry = on_retry
        self.on_done = on_done
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._worker_loop, daemon=True,
                             name=f"{name}-worker-{i}")
            for i in range(int(workers))
        ]
        for t in self._threads:
            t.start()

    @property
    def queue_depth(self) -> int:
        return len(self.queue)

    def submit(self, job: SolveJob) -> None:
        """Admit *job* (may raise :class:`JobRejectedError`)."""
        job.submitted_at = time.perf_counter()
        self.queue.put(job)

    def close(self, *, wait: bool = True, timeout: float = 30.0) -> None:
        """Drain-free shutdown: stop workers, cancel whatever remains."""
        self._stop.set()
        self.queue.close()
        if wait:
            for t in self._threads:
                t.join(timeout)
        while True:
            job = self.queue.get(timeout=0)
            if job is None:
                break
            job.cancel()

    # -- worker internals ----------------------------------------------------

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            job = self.queue.get(timeout=0.1)
            if job is None:
                continue
            if job.state is JobState.CANCELLED:
                continue
            self._run_job(job)

    def _run_job(self, job: SolveJob) -> None:
        if not job.mark_running():
            return
        job.started_at = time.perf_counter()
        max_attempts = 1 + self.retries
        error: SolveJobError | None = None
        for attempt in range(1, max_attempts + 1):
            job.attempts = attempt
            try:
                outcome = self.execute(job)
            except RETRYABLE_ERRORS as exc:
                error = self._as_job_error(exc, job)
                if attempt < max_attempts:
                    if self.on_retry is not None:
                        self.on_retry(job, exc)
                    if self.retry_policy is not None:
                        # _stop.wait returns early on shutdown, so a
                        # long backoff never delays close().
                        self._stop.wait(self.retry_policy.delay(attempt))
                continue
            except Exception as exc:  # noqa: BLE001 - worker must survive
                error = self._as_job_error(exc, job)
                break
            job.finished_at = time.perf_counter()
            settle(job, self.on_done, outcome)
            return
        job.finished_at = time.perf_counter()
        assert error is not None
        settle(job, self.on_done, error=error)

    @staticmethod
    def _as_job_error(exc: Exception, job: SolveJob) -> SolveJobError:
        if isinstance(exc, SolveJobError):
            exc.key = exc.key or job.key
            exc.attempts = job.attempts
            return exc
        wrapped = SolveJobError(
            f"job {job.id} failed after {job.attempts} attempt(s): {exc}",
            key=job.key, attempts=job.attempts)
        wrapped.__cause__ = exc
        return wrapped
