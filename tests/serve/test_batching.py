"""Service-level batching: compatible queued jobs share one solve.

White-box determinism: the scheduler's workers are stopped first so
submissions pile up in the queue, then ``_execute`` is driven by hand —
the batch composition is then exact, not a race.
"""

import numpy as np
import pytest

from repro import toggle_switch
from repro.serve import SolveService
from repro.serve.jobs import JobState, SolveJob, SolveRequest
from repro.serve.fairness import FairPriorityQueue


@pytest.fixture(scope="module")
def network():
    return toggle_switch(max_protein=5)


#: The tiny toggle is bipartite enough to oscillate under plain Jacobi;
#: damping makes every solve converge in ~100 iterations.
DAMPED = {"damping": 0.8}


def halted_service(network, **kwargs):
    """A service whose workers are stopped: the queue only accumulates."""
    svc = SolveService(network, workers=1, solver_options=DAMPED, **kwargs)
    svc._scheduler._stop.set()
    for t in svc._scheduler._threads:
        t.join(timeout=5.0)
    return svc


def job_for(network, overrides, *, tol=1e-6, job_id=1, **kwargs):
    return SolveJob(SolveRequest(network, overrides, tol=tol, **kwargs),
                    job_id=job_id)


class TestDrainMatching:
    def test_priority_order_and_limit(self, network):
        q = FairPriorityQueue(capacity=16)
        jobs = [job_for(network, {"degA": 1.0 + i / 10}, job_id=i)
                for i in range(5)]
        for j in jobs:
            q.put(j)
        got = q.drain_matching(lambda j: j.id != 1, limit=2)
        assert [j.id for j in got] == [0, 2]      # FIFO, skipping id 1
        assert len(q) == 3                        # non-matches kept

    def test_zero_limit(self, network):
        q = FairPriorityQueue()
        q.put(job_for(network, {"degA": 1.0}))
        assert q.drain_matching(lambda j: True, limit=0) == []
        assert len(q) == 1

    def test_skips_cancelled(self, network):
        q = FairPriorityQueue()
        j = job_for(network, {"degA": 1.0})
        q.put(j)
        j.cancel()
        assert q.drain_matching(lambda j: True, limit=5) == []


class TestRequeue:
    def test_running_job_returns_to_pending(self, network):
        j = job_for(network, {"degA": 1.0})
        assert j.mark_running()
        assert j.requeue()
        assert j.state is JobState.PENDING
        assert j.mark_running()  # can run again

    def test_pending_or_done_refused(self, network):
        j = job_for(network, {"degA": 1.0})
        assert not j.requeue()                    # never started
        j.mark_running()
        j.cancel()                                # no effect (running) ...
        j.fail(__import__("repro.errors", fromlist=["SolveJobError"])
               .SolveJobError("boom", key=j.key))
        assert not j.requeue()                    # ... but done is final


class TestServiceBatching:
    def test_compatible_jobs_coalesce(self, network):
        svc = halted_service(network, batch_max=4, tol=1e-6)
        try:
            primary = svc.submit({"degA": 0.9}, tol=1e-6)
            same_a = svc.submit({"degA": 0.9}, tol=1e-7)
            same_b = svc.submit({"degA": 0.9}, tol=1e-8)
            other = svc.submit({"degA": 1.2}, tol=1e-6)  # different system
            # Play the worker by hand: pop the first job and execute it.
            popped = svc._scheduler.queue.get(timeout=0)
            assert popped is primary
            assert popped.mark_running()
            outcome = svc._execute(popped)
            popped.finish(outcome)

            # The two same-system jobs were answered by the batch...
            assert same_a.done() and same_b.done()
            for job, tol in ((primary, 1e-6), (same_a, 1e-7),
                             (same_b, 1e-8)):
                result = job.result(timeout=1.0).result
                assert result.converged
                assert result.residual <= tol
            # ...the different system stayed queued.
            assert not other.done()
            assert len(svc._scheduler.queue) == 1
            assert svc.snapshot()["batched"] == 2
        finally:
            svc.close(wait=False)

    def test_batched_answers_match_solo(self, network):
        solo = halted_service(network, batch_max=1)
        batching = halted_service(network, batch_max=4)
        try:
            solo_jobs = [solo.submit({"degA": 0.9}, tol=t)
                         for t in (1e-6, 1e-8)]
            outcomes = []
            for job in solo_jobs:
                popped = solo._scheduler.queue.get(timeout=0)
                popped.mark_running()
                outcomes.append(solo._execute(popped))

            b1 = batching.submit({"degA": 0.9}, tol=1e-6)
            b2 = batching.submit({"degA": 0.9}, tol=1e-8)
            popped = batching._scheduler.queue.get(timeout=0)
            popped.mark_running()
            first = batching._execute(popped)
            np.testing.assert_array_equal(first.result.x,
                                          outcomes[0].result.x)
            np.testing.assert_array_equal(b2.result(timeout=1.0).result.x,
                                          outcomes[1].result.x)
            assert first.result.iterations == outcomes[0].result.iterations
            del b1
        finally:
            solo.close(wait=False)
            batching.close(wait=False)

    def test_batching_disabled_by_default(self, network):
        svc = halted_service(network)
        try:
            svc.submit({"degA": 0.9}, tol=1e-6)
            companion = svc.submit({"degA": 0.9}, tol=1e-7)
            popped = svc._scheduler.queue.get(timeout=0)
            popped.mark_running()
            popped.finish(svc._execute(popped))
            assert not companion.done()           # stayed queued
            assert svc.snapshot()["batched"] == 0
        finally:
            svc.close(wait=False)

    def test_deadline_jobs_stay_solo(self, network):
        svc = halted_service(network, batch_max=4)
        try:
            svc.submit({"degA": 0.9}, tol=1e-6)
            with_deadline = svc.submit({"degA": 0.9}, tol=1e-7,
                                       deadline_s=60.0)
            popped = svc._scheduler.queue.get(timeout=0)
            popped.mark_running()
            popped.finish(svc._execute(popped))
            assert not with_deadline.done()
            assert svc.snapshot()["batched"] == 0
        finally:
            svc.close(wait=False)

    def test_batched_results_hit_cache(self, network):
        svc = halted_service(network, batch_max=4)
        try:
            svc.submit({"degA": 0.9}, tol=1e-6)
            companion = svc.submit({"degA": 0.9}, tol=1e-7)
            popped = svc._scheduler.queue.get(timeout=0)
            popped.mark_running()
            popped.finish(svc._execute(popped))
            # Resubmitting the companion's exact request is now a
            # synchronous cache hit.
            again = svc.submit({"degA": 0.9}, tol=1e-7)
            assert again.done()
            assert again.result(timeout=1.0).cached
            np.testing.assert_array_equal(
                again.result().result.x,
                companion.result(timeout=1.0).result.x)
        finally:
            svc.close(wait=False)

    def test_end_to_end_with_live_workers(self, network):
        # Black-box sanity: live workers, many compatible submissions —
        # everything completes with correct per-tol residuals whether or
        # not batching kicked in (that depends on queue timing).
        with SolveService(network, workers=2, batch_max=4,
                          solver_options=DAMPED) as svc:
            tols = [1e-5, 1e-6, 1e-7, 1e-8]
            jobs = [svc.submit({"degB": 1.1}, tol=t) for t in tols]
            for job, tol in zip(jobs, tols):
                result = job.result(timeout=60.0).result
                assert result.converged
                assert result.residual <= tol
