"""Write-ahead journal integration with :class:`SolveService`.

The exactly-once contract under test: every admitted job has a durable
``accepted`` record *before* it can run; a restarted service replays
keys with more accepts than terminals once each; a clean drain leaves
an empty journal; and damage (a torn terminal) reopens the entry for
one idempotent replay instead of dropping or duplicating work.
"""

from __future__ import annotations

import errno
import logging
import threading
import time

import pytest

from repro.cme.models import toggle_switch
from repro.durability import JobJournal
from repro.resilience.faults import FaultPlan, injecting
from repro.serve import SolveService

TOL = 1e-6
SOLVER = {"damping": 0.7}


@pytest.fixture
def network():
    return toggle_switch(max_protein=8)


def make_service(network, journal, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("tol", TOL)
    kwargs.setdefault("solver_options", SOLVER)
    return SolveService(network, journal=journal, **kwargs)


def wait_for(predicate, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def open_keys(path):
    with JobJournal(path) as j:
        return [r["key"] for r in j.open_entries()]


class TestWriteAhead:
    def test_accept_precedes_terminal(self, network, tmp_path):
        path = tmp_path / "jobs.journal"
        with make_service(network, path) as svc:
            out = svc.submit({"degA": 0.5}).result(timeout=60)
            assert out.result is not None
        with JobJournal(path) as j:
            records = j.records()
        types = [(r["type"], r["key"]) for r in records]
        key = records[0]["key"]
        assert types == [("accepted", key), ("completed", key)]
        assert records[0]["seq"] < records[1]["seq"]
        payload = records[0]["payload"]
        assert payload["network"] == network.canonical_signature()
        assert payload["overrides"] == {"degA": 0.5}
        assert payload["tol"] == TOL

    def test_cache_hit_submits_do_not_journal(self, network, tmp_path):
        path = tmp_path / "jobs.journal"
        with make_service(network, path) as svc:
            svc.submit({"degA": 0.5}).result(timeout=60)
            svc.submit({"degA": 0.5}).result(timeout=60)  # cache hit
            assert svc.snapshot()["cache_hits"] == 1
        with JobJournal(path) as j:
            assert len(j.records()) == 2  # one accept + one terminal

    def test_drain_compacts_to_empty(self, network, tmp_path):
        path = tmp_path / "jobs.journal"
        svc = make_service(network, path)
        jobs = [svc.submit({"degA": d}) for d in (0.5, 1.0)]
        assert svc.drain(timeout_s=60)
        assert all(j.done() for j in jobs)
        assert open_keys(path) == []
        with JobJournal(path) as j:
            assert j.records() == []  # compacted away

    def test_drain_is_idempotent_with_close(self, network, tmp_path):
        svc = make_service(network, tmp_path / "jobs.journal")
        assert svc.drain(timeout_s=10)
        svc.close()  # no-op after drain

    def test_failed_accept_leaves_the_key_free(self, network, tmp_path,
                                               monkeypatch):
        """An accept that cannot be written reaches the caller, and the
        next identical submit runs instead of joining a job that was
        never scheduled."""
        path = tmp_path / "jobs.journal"
        journal = JobJournal(path)
        append = journal.accepted
        calls = []

        def disk_full_once(key, payload):
            calls.append(key)
            if len(calls) == 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return append(key, payload)

        monkeypatch.setattr(journal, "accepted", disk_full_once)
        with make_service(network, journal) as svc:
            with pytest.raises(OSError):
                svc.submit({"degA": 0.5})
            out = svc.submit({"degA": 0.5}).result(timeout=10)
            assert out.result.converged
        assert len(calls) == 2
        assert open_keys(path) == []


def solve_workers() -> set[threading.Thread]:
    return {t for t in threading.enumerate()
            if t.name.startswith("solve-worker-")}


class TestBooksCloseBeforeResult:
    """A caller woken by ``result()`` finds its job already counted
    and journaled: the scheduler runs the service's ``on_done`` before
    the terminal transition, and still finishes the job if it raises."""

    def test_counters_and_journal_lead_the_answer(self, network, tmp_path,
                                                  monkeypatch):
        on_done = SolveService._on_done

        def slow_on_done(self, job, error):
            time.sleep(0.05)
            on_done(self, job, error)

        monkeypatch.setattr(SolveService, "_on_done", slow_on_done)
        path = tmp_path / "jobs.journal"
        with make_service(network, path) as svc:
            out = svc.submit({"degA": 0.5}).result(timeout=60)
            assert svc.snapshot()["completed"] == 1
            assert out.key not in {r["key"] for r in
                                   svc.journal.open_entries()}

    def test_failed_terminal_append_still_answers(self, network, tmp_path,
                                                  monkeypatch):
        journal = JobJournal(tmp_path / "jobs.journal")

        def disk_error(key):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(journal, "completed", disk_error)
        with make_service(network, journal) as svc:
            out = svc.submit({"degA": 0.5}).result(timeout=5)
            assert out.result.converged

    def test_failed_terminal_append_keeps_the_worker(self, network,
                                                     tmp_path, monkeypatch,
                                                     caplog):
        """The append's error is logged, and the worker that ran the
        job keeps serving: the lone worker answers a second job."""
        journal = JobJournal(tmp_path / "jobs.journal")

        def disk_error(key):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(journal, "completed", disk_error)
        with caplog.at_level(logging.ERROR, logger="repro.serve"), \
                make_service(network, journal, workers=1) as svc:
            first = svc.submit({"degA": 0.5}).result(timeout=5)
            second = svc.submit({"degA": 2.0}).result(timeout=30)
            workers = solve_workers()
            assert workers and all(t.is_alive() for t in workers)
        assert first.result.converged and second.result.converged
        assert any(r.exc_info and isinstance(r.exc_info[1], OSError)
                   for r in caplog.records)


class TestRestartReplay:
    def test_failed_replay_stops_the_workers(self, network, tmp_path,
                                             monkeypatch):
        """A journal append that fails during replay reaches the
        caller, and the constructor stops the workers it started: the
        caller holds no handle to stop them."""
        path = tmp_path / "jobs.journal"
        with JobJournal(path) as j:
            j.accepted("bogus-key", {"network": "someone-else",
                                     "overrides": {}, "tol": 1e-8,
                                     "max_iterations": 100,
                                     "solver_options": {},
                                     "priority": 0})
        journal = JobJournal(path)

        def disk_error(key):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(journal, "cancelled", disk_error)
        before = solve_workers()
        with pytest.raises(OSError):
            make_service(network, journal, workers=2)
        started = solve_workers() - before
        for t in started:
            t.join(5.0)
        assert not any(t.is_alive() for t in started)

    def test_unfinished_jobs_replay_exactly_once(self, network, tmp_path):
        path = tmp_path / "jobs.journal"
        # One worker + immediate close: the queued jobs are accepted
        # (durably) but cancelled before a worker reaches them.
        svc = make_service(network, path, workers=1, cache=False)
        for d in (0.5, 1.0, 2.0):
            svc.submit({"degA": d})
        svc.close(wait=True)
        orphaned = open_keys(path)
        assert orphaned  # the crash left promised work behind

        svc2 = make_service(network, path, cache=False)
        assert svc2.snapshot()["journal_replayed"] == len(orphaned)
        assert wait_for(
            lambda: svc2.snapshot()["completed"] >= len(orphaned))
        assert svc2.drain(timeout_s=60)
        assert open_keys(path) == []

        # Exactly-once: a third service finds nothing to replay.
        svc3 = make_service(network, path, cache=False)
        assert svc3.snapshot()["journal_replayed"] == 0
        svc3.close()

    def test_disk_cache_answers_replay_without_a_solve(self, network,
                                                      tmp_path):
        from repro.serve import SolutionCache

        path = tmp_path / "jobs.journal"
        disk = tmp_path / "cache"
        svc = make_service(network, path,
                           cache=SolutionCache(disk_dir=disk))
        svc.submit({"degA": 0.5}).result(timeout=60)
        # Reopen the journal and forge a lost terminal: keep only the
        # accept, as if the process died right after the solve's cache
        # write but before the terminal append.
        svc.close()
        with JobJournal(path) as j:
            records = j.records()
            accept = next(r for r in records if r["type"] == "accepted")
        path.unlink()
        with JobJournal(path) as j:
            j.accepted(accept["key"], accept["payload"])

        svc2 = make_service(network, path,
                            cache=SolutionCache(disk_dir=disk))
        snap = svc2.snapshot()
        assert snap["journal_replayed"] == 1
        assert snap["completed"] == 0  # answered from disk, no solve
        assert open_keys(path) == []
        svc2.close()

    def test_foreign_network_entry_is_cancelled(self, network, tmp_path):
        path = tmp_path / "jobs.journal"
        with JobJournal(path) as j:
            j.accepted("bogus-key", {"network": "someone-else",
                                     "overrides": {}, "tol": 1e-8,
                                     "max_iterations": 100,
                                     "solver_options": {},
                                     "priority": 0})
        svc = make_service(network, path)
        assert svc.snapshot()["journal_replayed"] == 0
        assert open_keys(path) == []  # closed as cancelled
        svc.close()

    def test_stale_key_readmits_fresh_submission(self, network, tmp_path):
        path = tmp_path / "jobs.journal"
        with JobJournal(path) as j:
            j.accepted("not-the-real-key", {
                "network": network.canonical_signature(),
                "overrides": {"degA": 0.5}, "tol": TOL,
                "max_iterations": 200_000,
                "solver_options": SOLVER, "priority": 0})
        svc = make_service(network, path)
        assert wait_for(lambda: svc.snapshot()["completed"] >= 1)
        assert svc.drain(timeout_s=60)
        assert open_keys(path) == []


class TestTornTerminal:
    def test_lost_terminal_replays_idempotently(self, network, tmp_path):
        path = tmp_path / "jobs.journal"
        # Tear the second journal append — the completed record.
        plan = FaultPlan([{"site": "serve.journal", "kind": "truncate",
                           "at": 1, "count": 1}], seed=0)
        with injecting(plan) as injector:
            svc = make_service(network, path, workers=1, cache=False)
            svc.submit({"degA": 0.5}).result(timeout=60)
            svc.close()
            assert injector.fired("serve.journal") == 1
        assert len(open_keys(path)) == 1  # the terminal was lost

        svc2 = make_service(network, path, cache=False)
        snap = svc2.snapshot()
        assert snap["journal_replayed"] == 1
        assert snap["journal_corrupt_skipped"] >= 1
        assert wait_for(lambda: svc2.snapshot()["completed"] >= 1)
        assert svc2.drain(timeout_s=60)
        assert open_keys(path) == []


class TestExposure:
    def test_snapshot_carries_journal_and_breaker(self, network, tmp_path):
        with make_service(network, tmp_path / "jobs.journal") as svc:
            svc.submit({"degA": 0.5}).result(timeout=60)
            # The terminal append happens in the scheduler's on_done
            # callback, before result() returns.
            snap = svc.snapshot()
        assert snap["journal_appended"] == 2
        assert snap["journal_corrupt_skipped"] == 0
        assert snap["breaker_state"] == "closed"
        assert snap["breaker_opened"] == 0

    def test_render_includes_durability_rows(self, network, tmp_path):
        with make_service(network, tmp_path / "jobs.journal") as svc:
            svc.submit({"degA": 0.5}).result(timeout=60)
            text = svc.render_metrics()
        assert "journal_appended" in text
        assert "breaker_state" in text
        assert "journal_replayed" in text

    def test_journal_accepts_a_preconstructed_instance(self, network,
                                                       tmp_path):
        journal = JobJournal(tmp_path / "jobs.journal", fsync=False)
        with make_service(network, journal) as svc:
            assert svc.journal is journal
