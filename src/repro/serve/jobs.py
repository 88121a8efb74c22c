"""Solve requests and jobs: the unit of work of the serving layer.

A :class:`SolveRequest` pins down *everything* that determines a
steady-state answer — the reaction network (via its canonical
signature), the rate overrides, the state-space bounds (baked into the
network's species buffers) and the solver options — and derives a
stable, content-addressed :meth:`~SolveRequest.cache_key` from it.  Two
requests with the same key are guaranteed to describe the same linear
system solved the same way, which is what makes the cache and
single-flight deduplication sound.

A :class:`SolveJob` is one submitted request flowing through the
scheduler: a tiny future with a priority, timestamps and an attempt
counter.  Jobs are created by :class:`repro.serve.service.SolveService`;
callers block on :meth:`SolveJob.result`.
"""

from __future__ import annotations

import enum
import hashlib
import json
import threading
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.cme.landscape import ProbabilityLandscape
from repro.cme.network import ReactionNetwork
from repro.errors import JobCancelledError, SolveJobError, ValidationError
from repro.solvers.result import SolverResult

#: Solver options a request may carry; anything else is rejected early
#: so typos do not silently fork the cache-key space.
SOLVER_OPTION_KEYS = frozenset({
    "damping", "check_interval", "normalize_interval", "stagnation_tol",
    "backend",
})


def matrix_signature(A) -> str:
    """A short content hash of an assembled rate matrix.

    Recorded in a job's ``failure`` payload when the *system* is at
    fault (e.g. :class:`~repro.errors.SingularSystemError`), so the
    exact offending matrix can be correlated across logs, retries and
    cache artifacts without shipping the matrix itself.
    """
    h = hashlib.sha256()
    h.update(repr(A.shape).encode())
    h.update(str(A.nnz).encode())
    for part in (A.indptr, A.indices, A.data):
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()[:16]


class SolveRequest:
    """An immutable description of one steady-state solve.

    Parameters
    ----------
    network:
        The base reaction network.
    overrides:
        Optional ``reaction name -> rate`` overrides applied through
        :meth:`ReactionNetwork.with_rates`.
    tol, max_iterations:
        Jacobi stopping parameters.
    solver_options:
        Extra :class:`~repro.solvers.jacobi.JacobiSolver` keyword
        options (restricted to :data:`SOLVER_OPTION_KEYS`).
    """

    def __init__(self, network: ReactionNetwork,
                 overrides: Mapping[str, float] | None = None, *,
                 tol: float = 1e-8, max_iterations: int = 200_000,
                 solver_options: Mapping | None = None):
        if not isinstance(network, ReactionNetwork):
            raise ValidationError("network must be a ReactionNetwork")
        overrides = dict(overrides or {})
        known = {r.name for r in network.reactions}
        unknown = set(overrides) - known
        if unknown:
            raise ValidationError(
                f"overrides reference unknown reactions {sorted(unknown)}")
        for name, rate in overrides.items():
            if not float(rate) > 0.0:
                raise ValidationError(
                    f"override for {name!r} must be positive, got {rate}")
        if not float(tol) > 0.0:
            raise ValidationError(f"tol must be positive, got {tol}")
        if int(max_iterations) <= 0:
            raise ValidationError("max_iterations must be positive")
        options = dict(solver_options or {})
        bad = set(options) - SOLVER_OPTION_KEYS
        if bad:
            raise ValidationError(
                f"unknown solver options {sorted(bad)}; "
                f"expected a subset of {sorted(SOLVER_OPTION_KEYS)}")
        self.network = network
        self.overrides = {name: float(overrides[name])
                          for name in sorted(overrides)}
        self.tol = float(tol)
        self.max_iterations = int(max_iterations)
        self.solver_options = {k: options[k] for k in sorted(options)}
        self._key: str | None = None
        self._matrix_key: str | None = None

    def varied_network(self) -> ReactionNetwork:
        """The network with the overrides applied."""
        if not self.overrides:
            return self.network
        return self.network.with_rates(self.overrides)

    def rate_vector(self) -> np.ndarray:
        """Effective rates in base reaction order (warm-start coordinates)."""
        rates = self.network.rates.copy()
        for i, rxn in enumerate(self.network.reactions):
            if rxn.name in self.overrides:
                rates[i] = self.overrides[rxn.name]
        return rates

    def log_rate_vector(self) -> np.ndarray:
        """``log`` of :meth:`rate_vector` — distances in fold-change space."""
        return np.log(self.rate_vector())

    def cache_key(self) -> str:
        """Stable content hash identifying this request's answer.

        Built from the network's canonical signature (invariant to
        reaction/dict ordering), the sorted overrides and the sorted
        solver options, so equivalent requests written differently
        collide onto one cache line.
        """
        if self._key is None:
            payload = json.dumps({
                "network": self.network.canonical_signature(),
                "overrides": sorted(self.overrides.items()),
                "tol": self.tol,
                "max_iterations": self.max_iterations,
                "solver_options": sorted(
                    (k, repr(v)) for k, v in self.solver_options.items()),
            }, sort_keys=True, separators=(",", ":"))
            self._key = hashlib.sha256(payload.encode()).hexdigest()
        return self._key

    def matrix_key(self) -> str:
        """Content hash of the assembled *system* alone.

        Unlike :meth:`cache_key` this excludes tolerances, iteration
        caps and solver options: two requests with equal matrix keys
        describe the **same linear system** (network + overrides) and
        can therefore share one assembled matrix — and, when their loop
        parameters agree, one batched multi-RHS solve.
        """
        if self._matrix_key is None:
            payload = json.dumps({
                "network": self.network.canonical_signature(),
                "overrides": sorted(self.overrides.items()),
            }, sort_keys=True, separators=(",", ":"))
            self._matrix_key = hashlib.sha256(payload.encode()).hexdigest()
        return self._matrix_key

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (f"SolveRequest({self.network.name!r}, "
                f"overrides={self.overrides}, key={self.cache_key()[:12]})")


class JobState(enum.Enum):
    """Lifecycle of a :class:`SolveJob`."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


@dataclass
class SolveOutcome:
    """What a finished job hands back to the caller.

    ``degraded`` is always ``False``: the service serves no approximate
    answers.  The field stays while the benchmark ledger still reads
    it.
    """

    result: SolverResult
    landscape: ProbabilityLandscape
    key: str
    cached: bool = False
    warm_started: bool = False
    solve_seconds: float = 0.0
    degraded: bool = False


class SolveJob:
    """A submitted request: a small thread-safe future.

    Lower ``priority`` values are served first; ties break by
    submission order (FIFO).  ``tenant`` identifies the submitter for
    weighted fair queuing; it never participates
    in the cache key (two tenants asking the same question share one
    answer).
    """

    def __init__(self, request: SolveRequest, *, job_id: int,
                 priority: int = 0, tenant: str = "default"):
        self.request = request
        self.id = int(job_id)
        self.priority = int(priority)
        self.tenant = str(tenant) or "default"
        self.key = request.cache_key()
        self.attempts = 0
        self.submitted_at: float | None = None
        self.started_at: float | None = None
        self.finished_at: float | None = None
        #: Absolute ``time.perf_counter()`` deadline propagated from
        #: ``SolveService.submit(deadline_s=...)``; workers clamp the
        #: solver's ``time_budget_s`` to whatever remains of it.
        self.deadline_at: float | None = None
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._state = JobState.PENDING
        self._outcome: SolveOutcome | None = None
        self._error: SolveJobError | None = None
        self._callbacks: list = []

    # -- queries ------------------------------------------------------------

    @property
    def state(self) -> JobState:
        return self._state

    def done(self) -> bool:
        """Whether the job reached a terminal state."""
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> SolveOutcome:
        """Block for the outcome; raises the job's error on failure."""
        if not self._done.wait(timeout):
            raise SolveJobError(
                f"job {self.id} not finished within {timeout}s wait",
                key=self.key, attempts=self.attempts)
        if self._error is not None:
            raise self._error
        assert self._outcome is not None
        return self._outcome

    def exception(self) -> SolveJobError | None:
        """The terminal error, if the job failed (None otherwise)."""
        return self._error

    @property
    def failure(self) -> dict:
        """The structured failure payload of a failed job ({} otherwise)."""
        return dict(self._error.failure) if self._error is not None else {}

    def add_done_callback(self, fn) -> None:
        """Run ``fn(job)`` once the job reaches a terminal state.

        Fires immediately (on the calling thread) when already
        terminal; otherwise on whichever thread completes the job — a
        worker thread, or the submitter for cache hits and
        cancellations.  Callbacks must be cheap and never block.
        Callback exceptions are swallowed so one bad observer cannot
        fail the completion path.
        """
        with self._lock:
            if not self._done.is_set():
                self._callbacks.append(fn)
                return
        self._invoke(fn)

    def _invoke(self, fn) -> None:
        try:
            fn(self)
        except Exception:  # noqa: BLE001 - observer must not break completion
            pass

    def _fire_callbacks(self) -> None:
        """Drain and invoke callbacks (call *without* the lock held)."""
        with self._lock:
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self._invoke(fn)

    # -- transitions (scheduler/service only) --------------------------------

    def cancel(self) -> bool:
        """Cancel if still pending; returns whether it took effect."""
        with self._lock:
            if self._state is not JobState.PENDING:
                return False
            self._state = JobState.CANCELLED
            self._error = JobCancelledError(
                f"job {self.id} cancelled before execution",
                key=self.key, attempts=self.attempts)
            self._done.set()
        self._fire_callbacks()
        return True

    def mark_running(self) -> bool:
        with self._lock:
            if self._state is not JobState.PENDING:
                return False
            self._state = JobState.RUNNING
            return True

    def requeue(self) -> bool:
        """Return a running job to PENDING (batched → solo fallback).

        A companion drained into a batched solve that could not be
        answered there (batch failure, per-column timeout) goes back
        through the queue for an individual attempt; the transition is
        refused once the job is done.
        """
        with self._lock:
            if self._state is not JobState.RUNNING or self._done.is_set():
                return False
            self._state = JobState.PENDING
            return True

    def finish(self, outcome: SolveOutcome) -> None:
        with self._lock:
            if self._done.is_set():
                return
            self._state = JobState.DONE
            self._outcome = outcome
            self._done.set()
        self._fire_callbacks()

    def fail(self, error: SolveJobError) -> None:
        with self._lock:
            if self._done.is_set():
                return
            self._state = JobState.FAILED
            self._error = error
            self._done.set()
        self._fire_callbacks()

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (f"SolveJob(id={self.id}, state={self._state.value}, "
                f"key={self.key[:12]})")


@dataclass(order=True)
class _QueueItem:
    """Heap entry: (priority, FIFO sequence) ordering, job excluded."""

    priority: int
    seq: int
    job: SolveJob = field(compare=False)
