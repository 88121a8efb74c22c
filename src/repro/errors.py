"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to discriminate between configuration problems, numerical
failures and format-construction errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong shape, dtype, range, ...)."""


class IterateSizeError(ValidationError):
    """An iterate's length disagrees with the system dimension.

    Raised when a warm-start vector (``x0``) does not match
    the matrix size ``n``.  The mismatch is carried structurally in
    ``expected`` and ``got`` so callers that *remap* iterates across
    changing state spaces (the adaptive FSP loop) can distinguish a
    remap bug from any other bad-argument failure.
    """

    def __init__(self, expected: int, got, *, name: str = "x0") -> None:
        self.expected = int(expected)
        self.got = got
        super().__init__(
            f"{name} must have length {expected}, got {got}")


class FormatError(ReproError):
    """A sparse-matrix format could not be constructed or is inconsistent."""


class BackendError(ReproError):
    """A kernel backend was unknown or explicitly requested but unavailable.

    Raised only for *explicit* selections (``backend=`` arguments and
    :func:`repro.backends.use`); environment-variable and default
    selections degrade to the reference backend with a warning instead,
    so a missing optional dependency never breaks a deployment that
    merely inherited ``REPRO_BACKEND`` from its environment.
    """


class EnumerationError(ReproError):
    """State-space enumeration failed (e.g. exceeded the state budget)."""


class StateSpaceOverflowError(EnumerationError):
    """The DFS enumeration hit the configured maximum number of states.

    The CME state space grows exponentially with the number of species; a
    hard cap protects against runaway enumerations.  The partially explored
    space is attached as the ``partial_states`` attribute for diagnostics.
    """

    def __init__(self, limit: int, message: str | None = None) -> None:
        self.limit = limit
        super().__init__(
            message or f"state-space enumeration exceeded the cap of {limit} states"
        )


class ConvergenceError(ReproError):
    """An iterative solver failed to converge within its iteration budget."""

    def __init__(self, message: str, iterations: int | None = None,
                 residual: float | None = None) -> None:
        self.iterations = iterations
        self.residual = residual
        super().__init__(message)


class SingularMatrixError(ReproError):
    """A matrix required to be invertible (e.g. the Jacobi diagonal) is not."""


class SingularSystemError(SingularMatrixError):
    """The steady-state system cannot be iterated on: a diagonal entry
    is exactly zero (an absorbing state under the splitting), so the
    Jacobi/Gauss-Seidel preconditioner does not exist.

    This is a property of the *system*, not of the attempt — retrying
    the same solve can never succeed, which is why the serving layer
    maps it to a terminal (non-retryable) job failure.  The offending
    row indices (capped at the first few) ride along in ``rows``.
    """

    def __init__(self, message: str, *, rows=None) -> None:
        self.rows = list(rows) if rows is not None else []
        super().__init__(message)


class DeviceModelError(ReproError):
    """The GPU/CPU performance model was configured inconsistently."""


class KernelLaunchError(ReproError):
    """A (simulated) GPU kernel launch failed.

    Raised by the :mod:`repro.gpusim` dispatch layer when an installed
    :class:`repro.resilience.faults.FaultInjector` fails a launch on
    schedule — the reproduction's stand-in for the transient launch
    and ECC errors a real device driver surfaces.  Launch failures are
    transient by definition, so the serving layer treats them as
    retryable.
    """


class FaultPlanError(ReproError):
    """A fault-injection plan was malformed (unknown site/kind, bad
    schedule, unparseable JSON)."""


class SolveJobError(ReproError):
    """A solve job failed in the serving layer (:mod:`repro.serve`).

    Carries the job's cache ``key``, the number of ``attempts``
    consumed, and an optional structured ``failure`` payload (e.g. the
    failing matrix signature for singular systems) so operators can
    correlate failures with metrics and cached artifacts.
    """

    def __init__(self, message: str, *, key: str | None = None,
                 attempts: int | None = None,
                 failure: dict | None = None) -> None:
        self.key = key
        self.attempts = attempts
        self.failure = dict(failure) if failure is not None else {}
        super().__init__(message)


class JobRejectedError(SolveJobError):
    """Backpressure: the bounded queue was full under the reject policy
    (or a blocking submit timed out waiting for space)."""


class JobTimeoutError(SolveJobError):
    """A solve attempt exceeded its per-job wall-clock budget (or its
    propagated submission deadline).

    ``iterations`` and ``residual`` carry the partial iterate's stats
    at expiry, so operators can tell a nearly-converged timeout from a
    hopeless one.
    """

    def __init__(self, message: str, *, key: str | None = None,
                 attempts: int | None = None, failure: dict | None = None,
                 iterations: int | None = None,
                 residual: float | None = None) -> None:
        self.iterations = iterations
        self.residual = residual
        super().__init__(message, key=key, attempts=attempts,
                         failure=failure)


class JobCancelledError(SolveJobError):
    """The job was cancelled before a worker completed it."""


class WorkerCrashError(SolveJobError):
    """A serve worker died (or was killed by a fault plan) mid-attempt.

    The crash is a property of the *attempt*, not of the job, so the
    scheduler counts it as retryable and re-runs the job — on another
    attempt, possibly another worker — under the backoff policy.
    """


class CircuitOpenError(SolveJobError):
    """The per-solver-method circuit breaker is open: recent attempts
    failed repeatedly and the service is shedding load on this method
    until the reset timeout elapses (terminal, not retryable — retrying
    immediately is exactly what the breaker exists to prevent)."""


class CheckpointError(ReproError):
    """A durable checkpoint could not be read back intact.

    Raised by :mod:`repro.durability` when a checkpoint file fails
    validation — bad magic, unsupported version, CRC mismatch (torn or
    bit-flipped write), truncated payload, or a signature that does not
    match the system being resumed.  The resume path catches this per
    file and falls back to the next-oldest checkpoint; it only escapes
    to callers reading a single explicit file.
    """


class JournalError(ReproError):
    """The serve write-ahead job journal is unusable (unwritable path,
    or a corrupt record encountered where strict parsing was requested).
    Torn tails and isolated corrupt records during replay are *not*
    errors — they are skipped with a warning and counted."""
