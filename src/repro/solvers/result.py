"""Solver outcome types."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class StopReason(enum.Enum):
    """Why an iterative solver stopped."""

    #: The normalized residual dropped below the tolerance.
    CONVERGED = "converged"
    #: The residual stopped decreasing (paper's stagnation test).
    STAGNATED = "stagnated"
    #: The iteration cap was reached (phage-lambda-2 in Table IV).
    MAX_ITERATIONS = "max-iterations"
    #: The iterate became non-finite (overflow/NaN).
    DIVERGED = "diverged"
    #: A wall-clock budget expired before any other criterion fired
    #: (used by the serving layer's per-job timeouts).
    TIMED_OUT = "timed-out"


@dataclass
class SolverResult:
    """Outcome of a steady-state solve.

    Attributes
    ----------
    x:
        Final iterate as a probability vector (non-negative, sums to 1).
    iterations:
        Iterations performed.
    residual:
        Final *normalized* residual
        ``||A x||_inf / (||A||_inf ||x||_inf)`` — the paper's metric.
    stop_reason:
        Why the iteration ended.
    residual_history:
        ``(iteration, residual)`` samples taken at each check.
    runtime_s:
        Wall-clock solve time on this host.
    landscape:
        The :class:`~repro.cme.landscape.ProbabilityLandscape` over the
        enumerated state space, when the solve started from a
        :class:`~repro.cme.network.ReactionNetwork` (the
        :func:`repro.solve_steady_state` front door fills this in);
        ``None`` for raw-matrix solves.
    recovery:
        A :class:`~repro.resilience.guardrails.RecoveryReport`
        describing any checkpoints, rollbacks, injected faults and
        method fallbacks taken during the solve; ``None`` when
        guardrails were disabled and nothing fired.
    """

    x: np.ndarray
    iterations: int
    residual: float
    stop_reason: StopReason
    residual_history: list = field(default_factory=list)
    runtime_s: float = 0.0
    landscape: object | None = None
    recovery: object | None = None

    @property
    def converged(self) -> bool:
        """True when the tolerance was reached."""
        return self.stop_reason is StopReason.CONVERGED

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (f"SolverResult({self.stop_reason.value}, "
                f"iterations={self.iterations}, residual={self.residual:.3e})")
