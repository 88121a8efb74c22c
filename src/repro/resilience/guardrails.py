"""Numerical guardrails: checkpoints, rollback and recovery reporting.

Relaxation methods on the CME are naturally self-correcting: any
non-negative vector with positive mass is a valid restart point, and
the iteration contracts back to the unique stationary distribution
(the property FSP-style stationary solvers lean on — Gupta et al.
2017; Dendukuri & Petzold 2025).  The guardrails exploit exactly that:
:class:`~repro.solvers.base.IterativeSolverBase` snapshots the iterate
every ``checkpoint_every`` residual checks, and when a sweep produces
NaN/Inf — or the residual explodes past ``divergence_factor`` times
the best seen — it **rolls back** to the snapshot, renormalizes onto
the probability simplex, and keeps iterating instead of aborting.

What happened is never silent: every rollback lands in a
:class:`RecoveryReport` attached to the
:class:`~repro.solvers.result.SolverResult` (``result.recovery``), is
counted on the default metrics registry
(``resilience_recoveries_total``) and emitted as a
``resilience.recovery`` trace event when a recorder is installed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from repro.errors import ValidationError
from repro.telemetry import tracing
from repro.telemetry.metrics import get_registry


@dataclass(frozen=True)
class GuardrailPolicy:
    """How the shared solver loop checkpoints and recovers.

    Attributes
    ----------
    checkpoint_every:
        Snapshot the iterate every this many *residual checks* (one
        vector copy per ``checkpoint_every * check_interval`` sweeps —
        negligible next to the SpMVs in between).
    max_recoveries:
        Rollbacks allowed per solve before the solver gives up and
        reports :attr:`~repro.solvers.result.StopReason.DIVERGED`.
    divergence_factor:
        A checked residual larger than this factor times the best
        residual seen counts as divergence (NaN/Inf always does).

    The loop scans the iterate for NaN/Inf at residual checks, and
    after every sweep only while a fault injector targets
    ``solver.iterate``.
    """

    checkpoint_every: int = 1
    max_recoveries: int = 3
    divergence_factor: float = 1e6

    def __post_init__(self) -> None:
        if self.checkpoint_every <= 0:
            raise ValidationError("checkpoint_every must be positive")
        if self.max_recoveries < 0:
            raise ValidationError("max_recoveries must be >= 0")
        if self.divergence_factor <= 1.0:
            raise ValidationError("divergence_factor must exceed 1")


@dataclass
class RecoveryEvent:
    """One detection-and-reaction step during a solve."""

    iteration: int
    kind: str        # "nan-inf" | "divergence" | "fault:<kind>" | ...
    action: str      # "rollback" | "injected" | "fallback:<method>" | ...
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RecoveryReport:
    """Everything the resilience machinery did during one solve.

    Attached to :class:`~repro.solvers.result.SolverResult` as
    ``result.recovery`` whenever guardrails were active, and carried
    through the serve layer into job outcomes, so a chaos run leaves a
    complete, JSON-able audit trail.
    """

    events: list[RecoveryEvent] = field(default_factory=list)
    checkpoints: int = 0
    rollbacks: int = 0
    faults_seen: int = 0
    fallback_chain: list[str] = field(default_factory=list)
    degraded: bool = False

    @property
    def recovered(self) -> bool:
        """Whether any corrective action was taken."""
        return self.rollbacks > 0 or len(self.fallback_chain) > 1

    def record(self, iteration: int, kind: str, action: str,
               detail: str = "") -> RecoveryEvent:
        event = RecoveryEvent(iteration=iteration, kind=kind,
                              action=action, detail=detail)
        self.events.append(event)
        return event

    def absorb(self, other: "RecoveryReport | None") -> None:
        """Merge a nested solve's report (fallback chains)."""
        if other is None:
            return
        self.events.extend(other.events)
        self.checkpoints += other.checkpoints
        self.rollbacks += other.rollbacks
        self.faults_seen += other.faults_seen

    def to_dict(self) -> dict:
        return {
            "events": [e.to_dict() for e in self.events],
            "checkpoints": self.checkpoints,
            "rollbacks": self.rollbacks,
            "faults_seen": self.faults_seen,
            "fallback_chain": list(self.fallback_chain),
            "degraded": self.degraded,
            "recovered": self.recovered,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def count_recovery(kind: str, iteration: int, detail: str = "") -> None:
    """Count a recovery on the default registry and trace it."""
    get_registry().counter(
        "resilience_recoveries_total",
        "rollback/renormalize recoveries performed by solvers").inc()
    recorder = tracing.active()
    if recorder is not None:
        recorder.add_event("resilience.recovery", recorder.now_us(), 0.0,
                           kind=kind, iteration=iteration, detail=detail)
