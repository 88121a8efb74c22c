"""Deterministic, seeded fault injection for chaos testing.

A :class:`FaultPlan` is a declarative, JSON-serializable schedule of
faults — *which* site misbehaves, *how* (NaN/Inf/perturbation of the
solver iterate, a failed kernel launch, a killed or stalled worker, a
dropped cache read) and *when* (site-local indices: the solver
iteration number for ``solver.iterate``, the per-site hit count
everywhere else).  A :class:`FaultInjector` executes one plan with a
seeded RNG, so a chaos run is exactly reproducible from
``(plan, seed)`` — the property the ``tests/resilience`` suite and the
CI chaos job rely on.

Injection sites
---------------
``solver.iterate``
    Corrupt the live iterate of any :class:`IterativeSolverBase` loop
    (kinds ``nan``/``inf``/``perturb``).
``gpusim.launch``
    Fail a modeled kernel launch with
    :class:`~repro.errors.KernelLaunchError` (kind ``raise``).
``serve.worker``
    Kill (kind ``kill`` → :class:`~repro.errors.WorkerCrashError`) or
    stall (kind ``stall``, ``delay_s`` seconds) a serve worker at the
    start of a job attempt.
``serve.cache``
    Drop a cache read (kind ``miss``): the serving layer treats the
    lookup as a miss and recomputes.
``serve.pool``
    Kill (kind ``kill``) or stall (kind ``stall``) one worker
    *process* of the serve :class:`~repro.serve.pool.ProcessSolverPool`
    at a solve dispatch.  Indices count parent-side dispatches; the
    parent consumes the schedule via :meth:`FaultInjector.scheduled`
    and ships the directive inside the task, so the worker actually
    ``os._exit``\\ s (a kill no in-process handler can absorb) and the
    parent's death-detection/respawn path is what gets exercised.
``shard.worker``
    Kill (kind ``kill``) or stall (kind ``stall``) one shard worker of
    the sharded Jacobi solver at the start of a sweep.  Indices match
    the shard's cumulative *attempted* sweep counter, which lives in
    shared memory and survives a respawn — a one-shot kill fires once,
    not on every reincarnation.  The schedule is evaluated
    independently per shard: ``at=30, count=1`` kills *every* shard
    that reaches sweep 30, once each.  The plan travels to the worker
    processes as JSON inside the worker spec, because the
    process-global injector does not cross process boundaries.
``checkpoint.write``
    Damage a durable checkpoint as it is written: kind ``torn`` drops
    the final ``fraction`` of the encoded bytes (a crash mid-write),
    kind ``corrupt`` XOR-flips a seeded ``fraction`` of them (bitrot).
    The damaged bytes still go through the atomic rename, so the
    *reader's* CRC validation and fallback-to-older path is what gets
    exercised (see :func:`FaultInjector.corrupt_blob`).
``serve.journal``
    Tear an append to the serve write-ahead job journal (kind
    ``truncate``): only a prefix of the record reaches the file, as if
    the process died mid-``write``.  Replay must skip the damaged
    record and recover every intact one.

Install an injector process-wide with :func:`install`/:func:`uninstall`
or the :func:`injecting` context manager (mirroring
:mod:`repro.telemetry.tracing`); instrumented code calls
:func:`active_injector` and pays nothing when none is installed.
Every fired fault is appended to :attr:`FaultInjector.events`,
counted on the default metrics registry
(``resilience_faults_injected_total``) and emitted as a
``resilience.fault`` trace event when a recorder is active.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import (
    FaultPlanError,
    KernelLaunchError,
    WorkerCrashError,
)
from repro.telemetry import tracing
from repro.telemetry.metrics import get_registry

#: Every site an injector knows how to hit.
SITES = ("solver.iterate", "gpusim.launch", "serve.worker", "serve.cache",
         "shard.worker", "checkpoint.write", "serve.journal", "serve.pool")

#: Fault kinds accepted per site.
SITE_KINDS = {
    "solver.iterate": ("nan", "inf", "perturb"),
    "gpusim.launch": ("raise",),
    "serve.worker": ("kill", "stall"),
    "serve.cache": ("miss",),
    "shard.worker": ("kill", "stall"),
    "checkpoint.write": ("torn", "corrupt"),
    "serve.journal": ("truncate",),
    "serve.pool": ("kill", "stall"),
}

#: The error a failing site raises (kinds ``raise``/``kill``).
SITE_ERRORS = {
    "gpusim.launch": KernelLaunchError,
    "serve.worker": WorkerCrashError,
    "shard.worker": WorkerCrashError,
    "serve.pool": WorkerCrashError,
}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault (see module docstring for site semantics).

    Attributes
    ----------
    site, kind:
        Where and how to misbehave (validated against :data:`SITES` /
        :data:`SITE_KINDS`).
    at:
        First site-local index to fire on (the iteration number for
        ``solver.iterate``, the hit count otherwise).
    every:
        Also fire every this many indices after ``at`` (``None`` for a
        one-shot schedule).
    count:
        Maximum number of firings.
    fraction:
        Fraction of iterate entries corrupted (``solver.iterate``).
    magnitude:
        Perturbation scale relative to ``|x|.max()`` (kind
        ``perturb``).
    delay_s:
        Stall duration (kind ``stall``).
    """

    site: str
    kind: str
    at: int = 0
    every: int | None = None
    count: int = 1
    fraction: float = 0.05
    magnitude: float = 1.0
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise FaultPlanError(
                f"unknown fault site {self.site!r}; expected one of {SITES}")
        if self.kind not in SITE_KINDS[self.site]:
            raise FaultPlanError(
                f"site {self.site!r} does not support kind {self.kind!r}; "
                f"expected one of {SITE_KINDS[self.site]}")
        if self.at < 0 or self.count <= 0:
            raise FaultPlanError("at must be >= 0 and count positive")
        if self.every is not None and self.every <= 0:
            raise FaultPlanError("every must be positive (or null)")
        if not (0.0 < self.fraction <= 1.0):
            raise FaultPlanError(
                f"fraction must be in (0, 1], got {self.fraction}")
        if self.delay_s < 0:
            raise FaultPlanError("delay_s must be >= 0")

    def matches(self, index: int) -> bool:
        """Whether this spec's schedule includes site-local *index*."""
        if index < self.at:
            return False
        if index == self.at:
            return True
        if self.every is None:
            return False
        return (index - self.at) % self.every == 0

    def to_dict(self) -> dict:
        d = asdict(self)
        return {k: v for k, v in d.items() if v is not None}


class FaultPlan:
    """An immutable, seeded schedule of :class:`FaultSpec` entries."""

    def __init__(self, specs, *, seed: int = 0, name: str = "chaos"):
        self.specs = tuple(spec if isinstance(spec, FaultSpec)
                           else FaultSpec(**spec) for spec in specs)
        self.seed = int(seed)
        self.name = str(name)

    def for_site(self, site: str) -> tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if s.site == site)

    # -- JSON round-trip -----------------------------------------------------

    def to_dict(self) -> dict:
        return {"name": self.name, "seed": self.seed,
                "specs": [s.to_dict() for s in self.specs]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        try:
            specs = payload["specs"]
        except (TypeError, KeyError) as exc:
            raise FaultPlanError(
                "fault plan needs a 'specs' list") from exc
        return cls(specs, seed=payload.get("seed", 0),
                   name=payload.get("name", "chaos"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"unparseable fault plan: {exc}") from exc
        return cls.from_dict(payload)

    @classmethod
    def load(cls, path) -> "FaultPlan":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def save(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (f"FaultPlan({self.name!r}, seed={self.seed}, "
                f"{len(self.specs)} specs)")


@dataclass
class FaultEvent:
    """One fault that actually fired."""

    site: str
    kind: str
    index: int
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class _SpecState:
    """Mutable firing state of one spec inside an injector."""

    spec: FaultSpec
    fired: int = 0
    rng: random.Random = field(default_factory=random.Random)


class FaultInjector:
    """Executes one :class:`FaultPlan` deterministically.

    Thread-safe: worker threads, the solver loop and the submit path
    may all consult the same injector.  Each spec owns a
    ``random.Random`` seeded from ``(plan.seed, spec position)``, so
    corruption values do not depend on which thread hits a site first.
    """

    def __init__(self, plan: FaultPlan, *, registry=None):
        self.plan = plan
        self._lock = threading.Lock()
        self._states = [
            _SpecState(spec, rng=random.Random(f"{plan.seed}:{i}"))
            for i, spec in enumerate(plan.specs)
        ]
        self._by_site: dict[str, list[_SpecState]] = {}
        for state in self._states:
            self._by_site.setdefault(state.spec.site, []).append(state)
        self._hits: dict[str, int] = {}
        self.events: list[FaultEvent] = []
        reg = registry if registry is not None else get_registry()
        self._fired_counter = reg.counter(
            "resilience_faults_injected_total",
            "faults fired by the active fault injector")

    def active_for(self, site: str) -> bool:
        """Whether any spec targets *site* (cheap hot-loop guard)."""
        return site in self._by_site

    def fired(self, site: str | None = None) -> int:
        """How many faults have fired (optionally at one site)."""
        with self._lock:
            if site is None:
                return len(self.events)
            return sum(1 for e in self.events if e.site == site)

    # -- firing --------------------------------------------------------------

    def _visit(self, site: str, index: int | None) -> _SpecState | None:
        """Advance *site*'s hit counter and match a spec, under lock."""
        with self._lock:
            if index is None:
                index = self._hits.get(site, 0)
            self._hits[site] = self._hits.get(site, 0) + 1
            for state in self._by_site.get(site, ()):
                if (state.fired < state.spec.count
                        and state.spec.matches(index)):
                    state.fired += 1
                    return state
        return None

    def _record(self, spec: FaultSpec, index: int, detail: str) -> None:
        event = FaultEvent(site=spec.site, kind=spec.kind, index=index,
                           detail=detail)
        with self._lock:
            self.events.append(event)
        self._fired_counter.inc()
        recorder = tracing.active()
        if recorder is not None:
            recorder.add_event("resilience.fault", recorder.now_us(), 0.0,
                               site=spec.site, kind=spec.kind, index=index,
                               detail=detail)

    def corrupt(self, site: str, x: np.ndarray,
                iteration: int) -> tuple[np.ndarray, FaultSpec | None]:
        """Apply a scheduled iterate corruption; returns ``(x, spec)``.

        Returns the input array untouched (and ``None``) when no spec
        fires at *iteration*.  Corruption targets a seeded subset of
        ``ceil(fraction * n)`` entries of a copy of *x*.
        """
        state = self._visit(site, iteration)
        if state is None:
            return x, None
        spec = state.spec
        n = x.shape[0]
        k = max(1, int(np.ceil(spec.fraction * n)))
        idx = state.rng.sample(range(n), min(k, n))
        x = np.array(x, dtype=np.float64, copy=True)
        if spec.kind == "nan":
            x[idx] = np.nan
        elif spec.kind == "inf":
            x[idx] = np.inf
        else:  # perturb: bit-flip-style relative kicks
            scale = spec.magnitude * (float(np.abs(x).max()) or 1.0)
            kicks = [scale * (2.0 * state.rng.random() - 1.0) for _ in idx]
            x[idx] += np.asarray(kicks)
        self._record(spec, iteration,
                     f"corrupted {len(idx)}/{n} entries")
        return x, spec

    def maybe_fail(self, site: str, *, detail: str = "") -> FaultSpec | None:
        """Fire a failure-flavored fault at *site*, if one is scheduled.

        Kind ``raise``/``kill`` raises the site's error class
        (:data:`SITE_ERRORS`); ``stall`` sleeps ``delay_s`` and
        returns; ``miss`` just returns the spec, leaving the caller to
        degrade (drop the cache read).  Returns ``None`` when nothing
        fires.
        """
        if site not in self._by_site:
            return None
        state = self._visit(site, None)
        if state is None:
            return None
        spec = state.spec
        index = self._hits[site] - 1
        self._record(spec, index, detail)
        if spec.kind in ("raise", "kill"):
            error_cls = SITE_ERRORS.get(site, RuntimeError)
            raise error_cls(
                f"injected {spec.kind} fault at {site}"
                + (f" ({detail})" if detail else ""))
        if spec.kind == "stall":
            time.sleep(spec.delay_s)
        return spec

    def scheduled(self, site: str, *, detail: str = "") -> FaultSpec | None:
        """Match and consume a fault at *site* without executing it here.

        For sites whose effect must land in *another process*: the
        serve pool's parent consults the schedule on dispatch, records
        the firing on this (parent-side) injector — so one-shot kills
        survive worker respawns — and ships the directive to the worker
        process, which carries it out.  Returns the matched spec, or
        ``None`` when nothing is scheduled at the current hit index.
        """
        if site not in self._by_site:
            return None
        state = self._visit(site, None)
        if state is None:
            return None
        spec = state.spec
        self._record(spec, self._hits[site] - 1, detail)
        return spec

    def corrupt_blob(self, site: str, blob: bytes, *,
                     detail: str = "") -> tuple[bytes, FaultSpec | None]:
        """Damage an encoded record headed for disk, if scheduled.

        Kind ``torn``/``truncate`` keeps only the leading
        ``1 - fraction`` of *blob* (a write cut short mid-record); kind
        ``corrupt`` XOR-flips a seeded ``fraction`` of its bytes.
        Returns ``(blob, None)`` untouched when nothing fires.  Callers
        (the checkpoint writer, the journal appender) persist whatever
        comes back — validation happens on the *read* side.
        """
        if site not in self._by_site or not blob:
            return blob, None
        state = self._visit(site, None)
        if state is None:
            return blob, None
        spec = state.spec
        index = self._hits[site] - 1
        n = len(blob)
        if spec.kind in ("torn", "truncate"):
            keep = min(n - 1, max(1, int(n * (1.0 - spec.fraction))))
            out = blob[:keep]
            self._record(spec, index,
                         f"torn write: kept {keep}/{n} bytes"
                         + (f" ({detail})" if detail else ""))
        else:  # corrupt
            k = min(n, max(1, int(np.ceil(spec.fraction * n))))
            damaged = bytearray(blob)
            for pos in state.rng.sample(range(n), k):
                damaged[pos] ^= 0xFF
            out = bytes(damaged)
            self._record(spec, index,
                         f"flipped {k}/{n} bytes"
                         + (f" ({detail})" if detail else ""))
        return out, spec


#: The process-wide active injector (None = chaos disabled).
_active: FaultInjector | None = None
_install_lock = threading.Lock()


def active_injector() -> FaultInjector | None:
    """The installed injector, or ``None`` when chaos is off."""
    return _active


def install(injector: FaultInjector) -> None:
    """Make *injector* the process-wide fault source."""
    global _active
    with _install_lock:
        _active = injector


def uninstall() -> None:
    """Disable fault injection."""
    global _active
    with _install_lock:
        _active = None


class injecting:
    """Context manager: install an injector for the enclosed block.

    Accepts an injector or a plan (wrapped in a fresh injector); the
    injector is yielded so tests can assert on its event log.
    """

    def __init__(self, injector_or_plan) -> None:
        if isinstance(injector_or_plan, FaultPlan):
            injector_or_plan = FaultInjector(injector_or_plan)
        self.injector = injector_or_plan

    def __enter__(self) -> FaultInjector:
        install(self.injector)
        return self.injector

    def __exit__(self, *exc_info) -> bool:
        uninstall()
        return False
