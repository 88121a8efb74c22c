"""Parameter sweeps: the paper's motivating exploratory workload.

Section I: "bioscientists usually study a reaction network under
different conditions.  Considering that each combination of the
parameters generates a different linear system, the total amount of
computation may become excruciatingly large."  This module packages
that workload: a grid of rate overrides, one steady-state solve per
condition, and a summary row per condition — the unit of work whose
throughput the paper's GPU solver multiplies.

With ``workers``, the sweep runs through :class:`repro.serve.SolveService`
instead of the serial loop: conditions are submitted level by level in
*coarse-to-fine* order (the dyadic sub-grids of the rate grid), so every
fine point is solved after the coarser points that surround it.  That
ordering is what makes warm starting safe under concurrency — donors
always bracket the query instead of all lying on one side (see
:mod:`repro.serve.warmstart` for why one-sided blends can be slower
than a cold start).

Example
-------
>>> from repro import toggle_switch
>>> from repro.sweep import ParameterSweep
>>> sweep = ParameterSweep(toggle_switch(max_protein=30),
...                        {"synA": [10.0, 30.0], "degA": [0.5, 1.0]})
>>> results = sweep.run(tol=1e-8)          # doctest: +SKIP
>>> parallel = sweep.run(workers=4, warm_start=True)  # doctest: +SKIP
>>> len(results)                           # doctest: +SKIP
4
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field


from repro.cme.landscape import ProbabilityLandscape
from repro.cme.network import ReactionNetwork
from repro.cme.ratematrix import build_rate_matrix
from repro.cme.statespace import enumerate_state_space
from repro.errors import ValidationError
from repro.solvers import JacobiSolver
from repro.solvers.result import SolverResult
from repro.utils.tables import Table


def axis_refinement_depths(n: int) -> list[int]:
    """Dyadic refinement depth of each index on an *n*-point axis.

    The endpoints are depth 0, each interval's midpoint is one deeper,
    recursively — the 1-D multigrid hierarchy.  ``n = 5`` gives
    ``[0, 2, 1, 2, 0]``.
    """
    if n <= 0:
        raise ValidationError(f"axis length must be positive, got {n}")
    depths = [0] * n
    stack = [(0, n - 1, 1)]
    while stack:
        lo, hi, depth = stack.pop()
        if hi - lo < 2:
            continue
        mid = (lo + hi) // 2
        depths[mid] = depth
        stack.append((lo, mid, depth + 1))
        stack.append((mid, hi, depth + 1))
    return depths


def coarse_to_fine_levels(shape: tuple[int, ...]) -> list[list[int]]:
    """Flat grid indices (C order) grouped coarsest-level first.

    A point's level is the *max* of its per-axis refinement depths, so
    level ``L`` is exactly the dyadic sub-grid of spacing ``2^-L`` minus
    all coarser points.  Sweeping the levels in order with a barrier in
    between guarantees every point's neighborhood of coarser points is
    solved before the point itself — the warm-start donor stencils are
    then centered and deterministic, independent of worker timing.
    """
    if not shape:
        raise ValidationError("shape must not be empty")
    axis_depths = [axis_refinement_depths(n) for n in shape]
    levels: dict[int, list[int]] = {}
    for flat, idx in enumerate(itertools.product(*(range(n) for n in shape))):
        level = max(d[i] for d, i in zip(axis_depths, idx))
        levels.setdefault(level, []).append(flat)
    return [levels[level] for level in sorted(levels)]


@dataclass
class SweepPoint:
    """One condition's outcome."""

    overrides: dict
    result: SolverResult
    landscape: ProbabilityLandscape
    solve_seconds: float

    def summary(self) -> dict:
        """Scalar descriptors of this condition's steady state."""
        means = self.landscape.mean_counts()
        out = {f"rate:{k}": v for k, v in self.overrides.items()}
        out.update({f"mean:{k}": round(v, 3) for k, v in means.items()})
        out["entropy"] = round(self.landscape.entropy(), 3)
        out["iterations"] = self.result.iterations
        out["residual"] = self.result.residual
        out["stop"] = self.result.stop_reason.value
        return out


@dataclass
class ParameterSweep:
    """A grid sweep over reaction-rate overrides.

    Parameters
    ----------
    network:
        The base network; each grid point is solved on
        ``network.with_rates(...)``.
    grid:
        Mapping ``reaction name -> list of rates``; the sweep runs the
        full Cartesian product.
    reuse_state_space:
        Rate changes never alter *reachability* for strictly-positive
        propensities, so by default the state space is enumerated once
        and only the matrix is reassembled per point — the exact
        structure-reuse opportunity the paper's one-time GPU format
        transfer exploits.  Disable for custom propensities whose
        support depends on the swept rates.
    """

    network: ReactionNetwork
    grid: dict
    reuse_state_space: bool = True
    points: list = field(default_factory=list, init=False)
    #: Metrics from the last served run (None after a serial run).
    service_snapshot: dict | None = field(default=None, init=False)
    service_report: str | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if not self.grid:
            raise ValidationError("sweep grid must not be empty")
        unknown = set(self.grid) - {r.name for r in self.network.reactions}
        if unknown:
            raise ValidationError(
                f"grid references unknown reactions {sorted(unknown)}")
        for name, values in self.grid.items():
            if not list(values):
                raise ValidationError(f"empty value list for {name!r}")

    def conditions(self) -> list[dict]:
        """The Cartesian product of the grid, as override dicts."""
        names = sorted(self.grid)
        combos = itertools.product(*(list(self.grid[n]) for n in names))
        return [dict(zip(names, combo)) for combo in combos]

    def run(self, *, tol: float = 1e-8, max_iterations: int = 200_000,
            solver_kwargs: dict | None = None,
            workers: int | None = None,
            cache: bool = True,
            warm_start: bool = False,
            service=None,
            batch: int | None = None,
            progress=None) -> list[SweepPoint]:
        """Solve every condition; returns (and stores) the sweep points.

        The default is the plain serial loop.  Passing ``workers`` (or a
        prebuilt :class:`repro.serve.SolveService` via ``service``)
        routes the sweep through the solve service: a worker pool over a
        shared state space, content-addressed caching (``cache``), and
        nearest-neighbor warm starting (``warm_start``).  Passing
        ``batch=K`` instead runs the serial path through
        :class:`~repro.solvers.batched.BatchedJacobiSolver`: conditions
        are grouped K at a time into one stacked solve and advanced
        together, one stacked sweep per iteration.  Points come
        back in the same canonical condition order on every path, and
        the solved systems are constructed identically, so the paths
        agree on the results.
        """
        if service is not None or (workers is not None and workers != 1):
            return self._run_served(
                tol=tol, max_iterations=max_iterations,
                solver_kwargs=solver_kwargs, workers=workers or 1,
                cache=cache, warm_start=warm_start, service=service,
                progress=progress)
        if batch is not None:
            return self._run_batched(
                tol=tol, max_iterations=max_iterations,
                solver_kwargs=solver_kwargs, batch=batch,
                progress=progress)
        self.service_snapshot = None
        self.service_report = None
        base_space = (enumerate_state_space(self.network)
                      if self.reuse_state_space else None)
        self.points = []
        for overrides in self.conditions():
            varied = self.network.with_rates(overrides)
            t0 = time.perf_counter()
            space = self._space_for(varied, base_space)
            A = build_rate_matrix(space)
            solver = JacobiSolver(A, tol=tol,
                                  max_iterations=max_iterations,
                                  **(solver_kwargs or {}))
            result = solver.solve()
            elapsed = time.perf_counter() - t0
            point = SweepPoint(
                overrides=overrides,
                result=result,
                landscape=ProbabilityLandscape(space, result.x),
                solve_seconds=elapsed,
            )
            self.points.append(point)
            if progress is not None:
                progress(point)
        return self.points

    def _space_for(self, varied, base_space):
        """The (possibly shared) state space bound to *varied*'s rates."""
        if base_space is None:
            return enumerate_state_space(varied)
        # Rebind the varied network so propensities use the new rates
        # over the shared state list.
        from repro.cme.statespace import StateSpace
        return StateSpace(network=varied, states=base_space.states)

    def _run_batched(self, *, tol, max_iterations, solver_kwargs, batch,
                     progress) -> list[SweepPoint]:
        """The stacked-batch sweep: K conditions per fused Jacobi solve.

        Each chunk's conditions are the columns of one
        system-interleaved block, iterated in lockstep (see
        :class:`~repro.solvers.batched.BatchedJacobiSolver`); a
        condition that converges retires early, so slow conditions never
        hold finished ones hostage.  Per-point ``solve_seconds`` is the
        chunk's wall time amortized over its conditions.
        """
        from repro.solvers import BatchedJacobiSolver

        if batch <= 0:
            raise ValidationError(f"batch must be positive, got {batch}")
        kwargs = dict(solver_kwargs or {})
        unsupported = set(kwargs) - {"damping", "check_interval",
                                     "normalize_interval", "stagnation_tol",
                                     "backend"}
        if unsupported:
            raise ValidationError(
                f"batched sweep does not support solver options "
                f"{sorted(unsupported)}; run serially for those")
        self.service_snapshot = None
        self.service_report = None
        base_space = (enumerate_state_space(self.network)
                      if self.reuse_state_space else None)
        conditions = self.conditions()
        self.points = []
        for lo in range(0, len(conditions), batch):
            chunk = conditions[lo:lo + batch]
            t0 = time.perf_counter()
            spaces, matrices = [], []
            for overrides in chunk:
                space = self._space_for(self.network.with_rates(overrides),
                                        base_space)
                spaces.append(space)
                matrices.append(build_rate_matrix(space))
            solver = BatchedJacobiSolver.stacked(
                matrices, tol=tol, max_iterations=max_iterations, **kwargs)
            results = solver.solve_many()
            elapsed = (time.perf_counter() - t0) / len(chunk)
            for overrides, space, result in zip(chunk, spaces, results):
                point = SweepPoint(
                    overrides=overrides,
                    result=result,
                    landscape=ProbabilityLandscape(space, result.x),
                    solve_seconds=elapsed,
                )
                self.points.append(point)
                if progress is not None:
                    progress(point)
        return self.points

    def _run_served(self, *, tol, max_iterations, solver_kwargs, workers,
                    cache, warm_start, service, progress) -> list[SweepPoint]:
        """The service-backed sweep: coarse-to-fine levels with barriers.

        Each dyadic level of the grid is submitted as a batch and fully
        gathered before the next level starts.  The barrier costs a
        little tail latency per level but buys a *deterministic* donor
        pool: when warm starting, every point's donors come from the
        completed coarser levels that bracket it, never from a racing
        same-level neighbor on one side.
        """
        from repro.serve import SolveService

        conditions = self.conditions()
        names = sorted(self.grid)
        shape = tuple(len(list(self.grid[n])) for n in names)
        owns_service = service is None
        svc = service if service is not None else SolveService(
            self.network, workers=workers, cache=cache,
            warm_start=warm_start, tol=tol, max_iterations=max_iterations,
            solver_options=solver_kwargs or {},
            reuse_state_space=self.reuse_state_space)
        outcomes: list = [None] * len(conditions)
        try:
            for depth, level in enumerate(coarse_to_fine_levels(shape)):
                jobs = [(i, svc.submit(conditions[i], priority=depth))
                        for i in level]
                for i, job in jobs:
                    outcomes[i] = job.result()
            self.service_snapshot = svc.snapshot()
            self.service_report = svc.render_metrics()
        finally:
            if owns_service:
                svc.close()
        self.points = []
        for overrides, outcome in zip(conditions, outcomes):
            point = SweepPoint(
                overrides=overrides,
                result=outcome.result,
                landscape=outcome.landscape,
                solve_seconds=outcome.solve_seconds,
            )
            self.points.append(point)
            if progress is not None:
                progress(point)
        return self.points

    def table(self) -> Table:
        """All conditions' summaries as one table."""
        if not self.points:
            raise ValidationError("run() the sweep first")
        headers = list(self.points[0].summary())
        table = Table(headers, title=f"Sweep of {self.network.name!r} "
                                     f"({len(self.points)} conditions)")
        for point in self.points:
            summary = point.summary()
            table.add_row([summary[h] for h in headers])
        return table

    def total_solve_seconds(self) -> float:
        return sum(p.solve_seconds for p in self.points)
