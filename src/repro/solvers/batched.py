"""Stacked multi-RHS Jacobi: K steady states per sweep.

The paper's motivating workload (Section I) is *many* steady-state
solves — a parameter sweep over rate conditions — and each plain solve
spends its time in memory-bound SpMV sweeps.  Batching K iterates into
the columns of an ``(n, K)`` block turns K sweeps into one stacked
sweep, which is how multi-RHS GPU kernels amortize bandwidth; on the
CPU the same restructuring amortizes the per-sweep traversal and loop
overhead.

:meth:`BatchedJacobiSolver.stacked` takes K same-shaped generators (a
sweep's rate conditions over one state space) and sweeps them in one
``(n, K)`` block, system-interleaved: column ``s`` belongs to system
``s`` and every column starts from the uniform distribution.  Each
renormalization interval is one ``jacobi_sweep_many(..., sweeps=k)``
call.  The backend picks the kernel (the native one vectorizes across
systems that share a sparsity pattern and sweeps any other stack one
system at a time; the reference loops over the systems) and gives
bitwise-identical iterates.  Each live column's residual check is its
own SciPy product ``A @ x``, the one the serial loop checks with.  When
a column retires the block is compacted, kept C-contiguous so the
kernels keep serving it.

Columns run in lockstep but stop independently: each has its own
:class:`~repro.solvers.stopping.StoppingCriterion`, and a column that
converges, stagnates or diverges is *retired* — its result is recorded
and the block is compacted so later sweeps do no work for it.  Each
column also has its own :class:`~repro.solvers.stopping.Extrapolator`:
a column whose extrapolated candidate passes the tolerance retires
with the candidate.  The arithmetic per column is identical to
:class:`~repro.solvers.jacobi.JacobiSolver`'s, so a stacked solve
reproduces the serial answers.

Note: the batched loop is fail-fast (no guardrail rollbacks) — a
non-finite column simply retires as DIVERGED.
"""

from __future__ import annotations

import time

import numpy as np

from repro import backends
from repro.errors import (
    CheckpointError,
    SingularSystemError,
    ValidationError,
)
from repro.solvers.base import matrix_derived
from repro.solvers.normalization import renormalize, uniform_probability
from repro.solvers.result import SolverResult, StopReason
from repro.solvers.stopping import Extrapolator, StoppingCriterion
from repro.sparse.base import SparseFormat, as_csr
from repro.telemetry import tracing


def _to_csr(matrix):
    if isinstance(matrix, SparseFormat) or hasattr(matrix, "to_scipy"):
        return as_csr(matrix.to_scipy())
    return as_csr(matrix)


def _check_system(A) -> None:
    """The singularity checks Jacobi needs."""
    derived = matrix_derived(A)
    if derived["zero_rows"].size:
        rows = derived["zero_rows"][:5].tolist()
        raise SingularSystemError(
            f"generator has all-zero row(s) {rows}: isolated states make "
            f"the steady state non-unique", rows=rows)
    zero_diag = np.flatnonzero(derived["diagonal"] == 0.0)
    if zero_diag.size:
        raise SingularSystemError(
            "Jacobi iteration needs a nonzero diagonal "
            f"(zero at rows {zero_diag[:5].tolist()})",
            rows=zero_diag[:5].tolist())


class BatchedJacobiSolver:
    """Lockstep Jacobi over K same-shaped generators, one column each.

    ``matrices`` is a sequence of generators (built through
    :meth:`stacked`); the other parameters mirror
    :class:`~repro.solvers.jacobi.JacobiSolver`'s, and ``tol`` holds
    for every column.
    """

    span_name = "jacobi.batched"

    def __init__(self, matrices, *, tol: float = 1e-8,
                 max_iterations: int = 1_000_000,
                 check_interval: int = 100,
                 normalize_interval: int = 10,
                 stagnation_tol: float | None = 1e-6,
                 damping: float = 1.0,
                 backend=None):
        if hasattr(matrices, "shape"):
            # Iterating one matrix would walk its rows.
            raise ValidationError(
                "BatchedJacobiSolver takes a sequence of generators, one "
                "per column; got a single matrix")
        systems = [_to_csr(m) for m in matrices]
        if not systems:
            raise ValidationError("stacked batch needs at least one matrix")
        shape = systems[0].shape
        if shape[0] != shape[1]:
            raise ValidationError("steady-state solve needs a square matrix")
        for A in systems[1:]:
            if A.shape != shape:
                raise ValidationError(
                    f"stacked systems must share one shape; got {A.shape} "
                    f"vs {shape} (sweep a single state space)")
        if (check_interval <= 0 or normalize_interval is None
                or normalize_interval <= 0):
            raise ValidationError("intervals must be positive")
        if not (0.0 < damping <= 1.0):
            raise ValidationError(f"damping must be in (0, 1], got {damping}")
        self.backend = backend
        if backend is not None:
            backends.resolve(backend)   # fail fast on unknown names
        for A in systems:
            _check_system(A)
        self.n = shape[0]
        self._systems = systems
        self.tol = float(tol)
        self.max_iterations = int(max_iterations)
        self.check_interval = int(check_interval)
        self.normalize_interval = int(normalize_interval)
        self.stagnation_tol = stagnation_tol
        self.damping = float(damping)
        #: Products performed by the last :meth:`solve_many`: one per
        #: stacked sweep (whatever its width) plus one per column
        #: checked.
        self.products = 0
        self.sweeps = 0

    @classmethod
    def stacked(cls, matrices, **kwargs) -> "BatchedJacobiSolver":
        """K same-shaped generators, one per column (see module doc)."""
        return cls(matrices, **kwargs)

    # -- solve ---------------------------------------------------------------

    def solve_many(self, *, checkpointer=None) -> list[SolverResult]:
        """Solve all K columns; returns results in system order.

        ``checkpointer``, an optional
        :class:`~repro.durability.Checkpointer`, writes durable
        snapshots (kind ``"batched"``) at residual-check boundaries:
        the whole block — retired columns' final answers plus the live
        iterates — and each live column's previous checked iterate
        (``X_prev``), with per-column histories, criterion states,
        extrapolation depths and retirement records, so a resumed batch
        continues with the same retirements and iterates.
        """
        systems = self._systems
        total = len(systems)
        X = np.repeat(uniform_probability(self.n)[:, None], total, axis=1)
        self.products = 0
        self.sweeps = 0
        results: list[SolverResult | None] = [None] * total
        derived = [matrix_derived(A) for A in systems]

        # Kernel backends (resolved once per solve so ambient use() /
        # REPRO_BACKEND selections are honored): the sweep folds product
        # + update + damping into one call per renormalization interval
        # on every backend, with bitwise-identical iterates.
        be = backends.serving("", "jacobi_sweep_many", self.backend)
        norm = backends.serving("", "renormalize_columns", self.backend)

        criteria = [StoppingCriterion(
            d["inf_norm"], tol=self.tol,
            max_iterations=self.max_iterations,
            stagnation_tol=self.stagnation_tol, backend=be) for d in derived]
        extrapolators = [Extrapolator() for _ in range(total)]
        histories: list[list[tuple[int, float]]] = [[] for _ in range(total)]
        active = list(range(total))
        # The iterates and diagonals are the columns of (n, k) blocks,
        # system-interleaved (element i of all k systems adjacent), the
        # layout the stacked kernels take.  Every block stays
        # C-contiguous: compacting columns with ``M[:, idx]`` alone
        # would return an F-ordered copy, which the kernels cannot take.
        D = np.stack([d["diagonal"] for d in derived], axis=1)

        def take(M, idx):
            return np.ascontiguousarray(M[:, idx])

        t0 = time.perf_counter()
        iteration = 0
        extrapolated = 0   # columns retired by the extrapolated stop

        def retire(j: int, column: np.ndarray, reason: StopReason,
                   residual: float, iters: int) -> None:
            x = (column if reason is StopReason.DIVERGED
                 else renormalize(column))
            results[j] = SolverResult(
                x=x, iterations=iters, residual=residual,
                stop_reason=reason, residual_history=histories[j],
                runtime_s=time.perf_counter() - t0)

        def durable_save() -> None:
            """Snapshot the whole block (kind ``"batched"``).

            Taken at the residual-check boundary, after retirement and
            compaction — the same state the loop itself carries into
            the next batch, so a resume from the saved block replays
            the sweeps bitwise.
            """
            X_all = np.zeros((self.n, total), dtype=np.float64)
            X_prev = np.zeros((self.n, total), dtype=np.float64)
            retired: dict[str, dict] = {}
            for j, r in enumerate(results):
                if r is None:
                    continue
                X_all[:, j] = r.x
                retired[str(j)] = {
                    "iterations": int(r.iterations),
                    "residual": (None if not np.isfinite(r.residual)
                                 else float(r.residual)),
                    "stop_reason": r.stop_reason.value,
                    "runtime_s": float(r.runtime_s),
                }
            for c, j in enumerate(active):
                X_all[:, j] = X[:, c]
                if extrapolators[j].previous is not None:
                    X_prev[:, j] = extrapolators[j].previous
            meta = {
                "iteration": int(iteration),
                "active": [int(j) for j in active],
                "histories": [[[int(i), float(r)] for i, r in h]
                              for h in histories],
                "criteria": [criteria[j].state_dict() for j in active],
                "prev_depths": [extrapolators[j].depth for j in active],
                "retired": retired,
            }
            checkpointer.save(iteration, {"X": X_all, "X_prev": X_prev},
                              meta, kind="batched")

        span = tracing.span(f"{self.span_name}.solve_many", n=self.n,
                            k=total)
        span.set_attribute("backend", be.name)
        resumed = (checkpointer.load_latest(kind="batched")
                   if checkpointer is not None and checkpointer.resume
                   else None)
        with span:
            if resumed is not None:
                meta = resumed.meta
                X_all = resumed.arrays.get("X")
                if X_all is None or X_all.shape != (self.n, total):
                    shape = None if X_all is None else X_all.shape
                    raise CheckpointError(
                        f"batched checkpoint block has shape {shape}, "
                        f"expected {(self.n, total)}")
                iteration = int(meta["iteration"])
                span.set_attribute("resumed_iteration", iteration)
                histories = [[(int(i), float(r)) for i, r in h]
                             for h in meta.get("histories", [])]
                while len(histories) < total:
                    histories.append([])
                for key, info in meta.get("retired", {}).items():
                    j = int(key)
                    res = info.get("residual")
                    results[j] = SolverResult(
                        x=X_all[:, j].copy(),
                        iterations=int(info["iterations"]),
                        residual=(float("inf") if res is None
                                  else float(res)),
                        stop_reason=StopReason(info["stop_reason"]),
                        residual_history=histories[j],
                        runtime_s=float(info.get("runtime_s", 0.0)))
                active = [int(j) for j in meta.get("active", [])]
                for j, state in zip(active, meta.get("criteria", [])):
                    criteria[j].load_state(state)
                X_prev = resumed.arrays.get("X_prev")
                for j, depth in zip(active, meta.get("prev_depths", [])):
                    extrapolators[j].restore(
                        X_all[:, j],
                        None if X_prev is None else X_prev[:, j], depth)
                if active:
                    X = take(X_all, active)
                    D = take(D, active)
            norm_every = self.normalize_interval
            while active:
                budget = min(self.check_interval,
                             self.max_iterations - iteration)
                # Scratch for the sweeps: each writes its update there,
                # so the hot loop allocates nothing.
                S = np.empty_like(X)
                live = [systems[j] for j in active]
                done = 0
                while done < budget:
                    # One renormalization interval per kernel call: the
                    # products never materialize in Python, but they
                    # happened — count them so the amortization
                    # accounting (products per sweep) stays truthful.
                    k = min(budget - done,
                            norm_every - iteration % norm_every)
                    self.products += k
                    be.jacobi_sweep_many(live, D, X, damping=self.damping,
                                         out=S, sweeps=k)
                    X, S = S, X
                    iteration += k
                    self.sweeps += k
                    done += k
                    if iteration % norm_every == 0:
                        # A column that fails the gate is left as it was.
                        norm.renormalize_columns(X)
                # Batch-end: renormalize the live columns, then check
                # each with its own product, the serial loop's A @ x.
                col_ok = norm.renormalize_columns(X)
                retired_cols: list[int] = []
                for c, j in enumerate(active):
                    if not col_ok[c]:
                        histories[j].append((iteration, float("inf")))
                        retire(j, X[:, c].copy(), StopReason.DIVERGED,
                               float("inf"), iteration)
                        retired_cols.append(c)
                        continue
                    self.products += 1
                    stop, res = criteria[j].check(
                        iteration, systems[j] @ X[:, c], X[:, c])
                    histories[j].append((iteration, res))
                    if stop is None:
                        hit = extrapolators[j].stop(
                            X[:, c], lambda z: systems[j] @ z, criteria[j])
                        if hit is not None:
                            z, res = hit
                            histories[j].append((iteration, res))
                            retire(j, z, StopReason.CONVERGED, res,
                                   iteration)
                            retired_cols.append(c)
                            extrapolated += 1
                            continue
                    if stop is None and iteration >= self.max_iterations:
                        stop = StopReason.MAX_ITERATIONS
                    if stop is not None:
                        retire(j, X[:, c].copy(), stop, res, iteration)
                        retired_cols.append(c)
                if retired_cols:
                    keep = [c for c in range(len(active))
                            if c not in retired_cols]
                    active = [active[c] for c in keep]
                    if not active:
                        break
                    X = take(X, keep)
                    D = take(D, keep)
                if checkpointer is not None and checkpointer.due(iteration):
                    durable_save()
            span.set_attribute("iterations", iteration)
            span.set_attribute("products", self.products)
            if extrapolated:
                span.set_attribute("extrapolated", extrapolated)
        return results  # type: ignore[return-value]
