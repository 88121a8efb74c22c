"""Blocked multi-RHS Jacobi: K steady states per sweep, one product each.

The paper's motivating workload (Section I) is *many* steady-state
solves — a parameter sweep or a queue of near-identical requests — and
each plain solve spends its time in memory-bound SpMV sweeps.  Batching
K iterates into the columns of an ``(n, K)`` block turns K SpMVs into
one SpMM per sweep: the matrix is streamed from memory once per sweep
instead of K times, which is exactly how multi-RHS GPU kernels amortize
bandwidth.  On the CPU reference the same restructuring amortizes the
per-product traversal and loop overhead.

Every batch is a stack of K same-shaped generators in one ``(n, K)``
block, system-interleaved: column ``s`` belongs to system ``s``.
:meth:`BatchedJacobiSolver.stacked` takes K generators (a sweep's rate
conditions over one state space); the constructor takes one generator
and sweeps it as the stack ``[A] * K`` (coalesced service requests on
one condition with different tolerances or warm starts).  Each
renormalization interval is one ``jacobi_sweep_many(..., sweeps=k)``
call and its residual products one ``spmv_many`` call.  The backend
picks the kernel (the native one vectorizes across systems that share
a sparsity pattern and sweeps any other stack one system at a time;
the reference loops over the systems) and gives bitwise-identical
iterates.  When a column retires the block is compacted, kept
C-contiguous so the kernels keep serving it.  The first sweep after a
residual check consumes the check's product.

Columns run in lockstep but stop independently: each has its own
:class:`~repro.solvers.stopping.StoppingCriterion` (and optionally its
own tolerance), and a column that converges, stagnates or diverges is
*retired* — its result is recorded and the block is compacted so later
sweeps do no work for it.  The arithmetic per column is identical to
:class:`~repro.solvers.jacobi.JacobiSolver`'s, so a batched solve
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
    IterateSizeError,
    SingularSystemError,
    ValidationError,
)
from repro.solvers.base import matrix_derived
from repro.solvers.normalization import renormalize, uniform_probability
from repro.solvers.result import SolverResult, StopReason
from repro.solvers.stopping import StoppingCriterion
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
    """Lockstep Jacobi over the columns of one ``(n, K)`` block.

    Parameters mirror :class:`~repro.solvers.jacobi.JacobiSolver`;
    ``tol`` is the default per-column tolerance, which :meth:`solve_many`
    can override per column.  A solver built on one generator batches
    any number of columns of it; :meth:`stacked` builds one with a
    column per generator.
    """

    span_name = "jacobi.batched"

    def __init__(self, matrix, *, tol: float = 1e-8,
                 max_iterations: int = 1_000_000,
                 check_interval: int = 100,
                 normalize_interval: int = 10,
                 stagnation_tol: float | None = 1e-6,
                 damping: float = 1.0,
                 backend=None):
        self._init_params(tol=tol, max_iterations=max_iterations,
                          check_interval=check_interval,
                          normalize_interval=normalize_interval,
                          stagnation_tol=stagnation_tol, damping=damping,
                          backend=backend)
        A = _to_csr(matrix)
        if A.shape[0] != A.shape[1]:
            raise ValidationError("steady-state solve needs a square matrix")
        _check_system(A)
        self.A = A
        self.n = A.shape[0]
        self._systems = None

    @classmethod
    def stacked(cls, matrices, **kwargs) -> "BatchedJacobiSolver":
        """K same-shaped generators, one per column (see module doc)."""
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
        self = cls.__new__(cls)
        self._init_params(**{**dict(tol=1e-8, max_iterations=1_000_000,
                                    check_interval=100, normalize_interval=10,
                                    stagnation_tol=1e-6, damping=1.0,
                                    backend=None),
                             **kwargs})
        for A in systems:
            _check_system(A)
        self.A = None
        self.n = shape[0]
        self._systems = systems
        return self

    def _init_params(self, *, tol, max_iterations, check_interval,
                     normalize_interval, stagnation_tol, damping,
                     backend=None) -> None:
        if check_interval <= 0 or (normalize_interval is not None
                                   and normalize_interval <= 0):
            raise ValidationError("intervals must be positive")
        if not (0.0 < damping <= 1.0):
            raise ValidationError(f"damping must be in (0, 1], got {damping}")
        self.backend = backend
        if backend is not None:
            backends.resolve(backend)   # fail fast on unknown names
        self.tol = float(tol)
        self.max_iterations = int(max_iterations)
        self.check_interval = int(check_interval)
        self.normalize_interval = (None if normalize_interval is None
                                   else int(normalize_interval))
        self.stagnation_tol = stagnation_tol
        self.damping = float(damping)
        #: Multi-RHS products performed by the last :meth:`solve_many`
        #: (one per sweep plus one per residual check batch, minus the
        #: checks whose product seeded the following sweep).
        self.products = 0
        self.sweeps = 0

    # -- solve ---------------------------------------------------------------

    def _initial_block(self, x0s, k: int | None):
        if x0s is None:
            if k is None:
                raise ValidationError(
                    "solve_many needs x0s or an explicit column count k")
            cols = [None] * int(k)
        else:
            cols = list(x0s)
            if k is not None and k != len(cols):
                raise ValidationError(
                    f"k={k} disagrees with len(x0s)={len(cols)}")
        if self._systems is not None and len(cols) != len(self._systems):
            raise ValidationError(
                f"stacked batch has {len(self._systems)} systems but "
                f"{len(cols)} columns were requested")
        X = np.empty((self.n, len(cols)), dtype=np.float64)
        warm = np.zeros(len(cols), dtype=bool)
        for j, col in enumerate(cols):
            if col is None:
                X[:, j] = uniform_probability(self.n)
                continue
            x = np.asarray(col, dtype=np.float64)
            if x.shape != (self.n,):
                raise IterateSizeError(self.n, x.shape, name=f"x0s[{j}]")
            if not np.all(np.isfinite(x)):
                raise ValidationError(f"x0s[{j}] contains non-finite entries")
            if np.any(x < 0.0):
                raise ValidationError(f"x0s[{j}] contains negative entries")
            X[:, j] = renormalize(x)
            warm[j] = True
        return X, warm

    def solve_many(self, x0s=None, *, k: int | None = None,
                   tols=None,
                   time_budget_s: float | None = None,
                   checkpointer=None) -> list[SolverResult]:
        """Solve all K columns; returns results in input order.

        Parameters
        ----------
        x0s:
            Optional initial iterates, one per column (``None`` entries
            start uniform).  A warm column already within its tolerance
            retires immediately with ``iterations=0``.
        k:
            Column count when ``x0s`` is omitted (a :meth:`stacked`
            solver infers K from its systems).
        tols:
            Optional per-column tolerances overriding the constructor's
            ``tol`` — the one loop parameter that may vary per column.
        time_budget_s:
            Wall-clock budget for the whole batch; on expiry every
            still-active column returns ``TIMED_OUT``.
        checkpointer:
            Optional :class:`~repro.durability.Checkpointer` writing
            durable snapshots (kind ``"batched"``) at residual-check
            boundaries: the whole block — retired columns' final
            answers plus the live iterates — with per-column histories,
            criterion states and retirement records, so a resumed batch
            continues with the same retirements and iterates.
        """
        if x0s is None and k is None and self._systems is not None:
            k = len(self._systems)
        X, warm = self._initial_block(x0s, k)
        total = X.shape[1]
        if tols is not None and len(tols) != total:
            raise ValidationError(
                f"tols must have one entry per column ({total}), "
                f"got {len(tols)}")
        if time_budget_s is not None and time_budget_s <= 0:
            raise ValidationError(
                f"time_budget_s must be positive, got {time_budget_s}")
        self.products = 0
        self.sweeps = 0
        results: list[SolverResult | None] = [None] * total
        if total == 0:
            return []

        # One generator is swept once per column, as the stack [A] * K.
        systems = self._systems or [self.A] * total
        derived = [matrix_derived(A) for A in systems]

        # Kernel backends (resolved once per solve so ambient use() /
        # REPRO_BACKEND selections are honored): the sweep folds product
        # + update + damping into one call per renormalization interval
        # on every backend, with bitwise-identical iterates.
        be = backends.serving("", "jacobi_sweep_many", self.backend)
        many = backends.serving("", "spmv_many", self.backend)
        norm = backends.serving("", "renormalize_columns", self.backend)

        criteria = [StoppingCriterion(
            derived[j]["inf_norm"],
            tol=float(self.tol if tols is None else tols[j]),
            max_iterations=self.max_iterations,
            stagnation_tol=self.stagnation_tol,
            backend=be) for j in range(total)]
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

        def block_product(Xb):
            self.products += 1
            return many.spmv_many([systems[j] for j in active], Xb)
        t0 = time.perf_counter()
        iteration = 0

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
            the next batch, so a resume recomputing the seeding product
            from the saved block replays the sweeps bitwise.
            """
            if checkpointer is None:
                return
            X_all = np.zeros((self.n, total), dtype=np.float64)
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
            meta = {
                "iteration": int(iteration),
                "active": [int(j) for j in active],
                "histories": [[[int(i), float(r)] for i, r in h]
                              for h in histories],
                "criteria": [criteria[j].state_dict() for j in active],
                "retired": retired,
            }
            checkpointer.maybe_save(iteration, {"X": X_all}, meta,
                                    kind="batched")

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
                if active:
                    X = take(X_all, active)
                    D = take(D, active)
                # The seeding product is recomputed from the restored
                # block on the first sweep — same bits the uninterrupted
                # loop carried as pending_Y.
                pending_Y = None
            else:
                # The initial product doubles as the warm-start residual
                # test and the seed of the first sweep (product reuse).
                Y = block_product(X)
                for j in list(active):
                    if not warm[j]:
                        continue
                    res = criteria[j].normalized_residual(Y[:, j],
                                                          X[:, j])
                    histories[j].append((0, res))
                    if res <= criteria[j].tol:
                        retire(j, X[:, j].copy(), StopReason.CONVERGED,
                               res, 0)
                        active.remove(j)
                if len(active) < total and active:
                    mask = [j in active for j in range(total)]
                    X = take(X, mask)
                    Y = take(Y, mask)
                    D = take(D, mask)
                pending_Y = Y if active else None
            norm_every = self.normalize_interval
            while active:
                budget = min(self.check_interval,
                             self.max_iterations - iteration)
                # Scratch for the sweeps: each writes its update in
                # place, so the hot loop allocates nothing but the
                # product.  The inline step's ``(D*X - Y)/D`` is the
                # serial ``-(Y - D*X)/D`` with the negation folded into
                # the subtraction — bitwise identical (IEEE rounding is
                # symmetric under sign flip), one temporary instead of
                # four.
                S = np.empty_like(X)
                B = np.empty_like(X) if self.damping != 1.0 else None
                live = [systems[j] for j in active]
                done = 0
                while done < budget:
                    if pending_Y is None:
                        # One renormalization interval per kernel call:
                        # the products never materialize in Python, but
                        # they happened — count them so the amortization
                        # accounting (products per sweep) stays truthful.
                        k = budget - done
                        if norm_every is not None:
                            k = min(k, norm_every - iteration % norm_every)
                        self.products += k
                        be.jacobi_sweep_many(live, D, X,
                                             damping=self.damping,
                                             out=S, sweeps=k)
                    else:
                        k = 1
                        Y, pending_Y = pending_Y, None
                        np.multiply(D, X, out=S)
                        np.subtract(S, Y, out=S)
                        np.divide(S, D, out=S)
                        if B is not None:
                            np.multiply(X, 1.0 - self.damping, out=B)
                            np.multiply(S, self.damping, out=S)
                            np.add(B, S, out=S)
                    X, S = S, X
                    iteration += k
                    self.sweeps += k
                    done += k
                    if norm_every is not None and iteration % norm_every == 0:
                        # A column that fails the gate is left as it was.
                        norm.renormalize_columns(X)
                # Batch-end: renormalize the live columns, then one
                # product serves every column's residual check and (for
                # survivors) seeds the next batch's first sweep.
                col_ok = norm.renormalize_columns(X)
                Y = block_product(X)
                expired = (time_budget_s is not None
                           and time.perf_counter() - t0 >= time_budget_s)
                retired_cols: list[int] = []
                for c, j in enumerate(active):
                    if not col_ok[c]:
                        histories[j].append((iteration, float("inf")))
                        retire(j, X[:, c].copy(), StopReason.DIVERGED,
                               float("inf"), iteration)
                        retired_cols.append(c)
                        continue
                    stop, res = criteria[j].check(iteration, Y[:, c],
                                                  X[:, c])
                    histories[j].append((iteration, res))
                    if stop is None and expired:
                        stop = StopReason.TIMED_OUT
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
                    Y = take(Y, keep)
                    D = take(D, keep)
                pending_Y = Y
                durable_save()
            span.set_attribute("iterations", iteration)
            span.set_attribute("products", self.products)
        return results  # type: ignore[return-value]
