"""Blocked multi-RHS Jacobi: K steady states per sweep, one product each.

The paper's motivating workload (Section I) is *many* steady-state
solves — a parameter sweep or a queue of near-identical requests — and
each plain solve spends its time in memory-bound SpMV sweeps.  Batching
K iterates into the columns of an ``(n, K)`` block turns K SpMVs into
one SpMM per sweep: the matrix is streamed from memory once per sweep
instead of K times, which is exactly how multi-RHS GPU kernels amortize
bandwidth.  On the CPU reference the same restructuring amortizes the
per-product traversal and loop overhead.

Two batching modes:

*shared* (the constructor)
    One generator, K right-hand iterates — e.g. coalesced service
    requests on the same condition with different tolerances or warm
    starts.  The sweep is a true SpMM ``A @ X``.

*stacked* (:meth:`BatchedJacobiSolver.stacked`)
    K same-shaped generators (a sweep's rate conditions over one state
    space).  When the kernel backend has fused stacked kernels and the
    systems share one sparsity pattern (its ``can_stack`` probe), the
    block is kept system-interleaved and each renormalization interval
    is one ``jacobi_sweep_many(..., sweeps=k)`` call.  Otherwise the
    systems are mounted on the block diagonal of one large CSR and the
    sweep is a single SpMV on the stacked system (the reference), or
    each system's row is swept in its own fused call (a backend
    without a usable stacked kernel).  When a column retires the block
    is compacted — kept C-contiguous, so the fused kernels keep
    serving it — and the block diagonal is rebuilt without it.

With a fused backend the uninstrumented sweep loop advances one
renormalization interval per kernel call (the first sweep after a
residual check still consumes the check's product); the reference
backend sweeps one step at a time, as the parity baseline.

Columns run in lockstep but stop independently: each has its own
:class:`~repro.solvers.stopping.StoppingCriterion` (and optionally its
own tolerance), and a column that converges, stagnates or diverges is
*retired* — its result is recorded and the block is compacted so later
sweeps do no work for it.  The arithmetic per column is identical to
:class:`~repro.solvers.jacobi.JacobiSolver`'s fast backend, so a batched
solve reproduces the serial answers.

Note: the batched loop is fail-fast (no guardrail rollbacks) — a
non-finite column simply retires as DIVERGED.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from repro import backends
from repro.errors import (
    BackendError,
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


def _check_system(A) -> dict:
    """Derived quantities plus the singularity checks Jacobi needs."""
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
    return derived


class BatchedJacobiSolver:
    """Lockstep Jacobi over the columns of one ``(n, K)`` block.

    Parameters mirror :class:`~repro.solvers.jacobi.JacobiSolver` (fast
    backend only); ``tol`` is the default per-column tolerance, which
    :meth:`solve_many` can override per column.
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
        derived = _check_system(A)
        self.mode = "shared"
        self.A = A
        self.n = A.shape[0]
        self._systems = None
        self._diagonal = derived["diagonal"]
        self._inf_norms = None
        self.matrix_inf_norm = derived["inf_norm"]

    @classmethod
    def stacked(cls, matrices, **kwargs) -> "BatchedJacobiSolver":
        """K same-shaped generators on one block diagonal (see module doc)."""
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
        derived = [_check_system(A) for A in systems]
        self.mode = "stacked"
        self.A = None
        self.n = shape[0]
        self._systems = systems
        self._diagonal = np.stack([d["diagonal"] for d in derived], axis=1)
        self._inf_norms = [d["inf_norm"] for d in derived]
        self.matrix_inf_norm = max(self._inf_norms)
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

    # -- the blocked product -------------------------------------------------

    def _stack_for(self, active: list[int]) -> sp.csr_matrix:
        return sp.csr_matrix(sp.block_diag(
            [self._systems[j] for j in active], format="csr"))

    def _product(self, X: np.ndarray, stack) -> np.ndarray:
        """The fused product in the mode's native block layout.

        Shared mode holds the block column-per-iterate (``(n, k)``, the
        SpMM orientation scipy's ``csr_matvecs`` wants); stacked mode
        holds it iterate-per-row (``(k, n)``), so raveling the block IS
        the stacked vector and both the product and its reshape are
        copy-free views.
        """
        self.products += 1
        if self.mode == "shared":
            return self.A @ X
        return (stack @ X.ravel()).reshape(X.shape)

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
        if self.mode == "stacked" and len(cols) != len(self._systems):
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
            Column count when ``x0s`` is omitted (shared mode only;
            stacked mode infers K from its systems).
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
        if x0s is None and k is None and self.mode == "stacked":
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

        def inf_norm(j: int) -> float:
            return (self.matrix_inf_norm if self._inf_norms is None
                    else self._inf_norms[j])

        # Kernel backend for the fused sweep (resolved once per solve so
        # ambient use()/REPRO_BACKEND selections are honored).  The
        # reference keeps the historical in-place ufunc chain; a JIT
        # backend folds product + update + damping into one kernel call
        # with bitwise-identical iterates.
        be = backends.serving("", "jacobi_sweep", self.backend)
        fused = not be.is_reference
        # Optional backend capability: one fused kernel call sweeping
        # every stacked system at once when they share a sparsity
        # pattern.  Discovered by name and confirmed up front via the
        # backend's ``can_stack`` probe, because the fused kernels want
        # the system-interleaved block layout chosen below — deciding
        # here keeps the layout fixed for the whole solve, and a kernel
        # refusing a block later is a bug, raised as BackendError.
        interleaved = (fused and self.mode == "stacked"
                       and all(hasattr(be, op) for op in (
                           "jacobi_sweep_many", "spmv_many", "can_stack"))
                       and be.can_stack(self._systems))
        # The (n, k) layouts renormalize every live column in one call.
        norm = backends.serving("", "renormalize_columns", self.backend)

        criteria = [StoppingCriterion(
            inf_norm(j),
            tol=float(self.tol if tols is None else tols[j]),
            max_iterations=self.max_iterations,
            stagnation_tol=self.stagnation_tol,
            backend=be if fused else None) for j in range(total)]
        histories: list[list[tuple[int, float]]] = [[] for _ in range(total)]
        active = list(range(total))
        shared = self.mode == "shared"
        # The block's native layout (see _product): shared keeps
        # iterates as columns of an (n, k) block; stacked without a
        # fused kernel holds them as rows of a (k, n) block so every
        # per-iterate view is contiguous and the scipy stacked product
        # needs no transpose copies.  When the backend's fused stacked
        # kernels serve the sweeps, the block instead stays (n, k)
        # SYSTEM-INTERLEAVED — element i of all k systems adjacent —
        # which is the layout those kernels vectorize across.
        # ``col``/``take`` abstract the orientation; the arithmetic is
        # identical in all three.  Every block stays C-contiguous:
        # compacting columns with ``M[:, idx]`` alone would return an
        # F-ordered copy, which the fused kernels cannot take.
        if shared or interleaved:
            D = (self._diagonal[:, None] if shared
                 else np.ascontiguousarray(self._diagonal))
            col = lambda M, c: M[:, c]              # noqa: E731
            take = lambda M, idx: np.ascontiguousarray(  # noqa: E731
                M[:, idx])
            reduce_axis = 0
        else:
            X = np.ascontiguousarray(X.T)
            D = np.ascontiguousarray(self._diagonal.T)
            col = lambda M, c: M[c]                 # noqa: E731
            take = lambda M, idx: M[idx]            # noqa: E731
            reduce_axis = 1
        # The block-diagonal stack is only needed by the scipy product;
        # when the backend's fused stacked product serves instead, the
        # (possibly large) block_diag build is skipped entirely.  A
        # ``None`` stack means "rebuild before the next scipy product".
        stack = None

        def block_product(Xb):
            nonlocal stack
            if interleaved:
                Yb = be.spmv_many([self._systems[j] for j in active], Xb)
                if Yb is None:
                    raise BackendError(
                        f"backend {be.name!r} refused a stacked product "
                        f"after can_stack accepted the systems")
                self.products += 1
                return Yb
            if stack is None and self.mode == "stacked":
                stack = self._stack_for(active)
            return self._product(Xb, stack)
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
                X_all[:, j] = col(X, c)
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
                            k=total, mode=self.mode)
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
                    X = (np.ascontiguousarray(X_all[:, active])
                         if shared or interleaved
                         else np.ascontiguousarray(X_all[:, active].T))
                    if self.mode == "stacked":
                        D = take(D, active)
                        stack = None
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
                    res = criteria[j].normalized_residual(col(Y, j),
                                                          col(X, j))
                    histories[j].append((0, res))
                    if res <= criteria[j].tol:
                        retire(j, col(X, j).copy(), StopReason.CONVERGED,
                               res, 0)
                        active.remove(j)
                if len(active) < total and active:
                    mask = [j in active for j in range(total)]
                    X = take(X, mask)
                    Y = take(Y, mask)
                    if self.mode == "stacked":
                        D = take(D, mask)
                        stack = None
                pending_Y = Y if active else None
            norm_every = self.normalize_interval
            while active:
                budget = min(self.check_interval,
                             self.max_iterations - iteration)
                # Scratch for the fused step: the sweep below writes
                # every update in place, so the hot loop allocates
                # nothing but the product.  ``(D*X - Y)/D`` is the
                # serial backend's ``-(Y - D*X)/D`` with the negation
                # folded into the subtraction — bitwise identical
                # (IEEE rounding is symmetric under sign flip), but one
                # temporary instead of four.
                S = np.empty_like(X)
                B = np.empty_like(X) if self.damping != 1.0 else None
                live = (None if shared
                        else [self._systems[j] for j in active])
                done = 0
                while done < budget:
                    if pending_Y is None and fused:
                        # Fused backend sweeps, one renormalization
                        # interval per kernel call: the products never
                        # materialize in Python, but they happened —
                        # count them so the amortization accounting
                        # (products per sweep) stays truthful.
                        k = budget - done
                        if norm_every is not None:
                            k = min(k, norm_every - iteration % norm_every)
                        self.products += k
                        if shared:
                            be.jacobi_sweep(self.A, self._diagonal, X,
                                            damping=self.damping, out=S,
                                            sweeps=k)
                        elif interleaved:
                            if be.jacobi_sweep_many(
                                    live, D, X, damping=self.damping,
                                    out=S, sweeps=k) is None:
                                raise BackendError(
                                    f"backend {be.name!r} refused a "
                                    f"stacked sweep after can_stack "
                                    f"accepted the systems")
                        else:
                            # Systems without a shared pattern: each
                            # row's interval in one call per system.
                            for c, A_c in enumerate(live):
                                be.jacobi_sweep(A_c, D[c], X[c],
                                                damping=self.damping,
                                                out=S[c], sweeps=k)
                    else:
                        k = 1
                        if pending_Y is not None:
                            Y, pending_Y = pending_Y, None
                        else:
                            Y = block_product(X)
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
                        if shared or interleaved:
                            # A column that fails the gate is left as
                            # it was, as the row path below leaves it.
                            norm.renormalize_columns(X)
                        else:
                            clipped = np.maximum(X, 0.0)
                            sums = clipped.sum(axis=reduce_axis)
                            ok = (np.isfinite(X).all(axis=reduce_axis)
                                  & (sums > 0.0))
                            # Rows are contiguous, so the axis-1 sum is
                            # the same pairwise reduction renormalize
                            # would run per row — one vectorized divide
                            # replaces per-row renormalize calls with
                            # bit-identical results.
                            if ok.all():
                                # Common case: divide in place, skipping
                                # the fancy-index gather/scatter copies.
                                np.divide(clipped, sums[:, None], out=X)
                            else:
                                rows = np.flatnonzero(ok)
                                X[rows] = clipped[rows] / sums[rows, None]
                # Batch-end: renormalize the live columns, then one
                # product serves every column's residual check and (for
                # survivors) seeds the next batch's first sweep.
                if shared or interleaved:
                    col_ok = norm.renormalize_columns(X)
                else:
                    col_ok = np.ones(len(active), dtype=bool)
                    for c in range(len(active)):
                        try:
                            X[c] = renormalize(X[c])
                        except ValidationError:
                            col_ok[c] = False
                Y = block_product(X)
                expired = (time_budget_s is not None
                           and time.perf_counter() - t0 >= time_budget_s)
                retired_cols: list[int] = []
                for c, j in enumerate(active):
                    if not col_ok[c]:
                        histories[j].append((iteration, float("inf")))
                        retire(j, col(X, c).copy(), StopReason.DIVERGED,
                               float("inf"), iteration)
                        retired_cols.append(c)
                        continue
                    stop, res = criteria[j].check(iteration, col(Y, c),
                                                  col(X, c))
                    histories[j].append((iteration, res))
                    if stop is None and expired:
                        stop = StopReason.TIMED_OUT
                    if stop is None and iteration >= self.max_iterations:
                        stop = StopReason.MAX_ITERATIONS
                    if stop is not None:
                        retire(j, col(X, c).copy(), stop, res, iteration)
                        retired_cols.append(c)
                if retired_cols:
                    keep = [c for c in range(len(active))
                            if c not in retired_cols]
                    active = [active[c] for c in keep]
                    if not active:
                        break
                    X = take(X, keep)
                    Y = take(Y, keep)
                    if self.mode == "stacked":
                        D = take(D, keep)
                        stack = None
                pending_Y = Y
                durable_save()
            span.set_attribute("iterations", iteration)
            span.set_attribute("products", self.products)
        return results  # type: ignore[return-value]
