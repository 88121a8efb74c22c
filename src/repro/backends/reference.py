"""The ``numpy`` reference backend.

This is the arithmetic ground truth of the kernel protocol: the exact
per-format NumPy kernels the sparse formats have always carried (each
format keeps its implementation as ``_reference_spmv``/``_reference_spmm``
— the moved inner loops), plus the solver primitives (the Jacobi sweep
of one system and, as a loop over the systems, of a stack), the DFS
state-space walk of :mod:`repro.cme.statespace` and the sorted key
index state spaces and projection assembly look states up in.

It supports every format and every op, which makes it the automatic
fallback whenever a faster backend lacks a kernel for a ``(format,
op)`` pair.  Other backends must match its traversal/accumulation
order bit for bit (see :mod:`repro.backends.protocol`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import StateSpaceOverflowError, ValidationError


def lookup_keys(sorted_keys: np.ndarray, sorter: np.ndarray,
                keys: np.ndarray) -> np.ndarray:
    """Positions of *keys* in a table sorted by ``sorter``; ``-1`` where
    absent (everywhere, when the table is empty)."""
    if sorted_keys.size == 0:
        return np.full(np.shape(keys), -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    found = sorted_keys[pos] == keys
    return np.where(found, sorter[pos], -1).astype(np.int64)


def key_array(keys) -> np.ndarray:
    """*keys* as a 1-D int64 array; raises ``ValueError`` on a negative
    key (``-1`` is the tables' "absent" answer and "no edge" probe)."""
    keys = np.ascontiguousarray(keys, dtype=np.int64).ravel()
    if keys.size and int(keys.min()) < 0:
        raise ValueError(f"keys must be non-negative, got {int(keys.min())}")
    return keys


def check_out(op: str, out, X, *inputs) -> None:
    """Raise ``ValueError`` unless *out* is ``None`` or can take *op*'s
    result for *X*: a C-contiguous float64 array of *X*'s shape that
    shares no memory with *X* or any of *inputs*.  This is the ``out``
    contract of every op (see :mod:`repro.backends.protocol`): the
    kernels write row-major, and a sweep reads *X* after it has begun
    writing."""
    if out is None:
        return
    if (out.shape != X.shape or out.dtype != np.float64
            or not out.flags.c_contiguous):
        raise ValueError(
            f"{op} out must be a C-contiguous float64 array of shape "
            f"{X.shape}, got {out.dtype} {out.shape}")
    for a in (X, *inputs):
        if np.shares_memory(out, a):
            raise ValueError(f"{op} out must not alias an input")


def stacked_blocks(systems, X, diag=None, out=None):
    """Validate the ``(n, m)`` system-interleaved blocks of a stacked op.

    Returns ``(X, diag, out)``: *X* and *diag* (when given) as
    C-contiguous float64 arrays, and *out*, allocated when ``None``.
    Raises ``ValueError`` for an empty stack, a first system that is
    not square (``(n, n)`` sets the block shape), a block that is not
    ``(n, m)``, or an *out* that breaks :func:`check_out`.  The other
    systems' shapes are checked by the kernel that reads them (SciPy's
    products raise on a mismatch).
    """
    m = len(systems)
    if m == 0:
        raise ValueError("a stacked op needs at least one system")
    n = systems[0].shape[0]
    if systems[0].shape != (n, n):
        raise ValueError(
            f"stacked systems must be square, got {systems[0].shape}")
    X = np.ascontiguousarray(X, dtype=np.float64)
    if diag is not None:
        diag = np.ascontiguousarray(diag, dtype=np.float64)
    for label, block in (("X", X), ("diag", diag)):
        if block is not None and block.shape != (n, m):
            raise ValueError(
                f"stacked {label} must be an ({n}, {m}) block, got "
                f"{block.shape}")
    if out is None:
        out = np.empty_like(X)
    else:
        check_out("stacked", out, X)
    return X, diag, out


class SortedKeyIndex:
    """The reference ``key_index``: the keys sorted once, probes
    answered by ``searchsorted``.  :meth:`extend` re-sorts."""

    def __init__(self, keys) -> None:
        self._sorter = np.empty(0, dtype=np.int64)
        self._sorted = np.empty(0, dtype=np.int64)
        self.extend(keys)

    def __len__(self) -> int:
        return int(self._sorted.size)

    def extend(self, keys) -> None:
        keys = key_array(keys)
        if keys.size == 0:
            return
        merged = np.empty(len(self) + keys.size, dtype=np.int64)
        merged[self._sorter] = self._sorted  # the keys in position order
        merged[len(self):] = keys
        sorter = np.argsort(merged, kind="stable")
        ordered = merged[sorter]
        dup = np.flatnonzero(ordered[1:] == ordered[:-1])
        if dup.size:
            raise ValueError(f"duplicate key {int(ordered[dup[0]])}")
        self._sorter, self._sorted = sorter, ordered

    def lookup(self, probes) -> np.ndarray:
        return lookup_keys(self._sorted, self._sorter,
                           np.asarray(probes, dtype=np.int64))


class NumpyBackend:
    """Reference kernels: the formats' own NumPy inner loops."""

    name = "numpy"
    is_reference = True

    @staticmethod
    def available() -> bool:
        return True

    def supports(self, format_name: str, op: str) -> bool:
        # The reference implements every op for every format (the base
        # class supplies generic fallbacks where a format has none).
        return True

    # -- per-format products ---------------------------------------------

    def spmv(self, fmt, x: np.ndarray) -> np.ndarray:
        return fmt._reference_spmv(x)

    def spmm(self, fmt, X: np.ndarray) -> np.ndarray:
        return fmt._reference_spmm(X)

    # -- solver primitives -----------------------------------------------

    def jacobi_sweep(self, A, diag: np.ndarray, X: np.ndarray,
                     damping: float = 1.0,
                     out: np.ndarray | None = None,
                     sweeps: int = 1) -> np.ndarray:
        """``x' = -(A x - d∘x) / d`` for one ``(n,)`` column *X*,
        optionally damping-blended.  ``sweeps=k`` applies the sweep k
        times; only the last lands in *out*, which must pass
        :func:`check_out`.  A block of columns is a stack: see
        :meth:`jacobi_sweep_many`.
        """
        if int(sweeps) < 1:
            raise ValueError(f"sweeps must be >= 1, got {sweeps}")
        check_out("jacobi_sweep", out, X)
        if np.ndim(X) != 1:
            raise ValueError(
                f"jacobi_sweep takes one (n,) column, got shape "
                f"{np.shape(X)}")
        for _ in range(int(sweeps) - 1):
            X = self._sweep_once(A, diag, X, damping, None)
        return self._sweep_once(A, diag, X, damping, out)

    @staticmethod
    def _sweep_once(A, diag, x, damping, out):
        new = -(A @ x - diag * x) / diag
        if damping != 1.0:
            new = (1.0 - damping) * x + damping * new
        if out is not None:
            np.copyto(out, new)
            return out
        return new

    def jacobi_sweep_many(self, systems, diag: np.ndarray, X: np.ndarray,
                          damping: float = 1.0,
                          out: np.ndarray | None = None,
                          sweeps: int = 1) -> np.ndarray:
        """:meth:`jacobi_sweep` of each system on its column of the
        ``(n, m)`` system-interleaved blocks (see
        :mod:`repro.backends.protocol`)."""
        X, diag, out = stacked_blocks(systems, X, diag, out)
        for s, A in enumerate(systems):
            out[:, s] = self.jacobi_sweep(
                A, np.ascontiguousarray(diag[:, s]),
                np.ascontiguousarray(X[:, s]), damping, sweeps=sweeps)
        return out

    def spmv_many(self, systems, X: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
        """``out[:, s] = systems[s] @ X[:, s]``, one SciPy product per
        system."""
        X, _, out = stacked_blocks(systems, X, out=out)
        for s, A in enumerate(systems):
            out[:, s] = A @ np.ascontiguousarray(X[:, s])
        return out

    def jacobi_sweep_block(self, local, diag: np.ndarray, x: np.ndarray,
                           row_start: int,
                           damping: float = 1.0) -> np.ndarray:
        """Row-block Jacobi sweep for the sharded solver.

        *local* is the rectangular ``(m, n)`` slice of the generator
        owning rows ``[row_start, row_start + m)``; *x* is the
        full-length iterate and *diag* the owned rows' diagonal.
        Returns the updated owned block.  Because elementwise ufuncs
        are value-wise, the result is bitwise equal to the owned slice
        of a full :meth:`jacobi_sweep` on the whole matrix — the
        property the barrier-mode parity guarantee rests on.
        """
        y = local @ x
        xb = x[row_start:row_start + diag.shape[0]]
        new = -(y - diag * xb) / diag
        if damping != 1.0:
            new = (1.0 - damping) * xb + damping * new
        return new

    def axpy(self, alpha: float, x: np.ndarray, y: np.ndarray,
             beta: float = 1.0,
             out: np.ndarray | None = None) -> np.ndarray:
        """``alpha*x + beta*y``, elementwise, in evaluation order
        ``(alpha*x_i) + (beta*y_i)``; *out* must pass
        :func:`check_out`."""
        check_out("axpy", out, x, y)
        res = np.multiply(x, alpha, out=out)
        if beta == 1.0:
            np.add(res, y, out=res)
        else:
            np.add(res, beta * y, out=res)
        return res

    def residual(self, y: np.ndarray,
                 x: np.ndarray) -> tuple[float, float]:
        """``(||y||_inf, ||x||_inf)`` — the stopping-test reductions."""
        y_norm = float(np.abs(y).max()) if y.size else 0.0
        x_norm = float(np.abs(x).max()) if x.size else 0.0
        return y_norm, x_norm

    def renormalize_columns(self, X: np.ndarray) -> np.ndarray:
        """Each column of *X* through
        :func:`~repro.solvers.normalization.renormalize`, in place; a
        column it rejects is left as it was and flagged ``False``."""
        from repro.solvers.normalization import renormalize
        ok = np.ones(X.shape[1], dtype=bool)
        for c in range(X.shape[1]):
            try:
                X[:, c] = renormalize(np.ascontiguousarray(X[:, c]))
            except ValidationError:
                ok[c] = False
        return ok

    # -- state-space enumeration -----------------------------------------

    def dfs_enumerate(self, x0: np.ndarray, bounds: np.ndarray,
                      delta: np.ndarray, need: np.ndarray,
                      gated: np.ndarray, propensities,
                      max_states: int) -> np.ndarray:
        """Cao & Liang's DFS walk from *x0*, as a Python loop over
        tuples and a dict; returns the ``(n, m)`` int64 states in
        discovery order.

        Reaction ``k`` gives an edge when the state holds ``need[k]``,
        the successor ``state + delta[k]`` lies within ``[0, bounds]``
        and, for a *gated* reaction, ``propensities.single(state, k)``
        is not ``<= 0``.  Raises
        :class:`~repro.errors.StateSpaceOverflowError` when a new state
        is found with *max_states* already discovered.
        """
        m = len(x0)
        R = delta.shape[0]
        x0 = tuple(int(v) for v in x0)
        bounds = tuple(int(v) for v in bounds)
        # Per-reaction compiled data for the inner loop: the stoichiometric
        # delta as a tuple and the (species, needed) reactant requirements.
        deltas = [tuple(int(v) for v in row) for row in delta]
        needs = [tuple((int(i), int(row[i])) for i in np.flatnonzero(row))
                 for row in need]
        custom_checks_set = frozenset(np.flatnonzero(gated).tolist())

        index: dict[tuple[int, ...], int] = {x0: 0}
        order: list[tuple[int, ...]] = [x0]
        # Each stack entry is [state, next_reaction_to_try].
        stack: list[list] = [[x0, 0]]
        while stack:
            top = stack[-1]
            state, k = top
            if k == R:
                stack.pop()
                continue
            top[1] = k + 1
            for i, c in needs[k]:
                if state[i] < c:
                    break
            else:
                if (k in custom_checks_set
                        and propensities.single(np.asarray(state), k) <= 0.0):
                    continue
                succ = tuple(map(int.__add__, state, deltas[k]))
                ok = True
                for i in range(m):
                    v = succ[i]
                    if v < 0 or v > bounds[i]:
                        ok = False
                        break
                if ok and succ not in index:
                    if len(order) >= max_states:
                        raise StateSpaceOverflowError(max_states)
                    index[succ] = len(order)
                    order.append(succ)
                    stack.append([succ, 0])

        return np.array(order, dtype=np.int64)

    # -- key membership --------------------------------------------------

    def key_index(self, keys) -> SortedKeyIndex:
        """An index over the distinct non-negative int64 *keys* (see
        :mod:`repro.backends.protocol`), sorted for ``searchsorted``."""
        return SortedKeyIndex(keys)
