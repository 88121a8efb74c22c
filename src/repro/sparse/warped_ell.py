"""Warp-grained sliced ELL — the paper's novel format (Section VI, Figure 4).

Two ideas on top of sliced ELL:

1. **Warp granularity.**  The slice size is fixed to the 32-thread warp —
   the hardware execution granule — while the CUDA block stays at 256
   threads.  Each thread derives its slice from its warp index, so the
   finest padding granularity is obtained *without* sacrificing SM
   occupancy (the original formulation with slice = block = 32 would cap
   an SM at 8 warps, 1/6 of capacity).

2. **Local rearrangement.**  Rows are sorted by length within each 256-row
   block, making warp slices nearly uniform without moving related rows
   far apart (global pJDS-style sorting helps padding but hurts the cache
   locality of the ``x`` gathers).

The format can also keep the main diagonal as a separate dense vector
(``separate_diagonal=True``), the "Warp ELL+DIA" structure used for the
Jacobi iteration in Table IV: the divisor ``a_ii`` is then available
directly instead of sitting at an arbitrary slot of the sliced structure.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import FormatError, SingularMatrixError
from repro.sparse.base import INDEX_BYTES, VALUE_BYTES, as_csr
from repro.sparse.ell import WARP_SIZE
from repro.sparse.reorder import (
    global_row_sort_fast,
    identity_permutation,
    local_rearrangement,
    random_permutation,
)
from repro.sparse.sliced_ell import SlicedELLMatrix
from repro.utils.arrays import inverse_permutation

#: CUDA block size the local rearrangement window is tied to.
DEFAULT_BLOCK_SIZE = 256

#: Recognized reordering strategies.
REORDER_STRATEGIES = ("local", "global", "random", "none")


class WarpedELLMatrix(SlicedELLMatrix):
    """Warp-grained sliced ELL with optional row rearrangement and diagonal.

    Parameters
    ----------
    matrix:
        Anything convertible to canonical CSR (square if
        ``separate_diagonal``).
    reorder:
        ``"local"`` (default, the paper's scheme), ``"global"`` (pJDS),
        ``"random"`` (locality-destroying control) or ``"none"``.
    block_size:
        Window of the local rearrangement (the CUDA block, 256).
    separate_diagonal:
        Peel ``a_ii`` into a dense vector (the Jacobi-ready variant).
    seed:
        RNG seed for ``reorder="random"``.

    Attributes
    ----------
    row_ids:
        ``row_ids[storage_row] = original_row``; the stored matrix is the
        original with its rows permuted by ``row_ids``.
    diagonal_values:
        When ``separate_diagonal``, ``diagonal_values[storage_row]`` is the
        ``a_ii`` of the original row stored there (else ``None``).
    """

    format_name = "warped-ell"

    def __init__(self, matrix, *, reorder: str = "local",
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 separate_diagonal: bool = False,
                 seed: int | None = 0):
        if reorder not in REORDER_STRATEGIES:
            raise FormatError(
                f"unknown reorder strategy {reorder!r}; "
                f"expected one of {REORDER_STRATEGIES}")
        if block_size % WARP_SIZE != 0:
            raise FormatError(
                f"block_size must be a multiple of the warp size "
                f"({WARP_SIZE}), got {block_size}")
        csr = as_csr(matrix)
        if separate_diagonal and csr.shape[0] != csr.shape[1]:
            raise FormatError("separate_diagonal requires a square matrix")

        self.reorder = reorder
        self.block_size = int(block_size)
        self.separate_diagonal = bool(separate_diagonal)

        if separate_diagonal:
            diag = csr.diagonal().astype(np.float64)
            stripped = (csr - sp.diags(diag, 0, shape=csr.shape)).tocsr()
            stripped = as_csr(stripped)
        else:
            diag = None
            stripped = csr

        lengths = np.diff(stripped.indptr).astype(np.int64)
        n = stripped.shape[0]
        if reorder == "local":
            perm = local_rearrangement(lengths, block_size=self.block_size)
        elif reorder == "global":
            perm = global_row_sort_fast(lengths)
        elif reorder == "random":
            perm = random_permutation(n, seed=seed)
        else:
            perm = identity_permutation(n)

        self.row_ids = perm
        self._inverse_ids = inverse_permutation(perm) if n else perm
        permuted = stripped[perm, :] if n else stripped
        super().__init__(as_csr(permuted), slice_size=WARP_SIZE)
        # SlicedELL recorded the *permuted* shape, which equals the original.
        self.shape = csr.shape
        self.diagonal_values = diag[perm] if diag is not None else None
        self._total_nnz = int(csr.nnz)

    # -- queries ------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return self._total_nnz

    def main_diagonal(self) -> np.ndarray:
        """Dense main diagonal in *original* row order."""
        if self.diagonal_values is None:
            raise FormatError(
                "matrix was built without separate_diagonal=True")
        return self.diagonal_values[self._inverse_ids]

    def storage_row_lengths(self) -> np.ndarray:
        """Row lengths in storage order (post-rearrangement)."""
        return self.row_lengths

    # -- SparseFormat interface --------------------------------------------

    def _reference_spmv(self, x: np.ndarray) -> np.ndarray:
        """Warp-sliced product over the permuted rows, scattered back."""
        y_storage = SlicedELLMatrix._reference_spmv(self, x)
        if self.diagonal_values is not None:
            y_storage = y_storage + self.diagonal_values * x[self.row_ids]
        y = np.empty(self.shape[0], dtype=np.float64)
        y[self.row_ids] = y_storage
        return y

    def jacobi_step(self, x: np.ndarray) -> np.ndarray:
        """One Jacobi iteration ``x' = -D^{-1}(A - D) x`` for ``A x = 0``.

        Requires ``separate_diagonal=True``; the sliced structure then
        holds only off-diagonal entries, so the fused kernel is a sliced
        SpMV followed by a division by the dense diagonal vector.
        """
        if self.diagonal_values is None:
            raise FormatError(
                "jacobi_step requires separate_diagonal=True")
        if np.any(self.diagonal_values == 0.0):
            raise SingularMatrixError("Jacobi step requires a nonzero diagonal")
        x = self.check_x(x)
        # Off-diagonal part in storage order (reference sliced kernel:
        # the fused step is format-faithful by definition).
        off = SlicedELLMatrix._reference_spmv(self, x)
        x_storage = -off / self.diagonal_values
        x_new = np.empty(self.shape[0], dtype=np.float64)
        x_new[self.row_ids] = x_storage
        return x_new

    def to_scipy(self) -> sp.csr_matrix:
        permuted = SlicedELLMatrix.to_scipy(self)
        restored = permuted[self._inverse_ids, :]
        if self.diagonal_values is not None:
            diag = self.main_diagonal()
            restored = restored + sp.diags(diag, 0, shape=self.shape)
        return as_csr(restored)

    def footprint(self) -> int:
        """Bytes: sliced storage + per-slice arrays + row ids (+ diagonal)."""
        total = int(self.slice_ptr[-1])
        size = (total * (VALUE_BYTES + INDEX_BYTES)
                + self.n_slices * 2 * INDEX_BYTES)
        if self.reorder != "none":
            size += self.shape[0] * INDEX_BYTES       # row_ids
        if self.diagonal_values is not None:
            size += self.shape[0] * VALUE_BYTES       # dense diagonal
        return size
