"""ELLPACK (ELL) sparse format with warp padding.

ELL compresses an ``n x m`` sparse matrix into two dense ``n' x k`` arrays
(values and column indices), where ``k`` is the maximum number of nonzeros
per row and ``n' = ceil(n / 32) * 32`` pads the row count to warp
granularity so column-major accesses are 128-byte aligned (Section V).
Rows shorter than ``k`` are zero-padded; the kernel skips the column-index
and ``x`` loads of padding entries behind an ``if (value != 0)`` test, so
padding wastes value bandwidth only.

The data structure efficiency is ``e = nnz / (n' * k)`` — the fraction of
stored slots that are real nonzeros.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import FormatError
from repro.sparse.base import (
    INDEX_BYTES,
    VALUE_BYTES,
    SparseFormat,
    as_csr,
)
from repro.utils.arrays import round_up

#: Warp size used for row padding (Fermi and every later NVIDIA part).
WARP_SIZE = 32

#: Column-index marker for padding slots.
PAD_COL = -1


def csr_to_ell_arrays(csr: sp.csr_matrix, n_padded: int, k: int):
    """Pack a canonical CSR matrix into dense ELL (values, cols) arrays.

    Returns ``(values, cols)`` of shape ``(n_padded, k)``; padding slots
    have value 0.0 and column :data:`PAD_COL`.
    """
    n = csr.shape[0]
    lengths = np.diff(csr.indptr)
    if lengths.size and int(lengths.max()) > k:
        raise FormatError(
            f"k={k} is smaller than the longest row ({int(lengths.max())})")
    values = np.zeros((n_padded, k), dtype=np.float64)
    cols = np.full((n_padded, k), PAD_COL, dtype=np.int32)
    if csr.nnz:
        rows = np.repeat(np.arange(n), lengths)
        # Position of each nonzero within its row: 0, 1, 2, ...
        pos = np.arange(csr.nnz) - np.repeat(csr.indptr[:-1], lengths)
        values[rows, pos] = csr.data
        cols[rows, pos] = csr.indices
    return values, cols


class ELLMatrix(SparseFormat):
    """ELL-format sparse matrix (warp-padded, column-major semantics).

    Parameters
    ----------
    matrix:
        Anything convertible to canonical CSR.
    pad_to:
        Row-count alignment; defaults to the warp size (32).
    """

    format_name = "ell"

    def __init__(self, matrix, *, pad_to: int = WARP_SIZE):
        csr = as_csr(matrix)
        self.shape = csr.shape
        n = csr.shape[0]
        lengths = np.diff(csr.indptr)
        self.k = int(lengths.max()) if lengths.size else 0
        self.n_padded = round_up(n, pad_to) if n else 0
        self.values, self.cols = csr_to_ell_arrays(csr, self.n_padded, self.k)
        self._nnz = int(csr.nnz)
        self.row_lengths = lengths.astype(np.int64)

    # -- queries ------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return self._nnz

    def efficiency(self) -> float:
        """ELL slot efficiency ``e = nnz / (n' * k)`` (1.0 = no padding)."""
        slots = self.n_padded * self.k
        return self._nnz / slots if slots else 1.0

    def active_mask(self) -> np.ndarray:
        """Boolean ``(n_padded, k)`` mask of non-padding slots."""
        return self.cols != PAD_COL

    # -- SparseFormat interface --------------------------------------------

    def _reference_spmv(self, x: np.ndarray) -> np.ndarray:
        """Reference ELL product: k column-major sweeps with padding skip.

        Mirrors the kernel of Listing 1: iterate ``k`` times; at each step
        every row (thread) loads its value and, only if it is not padding,
        loads the column index and gathers ``x``.
        """
        y = np.zeros(self.n_padded, dtype=np.float64)
        for c in range(self.k):
            col = self.cols[:, c]
            active = col != PAD_COL
            y[active] += self.values[active, c] * x[col[active]]
        return y[: self.shape[0]]

    def to_scipy(self) -> sp.csr_matrix:
        active = self.active_mask()
        rows, pos = np.nonzero(active)
        keep = rows < self.shape[0]
        rows, pos = rows[keep], pos[keep]
        coo = sp.coo_matrix(
            (self.values[rows, pos], (rows, self.cols[rows, pos])),
            shape=self.shape)
        return as_csr(coo)

    def footprint(self) -> int:
        """Bytes: two dense ``n' x k`` arrays (8-byte values, 4-byte cols)."""
        return self.n_padded * self.k * (VALUE_BYTES + INDEX_BYTES)
