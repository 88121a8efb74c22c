"""Diagonal (DIA) sparse format.

DIA stores ``d`` full diagonals as contiguous dense vectors plus a small
list of offsets from the main diagonal.  The paper peels the densely
populated ``{-1, 0, +1}`` band of DFS-ordered CME rate matrices into DIA
(Section V, Figure 3c): a DIA nonzero costs 8 bytes versus 12 in ELL, so
DIA wins whenever the band density exceeds 8/12 ≈ 0.66, and its ``x``
accesses are contiguous (coalesced up to a small misalignment).

Layout convention: ``data[k, i]`` holds ``A[i, i + offsets[k]]`` (row
aligned), matching what the kernel reads when thread ``i`` processes row
``i``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import ValidationError
from repro.sparse.base import (
    INDEX_BYTES,
    VALUE_BYTES,
    SparseFormat,
    as_csr,
    validate_shape,
)
from repro.utils.validation import check_2d


class DIAMatrix(SparseFormat):
    """Diagonal-format sparse matrix.

    Parameters
    ----------
    offsets:
        Iterable of distinct diagonal offsets (0 = main, negative = below).
    data:
        ``(len(offsets), n_rows)`` array, row-aligned (see module docstring).
    shape:
        Matrix shape.
    """

    format_name = "dia"

    def __init__(self, offsets, data, shape):
        self.shape = validate_shape(shape)
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.ndim != 1:
            raise ValidationError("offsets must be 1-D")
        if np.unique(offsets).size != offsets.size:
            raise ValidationError("offsets must be distinct")
        data = check_2d(data, "data",
                        shape=(offsets.size, self.shape[0]),
                        dtype=np.float64)
        # Zero out the out-of-bounds tails so footprints and products are
        # insensitive to garbage beyond the matrix edge.
        for k, off in enumerate(offsets):
            lo, hi = self._valid_range(int(off))
            data[k, :lo] = 0.0
            data[k, hi:] = 0.0
        self.offsets = offsets
        self.data = data

    def _valid_range(self, off: int) -> tuple[int, int]:
        """Rows ``i`` for which column ``i + off`` is inside the matrix."""
        n, m = self.shape
        lo = max(0, -off)
        hi = min(n, m - off)
        return lo, max(lo, hi)

    # -- construction helpers ---------------------------------------------

    @classmethod
    def from_scipy(cls, matrix, offsets=None) -> "DIAMatrix":
        """Extract the given diagonals (default: all nonzero ones).

        When *offsets* is given, only those diagonals are extracted; other
        nonzeros are silently ignored (callers pair this with an ELL/CSR
        remainder — see :class:`repro.sparse.ell_dia.ELLDIAMatrix`).
        """
        csr = as_csr(matrix)
        n, m = csr.shape
        coo = csr.tocoo()
        all_offsets = coo.col.astype(np.int64) - coo.row.astype(np.int64)
        if offsets is None:
            offsets = np.unique(all_offsets)
        offsets = np.asarray(sorted(set(int(o) for o in offsets)), dtype=np.int64)
        data = np.zeros((offsets.size, n), dtype=np.float64)
        index_of = {int(o): k for k, o in enumerate(offsets)}
        mask = np.isin(all_offsets, offsets)
        rows = coo.row[mask]
        offs = all_offsets[mask]
        vals = coo.data[mask]
        ks = np.fromiter((index_of[int(o)] for o in offs),
                         dtype=np.int64, count=offs.size)
        data[ks, rows] = vals
        return cls(offsets, data, (n, m))

    # -- queries ------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.data))

    def band_density(self) -> float:
        """Stored-nonzero density over the in-bounds band positions.

        This is the paper's Table I metric ``d{...}``: the fraction of
        positions on the stored diagonals (within matrix bounds) that hold
        a nonzero.  A value above 8/12 makes DIA storage worthwhile.
        """
        slots = 0
        for off in self.offsets:
            lo, hi = self._valid_range(int(off))
            slots += hi - lo
        return self.nnz / slots if slots else 0.0

    def main_diagonal(self) -> np.ndarray:
        """The offset-0 diagonal as a dense vector (zeros if not stored)."""
        hits = np.flatnonzero(self.offsets == 0)
        if hits.size == 0:
            return np.zeros(min(self.shape), dtype=np.float64)
        return self.data[int(hits[0]), : min(self.shape)].copy()

    # -- SparseFormat interface --------------------------------------------

    def _reference_spmv(self, x: np.ndarray) -> np.ndarray:
        """Reference DIA product: one shifted multiply-add per diagonal."""
        y = np.zeros(self.shape[0], dtype=np.float64)
        for k, off in enumerate(self.offsets):
            off = int(off)
            lo, hi = self._valid_range(off)
            if hi > lo:
                y[lo:hi] += self.data[k, lo:hi] * x[lo + off: hi + off]
        return y

    def to_scipy(self) -> sp.csr_matrix:
        n, m = self.shape
        rows_list = []
        cols_list = []
        vals_list = []
        for k, off in enumerate(self.offsets):
            off = int(off)
            lo, hi = self._valid_range(off)
            seg = self.data[k, lo:hi]
            nz = np.flatnonzero(seg)
            rows_list.append(nz + lo)
            cols_list.append(nz + lo + off)
            vals_list.append(seg[nz])
        if rows_list:
            rows = np.concatenate(rows_list)
            cols = np.concatenate(cols_list)
            vals = np.concatenate(vals_list)
        else:
            rows = cols = np.zeros(0, dtype=np.int64)
            vals = np.zeros(0)
        return as_csr(sp.coo_matrix((vals, (rows, cols)), shape=(n, m)))

    def footprint(self) -> int:
        """Bytes: d dense diagonals of n doubles plus d offset entries."""
        d = int(self.offsets.size)
        return d * self.shape[0] * VALUE_BYTES + d * INDEX_BYTES
