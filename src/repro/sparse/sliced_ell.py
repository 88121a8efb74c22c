"""Sliced ELL format (Monakov et al., Section VI).

Sliced ELL partitions the matrix into slices of ``s`` consecutive rows and
stores each slice as its own local ELL block with its own ``k_i`` (the
longest row in the slice), drastically reducing zero padding for matrices
with variable row lengths.  Two auxiliary arrays of ``ceil(n/s)`` entries
hold the per-slice ``k_i`` values and the starting offset of each local
block in the flat storage.

In the original formulation the slice size equals the CUDA block size;
the paper's warp-grained variant (:mod:`repro.sparse.warped_ell`)
decouples the two.  Each local block is stored column-major (coalesced)
and the rows of the final slice are padded up to ``s``.
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
from repro.sparse.ell import PAD_COL
from repro.utils.arrays import ceil_div

#: Default slice size for the original sliced ELL: the CUDA block (256).
DEFAULT_SLICE_SIZE = 256


class SlicedELLMatrix(SparseFormat):
    """Sliced-ELL sparse matrix.

    Parameters
    ----------
    matrix:
        Anything convertible to canonical CSR.
    slice_size:
        Rows per slice (default 256, the original block-granularity
        formulation; the warp-grained subclass passes 32).

    Attributes
    ----------
    slice_k:
        ``(n_slices,)`` local maximum row length per slice.
    slice_ptr:
        ``(n_slices + 1,)`` starting element offset of each slice's local
        block inside the flat arrays; ``slice_ptr[-1]`` is the total number
        of stored slots.
    values, cols:
        Flat storage; slice ``i`` occupies
        ``values[slice_ptr[i]:slice_ptr[i+1]]`` viewed as an
        ``(slice_size, slice_k[i])`` column-major block.
    """

    format_name = "sell"

    def __init__(self, matrix, *, slice_size: int = DEFAULT_SLICE_SIZE):
        if slice_size <= 0:
            raise FormatError(f"slice_size must be positive, got {slice_size}")
        csr = as_csr(matrix)
        self.shape = csr.shape
        self.slice_size = int(slice_size)
        n = csr.shape[0]
        self.n_slices = ceil_div(n, self.slice_size) if n else 0
        self.n_padded = self.n_slices * self.slice_size
        lengths = np.diff(csr.indptr).astype(np.int64)
        self.row_lengths = lengths
        padded_lengths = np.zeros(self.n_padded, dtype=np.int64)
        padded_lengths[:n] = lengths
        if self.n_slices:
            self.slice_k = padded_lengths.reshape(
                self.n_slices, self.slice_size).max(axis=1)
        else:
            self.slice_k = np.zeros(0, dtype=np.int64)
        sizes = self.slice_k * self.slice_size
        self.slice_ptr = np.concatenate(
            ([0], np.cumsum(sizes))).astype(np.int64)
        total = int(self.slice_ptr[-1])
        self.values = np.zeros(total, dtype=np.float64)
        self.cols = np.full(total, PAD_COL, dtype=np.int32)
        self._nnz = int(csr.nnz)
        self._fill(csr)

    def _fill(self, csr: sp.csr_matrix) -> None:
        """Scatter the CSR nonzeros into the flat sliced storage.

        The flat index of nonzero ``p`` of row ``r`` (the ``p``-th stored
        entry in that row) is::

            slice_ptr[slice] + p * slice_size + (r mod slice_size)

        i.e. column-major within the slice's local block.
        """
        if csr.nnz == 0:
            return
        lengths = np.diff(csr.indptr)
        rows = np.repeat(np.arange(csr.shape[0]), lengths)
        pos = np.arange(csr.nnz) - np.repeat(csr.indptr[:-1], lengths)
        slices = rows // self.slice_size
        lane = rows % self.slice_size
        flat = self.slice_ptr[slices] + pos * self.slice_size + lane
        self.values[flat] = csr.data
        self.cols[flat] = csr.indices

    # -- queries ------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return self._nnz

    def efficiency(self) -> float:
        """Slot efficiency: nonzeros over stored slots (1.0 = no padding)."""
        total = int(self.slice_ptr[-1])
        return self._nnz / total if total else 1.0

    def slice_block(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``(slice_size, k_i)`` column-major (values, cols) views of slice *i*."""
        k = int(self.slice_k[i])
        lo, hi = int(self.slice_ptr[i]), int(self.slice_ptr[i + 1])
        vals = self.values[lo:hi].reshape(self.slice_size, k, order="F")
        cols = self.cols[lo:hi].reshape(self.slice_size, k, order="F")
        return vals, cols

    # -- SparseFormat interface --------------------------------------------

    def _reference_spmv(self, x: np.ndarray) -> np.ndarray:
        """Reference product: each slice sweeps its local k columns.

        Slices with equal ``k`` are batched into one vectorized gather so
        the reference stays usable inside tests on larger matrices.  The
        local columns are accumulated *sequentially* (``c = 0, 1, ...``)
        — the per-lane order of the slice kernel, which the JIT backends
        replicate exactly; a pairwise ``.sum(axis=2)`` would reorder the
        adds on wide slices and change the low bits.
        """
        y = np.zeros(self.n_padded, dtype=np.float64)
        if self._nnz == 0:
            return y[: self.shape[0]]
        s = self.slice_size
        for k in np.unique(self.slice_k):
            k = int(k)
            if k == 0:
                continue
            which = np.flatnonzero(self.slice_k == k)
            # Flat indices of every slot of every slice with this k:
            # shape (num_slices, s, k), column-major inside each block.
            base = self.slice_ptr[which][:, None, None]
            offs = (np.arange(k)[None, None, :] * s
                    + np.arange(s)[None, :, None])
            flat = base + offs
            vals = self.values[flat]
            cols = self.cols[flat]
            active = cols != PAD_COL
            gathered = np.where(active, x[np.clip(cols, 0, None)], 0.0)
            prods = vals * gathered
            contrib = np.zeros((which.size, s), dtype=np.float64)
            for c in range(k):
                contrib += prods[:, :, c]
            row_base = which[:, None] * s + np.arange(s)[None, :]
            y[row_base.ravel()] += contrib.ravel()
        return y[: self.shape[0]]

    def to_scipy(self) -> sp.csr_matrix:
        rows_list, cols_list, vals_list = [], [], []
        for i in range(self.n_slices):
            vals, cols = self.slice_block(i)
            r, p = np.nonzero(cols != PAD_COL)
            rows = i * self.slice_size + r
            keep = rows < self.shape[0]
            rows_list.append(rows[keep])
            cols_list.append(cols[r[keep], p[keep]])
            vals_list.append(vals[r[keep], p[keep]])
        if rows_list:
            rows = np.concatenate(rows_list)
            cols = np.concatenate(cols_list)
            vals = np.concatenate(vals_list)
        else:
            rows = cols = np.zeros(0, dtype=np.int64)
            vals = np.zeros(0)
        return as_csr(sp.coo_matrix((vals, (rows, cols)), shape=self.shape))

    def footprint(self) -> int:
        """Bytes: flat value/col slots plus the two per-slice arrays."""
        total = int(self.slice_ptr[-1])
        return (total * (VALUE_BYTES + INDEX_BYTES)
                + self.n_slices * 2 * INDEX_BYTES)
