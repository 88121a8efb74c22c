"""Compressed Sparse Row (CSR) format.

CSR is the general-purpose format the CPU baseline (an "MKL-like"
implementation, Section VII-D) operates on, and one member of the clSpMV
ensemble.  It stores ``values``/``col_indices`` row-contiguously with an
``n+1``-entry row-pointer array.

The optional ``dia`` argument supports the paper's *CSR+DIA* baseline: the
dense ``{-1, 0, +1}`` band is peeled into a separate
:class:`~repro.sparse.dia.DIAMatrix` and the CSR part keeps the remainder.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import SingularMatrixError
from repro.sparse.base import (
    INDEX_BYTES,
    VALUE_BYTES,
    SparseFormat,
    as_csr,
)


class CSRMatrix(SparseFormat):
    """Compressed sparse row matrix.

    Parameters
    ----------
    matrix:
        Anything :func:`repro.sparse.base.as_csr` accepts (SciPy sparse,
        dense array, or another :class:`SparseFormat`).
    """

    format_name = "csr"

    def __init__(self, matrix):
        csr = as_csr(matrix)
        self.shape = csr.shape
        self.indptr = csr.indptr.astype(np.int64)
        self.col_indices = csr.indices.astype(np.int32)
        self.values = csr.data.astype(np.float64)

    # -- SparseFormat interface --------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    def row_lengths(self) -> np.ndarray:
        """Number of stored nonzeros per row."""
        return np.diff(self.indptr)

    def _reference_spmv(self, x: np.ndarray) -> np.ndarray:
        """Reference CSR product (the "scalar" kernel: one thread per row).

        Each row accumulates its products sequentially in column-index
        order — exactly the scalar kernel's loop.  SciPy's ``csr_matvec``
        implements precisely that per-row sequential loop in C, so the
        cached CSR product *is* the reference arithmetic (a ``reduceat``
        segmented sum would not be: NumPy sums long segments pairwise,
        which changes the accumulation order and the low bits).
        """
        return self._cached_csr() @ x

    def _cached_csr(self) -> sp.csr_matrix:
        """The SciPy twin :meth:`_reference_spmv` multiplies by, built
        on first use and kept (a format does not change once built)."""
        csr = getattr(self, "_csr_cache", None)
        if csr is None:
            csr = self._csr_cache = self.to_scipy()
        return csr

    def diagonal(self) -> np.ndarray:
        """Main-diagonal entries as a dense vector (zeros where absent)."""
        n = min(self.shape)
        diag = np.zeros(n, dtype=np.float64)
        for_row = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        on_diag = (for_row == self.col_indices) & (self.col_indices < n)
        diag[self.col_indices[on_diag]] = self.values[on_diag]
        return diag

    def jacobi_step(self, x: np.ndarray) -> np.ndarray:
        """One Jacobi iteration for ``A x = 0``: ``x' = -D^{-1} (A - D) x``.

        This is the CPU-baseline inner loop (CSR traversal with the
        diagonal divided out), kept here so the Jacobi solver can treat the
        format as a black box.
        """
        diag = self.diagonal()
        if np.any(diag == 0.0):
            raise SingularMatrixError(
                "Jacobi step requires a nonzero diagonal")
        y = self.spmv(x)
        # spmv computed D x + (L+U) x; subtract the diagonal contribution.
        return -(y - diag * x[: diag.shape[0]]) / diag

    def to_scipy(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.values.copy(), self.col_indices.copy(), self.indptr.copy()),
            shape=self.shape)

    def footprint(self) -> int:
        """Bytes: values + column indices + (n+1) row pointers."""
        return (self.nnz * (VALUE_BYTES + INDEX_BYTES)
                + (self.shape[0] + 1) * INDEX_BYTES)
