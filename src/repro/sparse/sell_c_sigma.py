"""SELL-C-sigma: the general chunked-and-sorted sliced ELL.

The paper's warp-grained format fixes two design constants — slice size
32 (the warp) and sorting window 256 (the CUDA block).  The natural
two-parameter family around it, later formalized by Kreutzer et al.
(the paper's pJDS reference [20] is its ancestor), is **SELL-C-sigma**:

* ``C`` — the chunk (slice) size rows are padded to;
* ``sigma`` — the window within which rows are sorted by length before
  chunking (``sigma >= C``; ``sigma = C`` or 1 means no useful sorting,
  ``sigma = n`` is the global pJDS sort).

Under this naming the paper's formats are:

=====================  ====  =======
format                  C     sigma
=====================  ====  =======
sliced ELL (s=256)      256   1
warp-grained ELL        32    256
pJDS / global sort      32    n
=====================  ====  =======

This class makes the whole family available, which the ablation bench
uses to show the paper's (32, 256) choice sits on the efficiency/
locality sweet spot.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import FormatError
from repro.sparse.base import INDEX_BYTES, VALUE_BYTES, as_csr
from repro.sparse.sliced_ell import SlicedELLMatrix
from repro.utils.arrays import inverse_permutation


def window_sort_permutation(row_lengths: np.ndarray,
                            sigma: int) -> np.ndarray:
    """Sort rows by descending length within consecutive sigma-windows.

    Stable, so equal-length runs keep their original order (the locality
    property the paper's local rearrangement relies on).  Returns
    ``perm[storage_position] = original_row``.
    """
    lengths = np.asarray(row_lengths, dtype=np.int64)
    if sigma <= 0:
        raise FormatError(f"sigma must be positive, got {sigma}")
    n = lengths.size
    perm = np.empty(n, dtype=np.int64)
    for start in range(0, n, sigma):
        stop = min(start + sigma, n)
        order = np.argsort(-lengths[start:stop], kind="stable")
        perm[start:stop] = start + order
    return perm


class SellCSigmaMatrix(SlicedELLMatrix):
    """SELL-C-sigma sparse matrix.

    Parameters
    ----------
    matrix:
        Anything convertible to canonical CSR.
    chunk:
        The chunk size ``C`` (rows per slice; a multiple of the warp
        size keeps accesses aligned, but any positive value is legal).
    sigma:
        Sorting window (``>= chunk``, or 1 to disable sorting).
    """

    format_name = "sell-c-sigma"

    def __init__(self, matrix, *, chunk: int = 32, sigma: int = 256):
        if chunk <= 0:
            raise FormatError(f"chunk must be positive, got {chunk}")
        if sigma != 1 and sigma < chunk:
            raise FormatError(
                f"sigma ({sigma}) must be >= chunk ({chunk}) or exactly 1")
        csr = as_csr(matrix)
        self.chunk = int(chunk)
        self.sigma = int(sigma)
        n = csr.shape[0]
        lengths = np.diff(csr.indptr).astype(np.int64)
        if sigma > 1 and n:
            perm = window_sort_permutation(lengths, self.sigma)
        else:
            perm = np.arange(n, dtype=np.int64)
        self.row_ids = perm
        self._inverse_ids = inverse_permutation(perm) if n else perm
        permuted = csr[perm, :] if n else csr
        super().__init__(as_csr(permuted), slice_size=self.chunk)
        self.shape = csr.shape

    # -- SparseFormat interface --------------------------------------------

    def _reference_spmv(self, x: np.ndarray) -> np.ndarray:
        """Chunked product over the sorted rows, scattered back."""
        y_storage = SlicedELLMatrix._reference_spmv(self, x)
        y = np.empty(self.shape[0], dtype=np.float64)
        y[self.row_ids] = y_storage
        return y

    def to_scipy(self) -> sp.csr_matrix:
        permuted = SlicedELLMatrix.to_scipy(self)
        return as_csr(permuted[self._inverse_ids, :])

    def footprint(self) -> int:
        """Sliced storage + per-chunk arrays + the row-id permutation."""
        total = int(self.slice_ptr[-1])
        size = (total * (VALUE_BYTES + INDEX_BYTES)
                + self.n_slices * 2 * INDEX_BYTES)
        if self.sigma > 1:
            size += self.shape[0] * INDEX_BYTES
        return size
