"""Coordinate (COO) sparse format.

COO stores one ``(row, col, value)`` triple per nonzero.  The paper uses it
only as the on-disk Matrix Market representation and as one member of the
clSpMV ensemble; we additionally use it as the assembly format for the CME
rate matrix (duplicate triples are summed on conversion, which is exactly
what rate-matrix assembly needs when several reactions connect the same
pair of microstates).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.sparse.base import (
    INDEX_BYTES,
    VALUE_BYTES,
    SparseFormat,
    as_csr,
    validate_shape,
)
from repro.utils.validation import check_1d, check_index_array


class COOMatrix(SparseFormat):
    """Coordinate-format sparse matrix.

    Parameters
    ----------
    rows, cols:
        Integer coordinate arrays of equal length.
    values:
        Nonzero values, same length as the coordinate arrays.
    shape:
        Matrix shape ``(n_rows, n_cols)``.
    sum_duplicates:
        When true (default) duplicate coordinates are summed immediately,
        giving a canonical representation.
    """

    format_name = "coo"

    def __init__(self, rows, cols, values, shape, *, sum_duplicates: bool = True):
        self.shape = validate_shape(shape)
        values = check_1d(values, "values", dtype=np.float64)
        rows = check_1d(rows, "rows", n=values.shape[0])
        cols = check_1d(cols, "cols", n=values.shape[0])
        rows = check_index_array(rows.astype(np.int64), "rows", upper=self.shape[0])
        cols = check_index_array(cols.astype(np.int64), "cols", upper=self.shape[1])
        if values.size and (rows.min() < 0 or cols.min() < 0):
            # COO has no padding concept: -1 markers are invalid here.
            raise ValueError("COO coordinates must be non-negative")
        self.rows = rows
        self.cols = cols
        self.values = values
        if sum_duplicates:
            self._canonicalize()

    # -- construction helpers ---------------------------------------------

    @classmethod
    def from_scipy(cls, matrix) -> "COOMatrix":
        """Build from any SciPy sparse / dense matrix."""
        coo = as_csr(matrix).tocoo()
        return cls(coo.row.astype(np.int64), coo.col.astype(np.int64),
                   coo.data, coo.shape)

    @classmethod
    def empty(cls, shape) -> "COOMatrix":
        """An all-zero matrix of the given shape."""
        z = np.zeros(0)
        return cls(z.astype(np.int64), z.astype(np.int64), z, shape)

    def _canonicalize(self) -> None:
        """Sort by (row, col) and sum duplicate coordinates in place."""
        if self.values.size == 0:
            return
        order = np.lexsort((self.cols, self.rows))
        rows, cols, values = self.rows[order], self.cols[order], self.values[order]
        new_group = np.empty(rows.shape[0], dtype=bool)
        new_group[0] = True
        np.not_equal(rows[1:], rows[:-1], out=new_group[1:])
        same_row = ~new_group[1:]
        new_group[1:] |= cols[1:] != cols[:-1]
        del same_row
        group_ids = np.cumsum(new_group) - 1
        n_groups = int(group_ids[-1]) + 1
        summed = np.zeros(n_groups, dtype=np.float64)
        np.add.at(summed, group_ids, values)
        first = np.flatnonzero(new_group)
        keep = summed != 0.0
        self.rows = rows[first][keep]
        self.cols = cols[first][keep]
        self.values = summed[keep]

    # -- SparseFormat interface --------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    def _reference_spmv(self, x: np.ndarray) -> np.ndarray:
        """Reference COO product: scatter-add of ``values * x[cols]``.

        On a GPU this corresponds to the segmented-reduction COO kernel of
        Bell & Garland; functionally both are a scatter-add.  No JIT
        backend implements COO, so every dispatch falls back here — the
        format deliberately exercises the fallback path.
        """
        y = np.zeros(self.shape[0], dtype=np.float64)
        np.add.at(y, self.rows, self.values * x[self.cols])
        return y

    def to_scipy(self) -> sp.csr_matrix:
        coo = sp.coo_matrix(
            (self.values, (self.rows, self.cols)), shape=self.shape)
        return as_csr(coo)

    def footprint(self) -> int:
        """Bytes: one value + two 4-byte indices per nonzero."""
        return self.nnz * (VALUE_BYTES + 2 * INDEX_BYTES)
