"""ELLR-T (ELLPACK-R): ELL with an explicit row-length array.

Vázquez, Fernández & Garzón's variant (the paper's reference [7]):
alongside the dense ``n' x k`` value/column arrays, an ``rl`` array
stores each row's true nonzero count, so the kernel loop runs
``rl[i]`` times instead of ``k`` — padding costs *no value bandwidth at
all* (where Listing 1's ELL still streams the padded value to test it
against zero).  The price is 4 bytes per row of extra state and the
same warp-level lockstep as sliced ELL: the warp executes as many steps
as its longest row, but issues no memory traffic for lanes whose rows
have ended.

Comparing ELLR-T against plain ELL and the warp-grained format isolates
how much of the sliced family's win is the *value-bandwidth* saving
(which ELLR-T also gets) versus the *storage compaction* (which only
slicing gets).
"""

from __future__ import annotations

import numpy as np

from repro.sparse.base import INDEX_BYTES, VALUE_BYTES
from repro.sparse.ell import ELLMatrix, PAD_COL


class ELLRMatrix(ELLMatrix):
    """ELLPACK-R sparse matrix (ELL + per-row length array).

    The dense layout is identical to :class:`~repro.sparse.ell.ELLMatrix`
    (so construction is shared); the differences are the ``row_lengths``
    array being part of the *device* structure and the kernel semantics
    of not touching padding at all.
    """

    format_name = "ellr"

    def __init__(self, matrix, *, pad_to: int = 32):
        super().__init__(matrix, pad_to=pad_to)
        # Device-resident row lengths, padded like the value array.
        self.rl = np.zeros(self.n_padded, dtype=np.int32)
        self.rl[: self.shape[0]] = self.row_lengths

    def _reference_spmv(self, x: np.ndarray) -> np.ndarray:
        """Row-length-guided product: lane ``i`` runs ``rl[i]`` steps.

        Numerically identical to the ELL kernel; the difference is pure
        traffic (no padded value loads), which the kernel model captures.
        """
        y = np.zeros(self.n_padded, dtype=np.float64)
        for c in range(self.k):
            active = self.rl > c
            if not active.any():
                break
            cols = self.cols[active, c]
            # Defensive: the structure guarantees col validity below rl.
            assert (cols != PAD_COL).all()
            y[active] += self.values[active, c] * x[cols]
        return y[: self.shape[0]]

    def footprint(self) -> int:
        """ELL's dense slots plus the 4-byte row-length array."""
        return (self.n_padded * self.k * (VALUE_BYTES + INDEX_BYTES)
                + self.n_padded * INDEX_BYTES)
