"""Hybrid ELL+DIA format (Section V, Figure 3).

CME rate matrices in DFS order have a fully dense main diagonal (by the
definition ``A(x,x) = -Σ A(x',x)``) and, thanks to reversible reactions
between DFS-adjacent microstates, dense ``{-1, +1}`` neighbors.  Peeling
those diagonals into DIA

* saves 4 bytes per peeled nonzero (no column index),
* makes the ``x`` accesses of the band contiguous, and
* hands the Jacobi iteration its ``a_ii`` coefficients directly instead of
  leaving them at arbitrary positions inside the ELL structure.

A diagonal is only worth peeling when its density exceeds
``DIA_DENSITY_THRESHOLD = 8/12``: below that, the zero slots DIA stores
cost more than the ELL column indices it saves.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import FormatError, SingularMatrixError
from repro.sparse.base import SparseFormat, as_csr
from repro.sparse.dia import DIAMatrix
from repro.sparse.ell import WARP_SIZE, ELLMatrix

#: Minimum diagonal density for DIA storage to beat ELL storage (8B vs 12B).
DIA_DENSITY_THRESHOLD = 8.0 / 12.0


def diagonal_density(csr: sp.csr_matrix, offset: int) -> float:
    """Density of the diagonal at *offset*: its stored entries over its
    in-bounds length.  On canonical CSR (no explicit zeros, no
    duplicates) the stored entries are its nonzeros.  Counting what is
    stored makes the density a property of the sparsity pattern, which
    the native Jacobi layout decides on in one pass over the indices."""
    n, m = csr.shape
    lo = max(0, -offset)
    hi = min(n, m - offset)
    slots = hi - lo
    if slots <= 0:
        return 0.0
    rows = np.repeat(np.arange(n), np.diff(csr.indptr))
    stored = np.count_nonzero(csr.indices - rows == offset)
    return float(stored) / slots


def select_band_offsets(csr: sp.csr_matrix,
                        candidates=(-1, 0, 1),
                        threshold: float = DIA_DENSITY_THRESHOLD,
                        always_main: bool = True) -> list[int]:
    """Choose which diagonals to peel into DIA.

    The main diagonal is always selected when *always_main* (the Jacobi
    iteration needs it as a dense vector regardless of density); other
    candidates are selected when their density exceeds *threshold*.
    """
    chosen = []
    for off in candidates:
        dens = diagonal_density(csr, off)
        if (off == 0 and always_main) or dens > threshold:
            chosen.append(off)
    if 0 not in chosen and always_main:
        chosen.append(0)
    return sorted(chosen)


class ELLDIAMatrix(SparseFormat):
    """ELL matrix with a DIA-stored diagonal band.

    Parameters
    ----------
    matrix:
        Anything convertible to canonical CSR.
    offsets:
        Diagonals to peel.  ``None`` selects automatically from
        ``{-1, 0, +1}`` by the 8/12 density rule (main diagonal always).
    pad_to:
        ELL row padding (default: warp size).
    """

    format_name = "ell+dia"

    def __init__(self, matrix, *, offsets=None, pad_to: int = WARP_SIZE):
        csr = as_csr(matrix)
        if csr.shape[0] != csr.shape[1]:
            raise FormatError("ELL+DIA requires a square matrix")
        self.shape = csr.shape
        if offsets is None:
            offsets = select_band_offsets(csr)
        self.dia = DIAMatrix.from_scipy(csr, offsets=offsets)
        remainder = (csr - self.dia.to_scipy()).tocsr()
        self.ell = ELLMatrix(as_csr(remainder), pad_to=pad_to)

    # -- queries ------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return self.dia.nnz + self.ell.nnz

    @property
    def offsets(self) -> np.ndarray:
        return self.dia.offsets

    def main_diagonal(self) -> np.ndarray:
        """Dense main diagonal (the Jacobi divisor vector)."""
        return self.dia.main_diagonal()

    # -- SparseFormat interface --------------------------------------------

    def _reference_spmv(self, x: np.ndarray) -> np.ndarray:
        """DIA band product plus ELL remainder product."""
        return self.dia._reference_spmv(x) + self.ell._reference_spmv(x)

    def jacobi_step(self, x: np.ndarray) -> np.ndarray:
        """One Jacobi iteration ``x' = -D^{-1}(A - D) x`` for ``A x = 0``.

        The main diagonal sits in the first DIA column, so ``a_ii`` is read
        directly; the off-diagonal band and the ELL remainder are then
        accumulated and divided — exactly the fused GPU kernel the paper
        describes at the end of Section V.
        """
        x = self.check_x(x)
        diag = self.main_diagonal()
        if np.any(diag == 0.0):
            raise SingularMatrixError("Jacobi step requires a nonzero diagonal")
        off_band = self.dia.spmv(x) - diag * x
        return -(off_band + self.ell.spmv(x)) / diag

    def to_scipy(self) -> sp.csr_matrix:
        return as_csr(self.dia.to_scipy() + self.ell.to_scipy())

    def footprint(self) -> int:
        """Bytes: ELL remainder plus DIA band."""
        return self.dia.footprint() + self.ell.footprint()
