"""The MKL-like CSR+DIA Jacobi baseline (Table IV's CPU column).

The paper's baseline stores the dense ``{-1, 0, +1}`` band in DIA and
the remainder in CSR ("in practice CSR+DIA"), then runs the same Jacobi
iteration as the GPU.  :class:`CSRDIABaseline` is a faithful functional
implementation plus the per-iteration traffic/roofline estimate against
a :class:`~repro.cpu.machine.CPUSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cpu.machine import OPTERON_6274_QUAD, CPUSpec
from repro.errors import FormatError, SingularMatrixError
from repro.sparse.base import VALUE_BYTES, as_csr
from repro.sparse.csr import CSRMatrix
from repro.sparse.dia import DIAMatrix
from repro.sparse.ell_dia import select_band_offsets


@dataclass(frozen=True)
class CPUPerfEstimate:
    """Modeled CPU performance of one Jacobi iteration."""

    bytes_per_iteration: float
    flops_per_iteration: float
    effective_bandwidth_gbs: float
    time_s: float

    @property
    def gflops(self) -> float:
        return (self.flops_per_iteration / self.time_s / 1e9
                if self.time_s > 0 else 0.0)


class CSRDIABaseline:
    """CSR+DIA split of a rate matrix with a Jacobi step, CPU-style.

    Parameters
    ----------
    matrix:
        Anything convertible to canonical CSR (square).
    offsets:
        Band diagonals to peel into DIA; auto-selected from
        ``{-1, 0, +1}`` by the 8/12 density rule when omitted (the main
        diagonal is always peeled — the Jacobi divisor).
    """

    def __init__(self, matrix, *, offsets=None):
        csr = as_csr(matrix)
        if csr.shape[0] != csr.shape[1]:
            raise FormatError("the Jacobi baseline needs a square matrix")
        self.shape = csr.shape
        if offsets is None:
            offsets = select_band_offsets(csr)
        self.dia = DIAMatrix.from_scipy(csr, offsets=offsets)
        self.csr = CSRMatrix(as_csr((csr - self.dia.to_scipy()).tocsr()))
        self.diagonal = self.dia.main_diagonal()
        if np.any(self.diagonal == 0.0):
            raise SingularMatrixError(
                "Jacobi baseline requires a nonzero diagonal")

    # -- functional execution -----------------------------------------------

    @property
    def nnz(self) -> int:
        return self.dia.nnz + self.csr.nnz

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Full product ``A @ x`` (band + remainder)."""
        return self.dia.spmv(x) + self.csr.spmv(x)

    def jacobi_step(self, x: np.ndarray) -> np.ndarray:
        """One Jacobi iteration ``x' = -D^{-1}(A - D) x`` for ``A x = 0``."""
        off_band = self.dia.spmv(x) - self.diagonal * x
        return -(off_band + self.csr.spmv(x)) / self.diagonal

    def to_scipy(self):
        """The recombined generator (band + remainder) as SciPy CSR."""
        return as_csr(self.csr.to_scipy() + self.dia.to_scipy())

    def footprint(self) -> int:
        """Host memory of the data structures, in bytes."""
        return self.dia.footprint() + self.csr.footprint()

    # -- performance model ----------------------------------------------------

    def traffic_per_iteration(self) -> tuple[float, float]:
        """(bytes, flops) of one Jacobi iteration.

        One full sweep of the matrix structures plus three vector
        streams (read ``x``, write ``x'``, and the gathered ``x``
        accesses of the CSR part folded into the structure sweep by the
        LLC model).
        """
        n = self.shape[0]
        matrix_bytes = float(self.footprint())
        vector_bytes = float(3 * n * VALUE_BYTES)
        flops = 2.0 * self.nnz + float(n)   # FMAs plus the division
        return matrix_bytes + vector_bytes, flops

    def performance(self, machine: CPUSpec = OPTERON_6274_QUAD, *,
                    working_set_scale: float = 1.0) -> CPUPerfEstimate:
        """Roofline estimate of one Jacobi iteration on *machine*.

        ``working_set_scale`` plays the role of the GPU model's
        ``x_scale``: pass ``paper_n / n`` so a scaled-down matrix is
        judged against the LLC as its full-size original would be.
        """
        if working_set_scale < 1.0:
            raise FormatError("working_set_scale must be >= 1")
        bytes_iter, flops = self.traffic_per_iteration()
        bw = machine.effective_bandwidth_gbs(bytes_iter * working_set_scale)
        t_mem = bytes_iter / (bw * 1e9)
        t_cpu = flops / (machine.dp_peak_gflops * 1e9)
        return CPUPerfEstimate(
            bytes_per_iteration=bytes_iter,
            flops_per_iteration=flops,
            effective_bandwidth_gbs=bw,
            time_s=max(t_mem, t_cpu),
        )
