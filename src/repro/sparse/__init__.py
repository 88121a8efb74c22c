"""GPU-oriented sparse matrix formats.

This subpackage implements, from scratch, every sparse format the paper
uses or compares against:

==================  =====================================================
:class:`COOMatrix`   coordinate format (assembly / Matrix Market I/O)
:class:`CSRMatrix`   compressed sparse row (CPU baseline format)
:class:`DIAMatrix`   diagonal format (dense band storage)
:class:`ELLMatrix`   ELLPACK with warp-padded rows (Section V)
:class:`ELLDIAMatrix` ELL with the dense diagonal band peeled into DIA
:class:`SlicedELLMatrix` sliced ELL of Monakov et al. (slice = block)
:class:`WarpedELLMatrix` the paper's warp-grained sliced ELL with local
                     rearrangement, optionally combined with DIA
                     (Section VI)
:class:`SellCSigmaMatrix` the general chunk/sort family the paper's
                     format belongs to (ablation studies)
==================  =====================================================

All formats share the :class:`SparseFormat` interface: ``spmv(x)`` is
the one product entry point, validating once and dispatching to the
selected :mod:`repro.backends` kernel (the reference backend runs the
format-faithful traversal — the exact arithmetic a GPU kernel would
perform).  Every format also provides byte-exact device ``footprint``
accounting and lossless conversion to/from :mod:`scipy.sparse`.
"""

from repro.sparse.base import SparseFormat
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.dia import DIAMatrix
from repro.sparse.ell import ELLMatrix
from repro.sparse.ellr import ELLRMatrix
from repro.sparse.ell_dia import ELLDIAMatrix
from repro.sparse.sliced_ell import SlicedELLMatrix
from repro.sparse.warped_ell import WarpedELLMatrix
from repro.sparse.sell_c_sigma import SellCSigmaMatrix
from repro.sparse.reorder import (
    local_rearrangement,
    global_row_sort,
    random_permutation,
)
from repro.sparse.stats import MatrixStats, matrix_stats
from repro.sparse.conversion import from_scipy, to_scipy
from repro.sparse.mmio import read_matrix_market, write_matrix_market

__all__ = [
    "SparseFormat",
    "COOMatrix",
    "CSRMatrix",
    "DIAMatrix",
    "ELLMatrix",
    "ELLRMatrix",
    "ELLDIAMatrix",
    "SlicedELLMatrix",
    "WarpedELLMatrix",
    "SellCSigmaMatrix",
    "local_rearrangement",
    "global_row_sort",
    "random_permutation",
    "MatrixStats",
    "matrix_stats",
    "from_scipy",
    "to_scipy",
    "read_matrix_market",
    "write_matrix_market",
]
