"""Common interface for all sparse formats.

Every format exposes **one documented product entry point**:

``spmv(x, *, backend=None)``
    The sparse product ``y = A @ x``.  The entry point validates the
    operand once, then dispatches to a :mod:`repro.backends` kernel:
    the ``numpy`` reference backend runs the format's own
    *format-faithful* kernel (:meth:`_reference_spmv` — exactly the
    arithmetic of the corresponding GPU kernel, same traversal order,
    same padding-skip semantics), while JIT backends run compiled
    kernels that reproduce the identical accumulation order (the
    conformance suite asserts bitwise agreement).

Subclasses implement ``_reference_spmv``; a subclass that overrides
``spmv`` directly raises ``TypeError`` at class definition.

Footprint accounting follows the paper: 8 bytes per double value, 4 bytes
per (column) index, 4 bytes per pointer/offset entry.
"""

from __future__ import annotations

import abc

import numpy as np
import scipy.sparse as sp

from repro import backends
from repro.errors import ValidationError
from repro.utils.validation import check_1d

#: Bytes per double-precision value on the device.
VALUE_BYTES = 8
#: Bytes per column index / pointer entry on the device.
INDEX_BYTES = 4


class SparseFormat(abc.ABC):
    """Abstract base class for device sparse-matrix representations.

    Subclasses must set ``shape`` (a ``(n_rows, n_cols)`` tuple) during
    construction and implement :meth:`_reference_spmv`, :meth:`to_scipy`
    and :meth:`footprint`.
    """

    #: Short lowercase identifier used in tables and the autotuner.
    format_name: str = "abstract"

    shape: tuple[int, int]

    def __init_subclass__(cls, **kwargs) -> None:
        """Refuse a direct ``spmv`` override at class definition.

        Such an override would shadow the dispatching entry point and
        bypass every backend; a format implements ``_reference_spmv``
        instead.
        """
        super().__init_subclass__(**kwargs)
        if "spmv" in cls.__dict__:
            raise TypeError(
                f"{cls.__name__} overrides spmv() directly; implement "
                f"_reference_spmv() instead, which the spmv() entry "
                f"point dispatches to through the kernel backends")

    # -- core interface ----------------------------------------------------

    @abc.abstractmethod
    def _reference_spmv(self, x: np.ndarray) -> np.ndarray:
        """Format-faithful product ``y = A @ x`` on a validated operand."""

    @abc.abstractmethod
    def to_scipy(self) -> sp.csr_matrix:
        """Lossless conversion to a SciPy CSR matrix (explicit zeros dropped)."""

    @abc.abstractmethod
    def footprint(self) -> int:
        """Device memory footprint of the data structure, in bytes."""

    # -- provided behaviour ------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        """Number of stored nonzeros (excluding padding)."""
        return int(self.to_scipy().nnz)

    def spmv(self, x: np.ndarray, *, backend=None) -> np.ndarray:
        """Sparse matrix-vector product ``y = A @ x``.

        The single kernel entry point: validates ``x`` once, then
        dispatches to the selected :mod:`repro.backends` kernel (see
        the module docstring for reference-vs-JIT semantics).  *backend*
        overrides the ambient selection for this call; an unsupported
        ``(format, op)`` pair falls back to the reference kernel.
        """
        x = self.check_x(x)
        be = backends.serving(self.format_name, "spmv", backend)
        return be.spmv(self, x)

    def check_x(self, x: np.ndarray) -> np.ndarray:
        """Validate a multiplicand vector (contiguous float64 on return)."""
        return check_1d(x, "x", n=self.n_cols, dtype=np.float64)

    def density(self) -> float:
        """Fraction of nonzero entries, ``nnz / (n_rows * n_cols)``."""
        n = self.n_rows * self.n_cols
        return self.nnz / n if n else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (f"<{type(self).__name__} {self.shape[0]}x{self.shape[1]}, "
                f"nnz={self.nnz}, {self.footprint()} bytes>")


def validate_shape(shape) -> tuple[int, int]:
    """Validate and normalize a matrix shape tuple."""
    try:
        n, m = int(shape[0]), int(shape[1])
    except (TypeError, ValueError, IndexError) as exc:
        raise ValidationError(f"invalid shape {shape!r}") from exc
    if n < 0 or m < 0:
        raise ValidationError(f"shape must be non-negative, got {shape!r}")
    return (n, m)


def as_csr(matrix) -> sp.csr_matrix:
    """Coerce SciPy sparse / dense / SparseFormat input to canonical CSR.

    Canonical means: sorted column indices, no duplicates, no explicit
    zeros, ``float64`` values and ``int32`` indices (the device index
    width used throughout the paper).

    Input that is already canonical is returned unchanged (no copy).
    Preserving object identity lets per-matrix caches keyed on the CSR
    arrays — kernel preps, stacked layouts — survive across solver
    constructions instead of being rebuilt for an identical copy.
    """
    if (sp.issparse(matrix) and matrix.format == "csr"
            and matrix.dtype == np.float64
            and matrix.indices.dtype == np.int32
            and matrix.indptr.dtype == np.int32
            and matrix.has_canonical_format
            and bool(matrix.data.all())):
        return matrix
    if isinstance(matrix, SparseFormat):
        csr = matrix.to_scipy()
    elif sp.issparse(matrix):
        csr = matrix.tocsr()
    else:
        arr = np.asarray(matrix, dtype=np.float64)
        if arr.ndim != 2:
            raise ValidationError(
                f"matrix must be 2-D, got ndim={arr.ndim}")
        csr = sp.csr_matrix(arr)
    csr = csr.astype(np.float64)
    csr.sum_duplicates()
    csr.eliminate_zeros()
    csr.sort_indices()
    if (csr.shape[0] >= np.iinfo(np.int32).max
            or csr.shape[1] >= np.iinfo(np.int32).max
            or csr.nnz >= np.iinfo(np.int32).max):
        raise ValidationError("matrix exceeds the 32-bit device index range")
    csr.indices = csr.indices.astype(np.int32)
    csr.indptr = csr.indptr.astype(np.int32)
    return csr
