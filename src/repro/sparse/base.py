"""Common interface for all sparse formats.

Since the backend redesign every format exposes **one documented entry
point per multiply op**:

``spmv(x, *, backend=None)`` / ``spmm(X, *, backend=None)``
    The sparse products ``y = A @ x`` and ``Y = A @ X`` (``X`` of shape
    ``(n, k)``).  The entry points validate the operand once, then
    dispatch to a :mod:`repro.backends` kernel: the ``numpy`` reference
    backend runs the format's own *format-faithful* kernel
    (:meth:`_reference_spmv` / :meth:`_reference_spmm` — exactly the
    arithmetic of the corresponding GPU kernel, same traversal order,
    same padding-skip semantics), while JIT backends run compiled
    kernels that reproduce the identical accumulation order (the
    conformance suite asserts bitwise agreement).  Column ``j`` of
    ``spmm`` matches ``spmv(X[:, j])`` exactly on every backend.

``matvec(x)`` / ``matmat(X)``
    Thin cached aliases of ``spmv``/``spmm`` kept for solver inner
    loops: when a non-reference backend serves this format they forward
    to the dispatched product; otherwise they run a cached SciPy CSR
    product (numerically equal to ``spmv``, faster than the Python
    traversal).  They add no third semantic — ``spmv`` is *the* seam.

Subclasses implement ``_reference_spmv`` (and optionally a vectorized
``_reference_spmm``); a subclass that overrides ``spmv``/``spmm``
directly raises ``TypeError`` at class definition.

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
        """Refuse direct ``spmv``/``spmm`` overrides at class definition.

        Such an override would shadow the dispatching entry point and
        bypass every backend; a format implements ``_reference_spmv``
        (and optionally ``_reference_spmm``) instead.
        """
        super().__init_subclass__(**kwargs)
        for name in ("spmv", "spmm"):
            if name in cls.__dict__:
                raise TypeError(
                    f"{cls.__name__} overrides {name}() directly; implement "
                    f"_reference_{name}() instead, which the {name}() "
                    f"entry point dispatches to through the kernel "
                    f"backends")

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

    def spmm(self, X: np.ndarray, *, backend=None) -> np.ndarray:
        """Multi-RHS product ``Y = A @ X`` with ``X`` of shape ``(n, k)``.

        Dispatches like :meth:`spmv`; every backend's ``spmm(X)[:, j]``
        equals its ``spmv(X[:, j])`` bit for bit (the amortization a
        batched kernel exploits changes traffic, not arithmetic).
        """
        X = self.check_X(X)
        be = backends.serving(self.format_name, "spmm", backend)
        return be.spmm(self, X)

    def _reference_spmm(self, X: np.ndarray) -> np.ndarray:
        """Generic reference multi-RHS kernel: ``_reference_spmv`` per column.

        Formats with a vectorized sweep override this; the fallback
        preserves each column's exact arithmetic.
        """
        Y = np.zeros((self.n_rows, X.shape[1]), dtype=np.float64)
        for j in range(X.shape[1]):
            Y[:, j] = self._reference_spmv(np.ascontiguousarray(X[:, j]))
        return Y

    def matvec(self, x: np.ndarray, *, backend=None) -> np.ndarray:
        """Fast ``A @ x`` — a thin alias of :meth:`spmv`.

        With a non-reference backend serving this format it *is*
        ``spmv`` (same kernel, same bits); under the reference backend
        it runs a cached SciPy CSR product instead of the Python-level
        format traversal (numerically equal, faster on this host).
        """
        be = backends.resolve(backend)
        if not be.is_reference and be.supports(self.format_name, "spmv"):
            return self.spmv(x, backend=be)
        x = check_1d(x, "x", n=self.n_cols, dtype=np.float64)
        return self._cached_csr() @ x

    def matmat(self, X: np.ndarray, *, backend=None) -> np.ndarray:
        """Fast ``A @ X`` — a thin alias of :meth:`spmm` (see :meth:`matvec`)."""
        be = backends.resolve(backend)
        if not be.is_reference and be.supports(self.format_name, "spmm"):
            return self.spmm(X, backend=be)
        X = self.check_X(X)
        return self._cached_csr() @ X

    def _cached_csr(self) -> sp.csr_matrix:
        csr = getattr(self, "_csr_cache", None)
        if csr is None:
            csr = self.to_scipy()
            self._csr_cache = csr
        return csr

    def _invalidate_cache(self) -> None:
        self._csr_cache = None

    def check_x(self, x: np.ndarray) -> np.ndarray:
        """Validate a multiplicand vector (contiguous float64 on return)."""
        return check_1d(x, "x", n=self.n_cols, dtype=np.float64)

    def check_X(self, X: np.ndarray) -> np.ndarray:
        """Validate a multi-RHS block: shape ``(n_cols, k)``, float64."""
        arr = np.asarray(X)
        if arr.ndim != 2:
            raise ValidationError(
                f"X must be 2-D (n, k), got ndim={arr.ndim}")
        if arr.shape[0] != self.n_cols:
            raise ValidationError(
                f"X must have {self.n_cols} rows, got {arr.shape[0]}")
        return np.ascontiguousarray(arr, dtype=np.float64)

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
