"""Structure-keyed memoization of gpusim traffic analysis.

Building a :class:`~repro.gpusim.kernels.base.TrafficReport` walks every
warp-step of a format's layout — O(nnz) NumPy work — yet the result
depends only on the matrix *structure* (which column each lane reads,
how slices are cut, whether a dense diagonal is peeled) and on the
nonzero count its useful flops are normalized by.  The structure fixes
that count except where a format stores a dense band (DIA, the band of
ELL+DIA, warped ELL's peeled diagonal): a zero there is a stored value,
so those formats add their nonzero count to the key.  Sweeps, the
serving layer and repeated profiling runs analyse the same structures
over and over, so the executor memoizes:

* **Fingerprint** — a SHA-256 digest of the format's structural arrays
  (per-format: CSR ``indptr``/``col_indices``, ELL ``cols``, sliced
  ``slice_ptr``/``slice_k``/``cols`` plus permutations, DIA ``offsets``
  and nonzero count …) together with the format name and shape.  The
  digest is cached on the matrix instance itself (formats are immutable
  after construction), so every analysis after the first costs one
  dict probe — not a re-hash of O(nnz) data.
* **Key** — ``(fingerprint, kernel kind, sorted kernel parameters)``;
  two matrices with identical structure and nonzero count but
  different values share an entry, the same matrix at a different
  precision or block size does not.
* **Cache** — a bounded LRU (:data:`MEMO_CAPACITY` entries) guarded by
  one lock.  Hits return the *same* ``TrafficReport`` object (it is a
  frozen dataclass; treat the ``breakdown`` dict as read-only).

Hit/miss totals flow into the process-wide telemetry registry as
``gpusim_memo_hits_total`` / ``gpusim_memo_misses_total``; local
counters back :func:`memo_stats` so tests and benchmarks can diff
without touching global telemetry state.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from repro.sparse.base import SparseFormat, as_csr
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.dia import DIAMatrix
from repro.sparse.ell import ELLMatrix
from repro.sparse.ell_dia import ELLDIAMatrix
from repro.sparse.ellr import ELLRMatrix
from repro.sparse.sell_c_sigma import SellCSigmaMatrix
from repro.sparse.sliced_ell import SlicedELLMatrix
from repro.sparse.warped_ell import WarpedELLMatrix
from repro.telemetry.metrics import get_registry

#: Retained TrafficReports; enough for every format of a handful of
#: systems at a couple of precisions without unbounded growth.
MEMO_CAPACITY = 128

#: Attribute under which a matrix instance caches its own fingerprint.
_FP_ATTR = "_gpusim_structure_fp"

_lock = threading.Lock()
_cache: OrderedDict[tuple, object] = OrderedDict()
_hits = 0
_misses = 0


def _sliced_parts(matrix: SlicedELLMatrix) -> list[tuple[str, object]]:
    return [("slice_size", matrix.slice_size),
            ("slice_k", matrix.slice_k),
            ("slice_ptr", matrix.slice_ptr),
            ("cols", matrix.cols)]


def _structural_parts(matrix: SparseFormat) -> list[tuple[str, object]]:
    """The (label, array-or-scalar) pairs that determine kernel traffic.

    Most-derived formats first: the warped and SELL-C-sigma classes
    subclass :class:`SlicedELLMatrix` and must add their permutations
    and configuration on top of the sliced layout.
    """
    if isinstance(matrix, WarpedELLMatrix):
        # The peeled diagonal is a dense vector: its zeros are values.
        return (_sliced_parts(matrix)
                + [("row_ids", matrix.row_ids),
                   ("reorder", matrix.reorder),
                   ("separate_diagonal", matrix.separate_diagonal),
                   ("nnz", matrix.nnz)])
    if isinstance(matrix, SellCSigmaMatrix):
        return (_sliced_parts(matrix)
                + [("row_ids", matrix.row_ids),
                   ("chunk", matrix.chunk),
                   ("sigma", matrix.sigma)])
    if isinstance(matrix, SlicedELLMatrix):
        return _sliced_parts(matrix)
    if isinstance(matrix, ELLDIAMatrix):
        return ([("dia_" + label, value)
                 for label, value in _structural_parts(matrix.dia)]
                + [("ell_" + label, value)
                   for label, value in _structural_parts(matrix.ell)])
    if isinstance(matrix, ELLRMatrix):
        return [("n_padded", matrix.n_padded), ("cols", matrix.cols),
                ("rl", matrix.rl)]
    if isinstance(matrix, ELLMatrix):
        return [("n_padded", matrix.n_padded), ("cols", matrix.cols)]
    if isinstance(matrix, CSRMatrix):
        return [("indptr", matrix.indptr),
                ("col_indices", matrix.col_indices)]
    if isinstance(matrix, DIAMatrix):
        return [("offsets", matrix.offsets), ("nnz", matrix.nnz)]
    if isinstance(matrix, COOMatrix):
        return [("rows", matrix.rows), ("cols", matrix.cols)]
    # Unknown SparseFormat subclasses fall back to canonical CSR
    # structure — correct for any format whose traffic is a function of
    # the sparsity pattern.
    csr = as_csr(matrix.to_scipy())
    return [("indptr", csr.indptr), ("indices", csr.indices)]


def _feed(h, label: str, value) -> None:
    h.update(label.encode())
    h.update(b"\x00")
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    else:
        h.update(repr(value).encode())
    h.update(b"\x01")


def structure_fingerprint(matrix: SparseFormat) -> str:
    """SHA-256 digest of *matrix*'s structure, cached on the instance.

    Formats are immutable after construction, so the first call hashes
    the layout arrays and pins the digest to the object; every later
    call is an attribute read.
    """
    cached = getattr(matrix, _FP_ATTR, None)
    if cached is not None:
        return cached
    h = hashlib.sha256()
    _feed(h, "format", type(matrix).__name__)
    _feed(h, "shape", tuple(matrix.shape))
    for label, value in _structural_parts(matrix):
        _feed(h, label, value)
    fp = h.hexdigest()
    try:
        setattr(matrix, _FP_ATTR, fp)
    except (AttributeError, TypeError):  # e.g. __slots__ somewhere
        pass
    return fp


def memoized_traffic(matrix: SparseFormat, build, *, kind: str, **params):
    """``build()``'s TrafficReport, memoized under the structure key.

    *kind* names the analysis family (``"spmv"``, ``"jacobi"``);
    *params* are the kernel parameters that shape the report
    (precision, block size, CSR variant, amortization intervals).
    """
    global _hits, _misses
    key = (structure_fingerprint(matrix), kind,
           tuple(sorted(params.items())))
    with _lock:
        report = _cache.get(key)
        if report is not None:
            _cache.move_to_end(key)
            _hits += 1
    if report is not None:
        get_registry().counter(
            "gpusim_memo_hits_total",
            "Traffic analyses answered from the structure memo").inc()
        return report
    report = build()
    with _lock:
        _misses += 1
        _cache[key] = report
        _cache.move_to_end(key)
        while len(_cache) > MEMO_CAPACITY:
            _cache.popitem(last=False)
    get_registry().counter(
        "gpusim_memo_misses_total",
        "Traffic analyses that had to run the full structure walk").inc()
    return report


def memo_stats() -> dict:
    """Local hit/miss/size counters (independent of global telemetry)."""
    with _lock:
        return {"hits": _hits, "misses": _misses,
                "size": len(_cache), "capacity": MEMO_CAPACITY}


def clear_memo() -> None:
    """Drop every cached report and zero the local counters."""
    global _hits, _misses
    with _lock:
        _cache.clear()
        _hits = 0
        _misses = 0
