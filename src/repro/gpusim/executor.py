"""Kernel dispatch: run a format functionally and estimate it on a device.

``run_spmv`` executes the format-faithful NumPy kernel (real numbers);
``spmv_performance`` / ``jacobi_performance`` build the matching traffic
report and resolve it against a device — the pairing that replaces "run
it on the GTX580 and time it" in this reproduction.
"""

from __future__ import annotations

import numpy as np

from repro import backends
from repro.errors import FormatError
from repro.gpusim.device import DeviceSpec, GTX580


def _launch_guard(kernel: str) -> None:
    """Fail this (simulated) launch if a fault plan schedules it.

    The lazy import keeps the dispatch hot path free of any resilience
    machinery when no injector is installed.
    """
    from repro.resilience.faults import active_injector
    injector = active_injector()
    if injector is not None and injector.active_for("gpusim.launch"):
        injector.maybe_fail("gpusim.launch", detail=kernel)
from repro.gpusim.kernels.base import Precision, TrafficReport
from repro.gpusim.kernels.csr import (
    csr_scalar_spmv_traffic,
    csr_vector_spmv_traffic,
)
from repro.gpusim.kernels.ell import (
    ell_dia_spmv_traffic,
    ell_spmv_traffic,
    ellr_spmv_traffic,
)
from repro.gpusim.kernels.jacobi import jacobi_traffic
from repro.gpusim.kernels.misc import coo_spmv_traffic, dia_spmv_traffic
from repro.gpusim.memo import memoized_traffic
from repro.gpusim.kernels.sliced import (
    sell_c_sigma_spmv_traffic,
    sliced_ell_spmv_traffic,
    warped_ell_spmv_traffic,
)
from repro.gpusim.perfmodel import PerfEstimate, estimate_performance
from repro.sparse.base import SparseFormat
from repro.telemetry import tracing
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.dia import DIAMatrix
from repro.sparse.ell import ELLMatrix
from repro.sparse.ellr import ELLRMatrix
from repro.sparse.ell_dia import ELLDIAMatrix
from repro.sparse.sell_c_sigma import SellCSigmaMatrix
from repro.sparse.sliced_ell import SlicedELLMatrix
from repro.sparse.warped_ell import WarpedELLMatrix


def spmv_traffic(matrix: SparseFormat, *,
                 precision: Precision = Precision.DOUBLE,
                 block_size: int | None = None,
                 csr_kernel: str = "vector",
                 memoize: bool = True) -> TrafficReport:
    """The SpMV traffic report of any supported format.

    ``block_size`` defaults to each kernel's natural configuration (256;
    the original sliced ELL couples it to the slice size).  ``csr_kernel``
    selects the scalar or vector CSR variant.

    Traffic depends only on the structure and the nonzero count, so by
    default the report is memoized under the structural fingerprint
    (see :mod:`repro.gpusim.memo`): repeat analyses of an
    already-fingerprinted matrix are O(1).  Pass ``memoize=False`` to
    force the full structure walk.
    """
    if memoize and isinstance(matrix, SparseFormat):
        return memoized_traffic(
            matrix,
            lambda: _spmv_traffic_impl(matrix, precision=precision,
                                       block_size=block_size,
                                       csr_kernel=csr_kernel),
            kind="spmv", precision=precision, block_size=block_size,
            csr_kernel=csr_kernel)
    return _spmv_traffic_impl(matrix, precision=precision,
                              block_size=block_size, csr_kernel=csr_kernel)


def _spmv_traffic_impl(matrix: SparseFormat, *,
                       precision: Precision,
                       block_size: int | None,
                       csr_kernel: str) -> TrafficReport:
    kwargs = {"precision": precision}
    if isinstance(matrix, WarpedELLMatrix):
        return warped_ell_spmv_traffic(matrix, block_size=block_size or 256,
                                       **kwargs)
    if isinstance(matrix, SellCSigmaMatrix):
        return sell_c_sigma_spmv_traffic(matrix,
                                         block_size=block_size or 256,
                                         **kwargs)
    if isinstance(matrix, SlicedELLMatrix):
        return sliced_ell_spmv_traffic(matrix, block_size=block_size,
                                       **kwargs)
    if isinstance(matrix, ELLDIAMatrix):
        return ell_dia_spmv_traffic(matrix, block_size=block_size or 256,
                                    **kwargs)
    if isinstance(matrix, ELLRMatrix):
        return ellr_spmv_traffic(matrix, block_size=block_size or 256,
                                 **kwargs)
    if isinstance(matrix, ELLMatrix):
        return ell_spmv_traffic(matrix, block_size=block_size or 256,
                                **kwargs)
    if isinstance(matrix, CSRMatrix):
        fn = (csr_vector_spmv_traffic if csr_kernel == "vector"
              else csr_scalar_spmv_traffic)
        return fn(matrix, block_size=block_size or 256, **kwargs)
    if isinstance(matrix, DIAMatrix):
        return dia_spmv_traffic(matrix, block_size=block_size or 256,
                                **kwargs)
    if isinstance(matrix, COOMatrix):
        return coo_spmv_traffic(matrix, block_size=block_size or 256,
                                **kwargs)
    raise FormatError(
        f"no GPU kernel model for format {type(matrix).__name__}")


def spmv_performance(matrix: SparseFormat, device: DeviceSpec = GTX580, *,
                     precision: Precision = Precision.DOUBLE,
                     block_size: int | None = None,
                     csr_kernel: str = "vector",
                     x_scale: float = 1.0,
                     memoize: bool = True) -> PerfEstimate:
    """Modeled SpMV performance of *matrix* on *device*.

    ``x_scale`` is the problem-size normalization of
    :func:`repro.gpusim.perfmodel.estimate_performance` (pass
    ``paper_n / n`` when the matrix is a scaled-down stand-in).

    When a :mod:`repro.telemetry` recorder is installed, each call
    emits a ``gpusim.spmv`` span carrying the kernel name, coalesced
    transaction count, modeled kernel time, occupancy and the
    limiting pipeline.
    """
    with tracing.span("gpusim.spmv", format=type(matrix).__name__,
                      device=device.name) as sp:
        _launch_guard("spmv")
        sp.set_attribute("exec_backend", _exec_backend_name(matrix))
        report = spmv_traffic(matrix, precision=precision,
                              block_size=block_size, csr_kernel=csr_kernel,
                              memoize=memoize)
        perf = estimate_performance(report, device, x_scale=x_scale)
        _annotate_span(sp, report, perf)
        return perf


def _exec_backend_name(matrix) -> str:
    """Name of the kernel backend the host-side product dispatches to.

    The traffic model describes the *modeled* GPU; this attribute
    records which CPU backend actually executes the functional kernel
    (``run_spmv`` / parity checks), honoring the ambient selection and
    the reference fallback for unsupported formats.
    """
    fmt = getattr(matrix, "format_name", "")
    be = backends.resolve(None)
    if not be.is_reference and not be.supports(fmt, "spmv"):
        return "numpy"
    return be.name


def _annotate_span(sp, report: TrafficReport, perf: PerfEstimate) -> None:
    """Attach the kernel model's headline numbers to a tracing span."""
    sp.set_attribute("kernel", report.kernel_name)
    sp.set_attribute("block_size", report.block_size)
    sp.set_attribute("transactions", report.gather.transactions)
    sp.set_attribute("streamed_bytes", report.streamed_bytes)
    sp.set_attribute("modeled_time_us", perf.time_s * 1e6)
    sp.set_attribute("gflops", perf.gflops)
    sp.set_attribute("occupancy", perf.occupancy.ratio)
    sp.set_attribute("limiting", perf.limiting_resource)


def jacobi_performance(matrix, device: DeviceSpec = GTX580, *,
                       precision: Precision = Precision.DOUBLE,
                       block_size: int = 256,
                       check_interval: int = 0,
                       normalize_interval: int = 0,
                       x_scale: float = 1.0,
                       memoize: bool = True) -> PerfEstimate:
    """Modeled per-iteration Jacobi performance on *device*.

    Emits a ``gpusim.jacobi`` span (kernel, transactions, modeled
    time, occupancy) when a telemetry recorder is installed.  Like
    :func:`spmv_traffic`, the underlying traffic report is memoized by
    structural fingerprint unless ``memoize=False``.
    """
    with tracing.span("gpusim.jacobi", format=type(matrix).__name__,
                      device=device.name) as sp:
        _launch_guard("jacobi")
        sp.set_attribute("exec_backend", _exec_backend_name(matrix))

        def _build():
            return jacobi_traffic(matrix, precision=precision,
                                  block_size=block_size,
                                  check_interval=check_interval,
                                  normalize_interval=normalize_interval)

        if memoize and isinstance(matrix, SparseFormat):
            report = memoized_traffic(
                matrix, _build, kind="jacobi", precision=precision,
                block_size=block_size, check_interval=check_interval,
                normalize_interval=normalize_interval)
        else:
            report = _build()
        perf = estimate_performance(report, device, x_scale=x_scale)
        _annotate_span(sp, report, perf)
        return perf


def run_spmv(matrix: SparseFormat, x: np.ndarray) -> np.ndarray:
    """Execute the format-faithful SpMV (the functional half)."""
    _launch_guard("run_spmv")
    return matrix.spmv(x)
