"""Structure-keyed memoization of traffic analysis (repro.gpusim.memo)."""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cme import build_rate_matrix, enumerate_state_space
from repro.cme.models import toggle_switch
from repro.gpusim import (
    clear_memo,
    jacobi_performance,
    memo_stats,
    spmv_performance,
    spmv_traffic,
    structure_fingerprint,
)
from repro.gpusim.kernels.base import Precision
from repro.gpusim.memo import MEMO_CAPACITY, memoized_traffic
from repro.sparse.base import as_csr
from repro.sparse.csr import CSRMatrix
from repro.sparse.dia import DIAMatrix
from repro.sparse.ell import ELLMatrix
from repro.sparse.ell_dia import ELLDIAMatrix
from repro.sparse.ellr import ELLRMatrix
from repro.sparse.sell_c_sigma import SellCSigmaMatrix
from repro.sparse.sliced_ell import SlicedELLMatrix
from repro.sparse.warped_ell import WarpedELLMatrix
from repro.telemetry.metrics import get_registry


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_memo()
    yield
    clear_memo()


def banded(n=128, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    A = sp.diags([rng.random(n - 1) + 0.1,
                  -(rng.random(n) + 2) * scale,
                  rng.random(n - 1) + 0.1],
                 [-1, 0, 1], format="csr")
    return as_csr(A)


ALL_FORMATS = [CSRMatrix, ELLMatrix, ELLRMatrix, ELLDIAMatrix,
               SlicedELLMatrix, SellCSigmaMatrix, WarpedELLMatrix]


class TestFingerprint:
    def test_cached_on_instance(self):
        fmt = ELLMatrix(banded())
        fp = structure_fingerprint(fmt)
        assert fmt._gpusim_structure_fp == fp
        assert structure_fingerprint(fmt) == fp

    def test_same_structure_same_fingerprint(self):
        # Equal sparsity pattern, different values: traffic is identical,
        # so the fingerprints must collide (that is the cache's point).
        a = ELLMatrix(banded(scale=1.0))
        b = ELLMatrix(banded(scale=3.0))
        assert structure_fingerprint(a) == structure_fingerprint(b)

    def test_different_structure_differs(self):
        a = ELLMatrix(banded(n=128))
        b = ELLMatrix(banded(n=160))
        assert structure_fingerprint(a) != structure_fingerprint(b)

    def test_formats_do_not_collide(self):
        A = banded()
        fps = {structure_fingerprint(cls(A)) for cls in ALL_FORMATS}
        assert len(fps) == len(ALL_FORMATS)

    def test_warped_configuration_in_key(self):
        A = banded()
        plain = WarpedELLMatrix(A)
        diag = WarpedELLMatrix(A, separate_diagonal=True)
        unsorted = WarpedELLMatrix(A, reorder="none")
        assert len({structure_fingerprint(m)
                    for m in (plain, diag, unsorted)}) == 3


class TestMemoizedTraffic:
    def test_hit_returns_identical_report(self):
        fmt = SlicedELLMatrix(banded())
        first = spmv_traffic(fmt)
        again = spmv_traffic(fmt)
        assert again is first
        stats = memo_stats()
        assert stats == {"hits": 1, "misses": 1, "size": 1,
                         "capacity": MEMO_CAPACITY}

    def test_hit_across_equal_structures(self):
        # A different object with the same structure hits the same entry.
        first = spmv_traffic(ELLMatrix(banded(scale=1.0)))
        again = spmv_traffic(ELLMatrix(banded(scale=2.0)))
        assert again is first

    def test_parameters_split_entries(self):
        fmt = ELLMatrix(banded())
        dp = spmv_traffic(fmt, precision=Precision.DOUBLE)
        sg = spmv_traffic(fmt, precision=Precision.SINGLE)
        assert sg is not dp
        assert memo_stats()["misses"] == 2
        assert spmv_traffic(fmt, precision=Precision.SINGLE) is sg

    def test_memoize_false_bypasses(self):
        fmt = ELLMatrix(banded())
        a = spmv_traffic(fmt, memoize=False)
        b = spmv_traffic(fmt, memoize=False)
        assert a is not b
        assert memo_stats() == {"hits": 0, "misses": 0, "size": 0,
                                "capacity": MEMO_CAPACITY}

    def test_memoized_equals_cold(self):
        for cls in ALL_FORMATS:
            fmt = cls(banded())
            cold = spmv_traffic(fmt, memoize=False)
            warm = spmv_traffic(fmt)
            assert warm.streamed_bytes == cold.streamed_bytes
            assert warm.flops == cold.flops
            assert warm.gather.transactions == cold.gather.transactions

    @pytest.mark.parametrize("build,offset", [
        (lambda A: DIAMatrix.from_scipy(A, offsets=[-1, 0, 1]), -1),
        (lambda A: ELLDIAMatrix(A, offsets=[-1, 0, 1]), -1),
        (lambda A: WarpedELLMatrix(A, separate_diagonal=True), 0),
    ], ids=["dia", "ell+dia", "warped+dia"])
    def test_stored_band_zeros_split_entries(self, build, offset):
        # A band stores its zeros as values: the same offsets (and
        # remainder) with fewer band nonzeros is fewer useful flops.
        A = banded()
        holes = A.tolil()
        for i in range(1, 64):
            holes[i, i + offset] = 0.0
        full, sparser = build(A), build(as_csr(holes))
        assert full.nnz > sparser.nnz
        for fmt in (full, sparser):
            assert (spmv_performance(fmt).gflops
                    == spmv_performance(fmt, memoize=False).gflops)
        assert memo_stats()["misses"] == 2

    def test_memoized_analysis_is_5x_faster_than_cold(self):
        """The memo's reason to exist, as a gate: a repeated analysis
        of the toggle switch (31) generator in warped ELL with its
        diagonal peeled is a fingerprint probe, at least 5x faster than
        the cold structure walk (best of 5 against the mean of 200)."""
        fmt = WarpedELLMatrix(
            as_csr(build_rate_matrix(enumerate_state_space(
                toggle_switch(max_protein=31)))),
            separate_diagonal=True)
        cold_s = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            spmv_traffic(fmt, memoize=False)
            cold_s = min(cold_s, time.perf_counter() - t0)
        spmv_traffic(fmt)
        loops = 200
        t0 = time.perf_counter()
        for _ in range(loops):
            spmv_traffic(fmt)
        warm_s = (time.perf_counter() - t0) / loops
        assert memo_stats()["hits"] == loops
        assert cold_s / warm_s >= 5.0, (cold_s, warm_s)

    def test_jacobi_performance_memoizes(self):
        fmt = ELLDIAMatrix(banded())
        cold = jacobi_performance(fmt, check_interval=100)
        warm = jacobi_performance(fmt, check_interval=100)
        assert warm.time_s == cold.time_s
        assert memo_stats()["hits"] == 1
        # Different amortization interval is a distinct analysis.
        jacobi_performance(fmt, check_interval=10)
        assert memo_stats()["misses"] == 2

    def test_telemetry_counters_advance(self):
        reg = get_registry()
        h0 = reg.counter("gpusim_memo_hits_total").value
        m0 = reg.counter("gpusim_memo_misses_total").value
        fmt = CSRMatrix(banded())
        spmv_traffic(fmt)
        spmv_traffic(fmt)
        assert reg.counter("gpusim_memo_hits_total").value == h0 + 1
        assert reg.counter("gpusim_memo_misses_total").value == m0 + 1

    def test_lru_eviction_bounds_cache(self):
        fmt = CSRMatrix(banded())
        for i in range(MEMO_CAPACITY + 10):
            memoized_traffic(fmt, lambda: object(), kind="spmv",
                             block_size=i)
        assert memo_stats()["size"] == MEMO_CAPACITY

    def test_clear_memo(self):
        spmv_traffic(ELLMatrix(banded()))
        clear_memo()
        assert memo_stats() == {"hits": 0, "misses": 0, "size": 0,
                                "capacity": MEMO_CAPACITY}
