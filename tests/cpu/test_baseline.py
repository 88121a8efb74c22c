"""Unit tests for the CPU CSR+DIA baseline and its roofline model."""

import dataclasses

import numpy as np
import pytest

from repro.cpu.baseline import CSRDIABaseline
from repro.cpu.machine import OPTERON_6274_QUAD, CPUSpec
from repro.errors import DeviceModelError, FormatError


class TestMachine:
    def test_paper_host(self):
        assert OPTERON_6274_QUAD.total_cores == 64
        assert OPTERON_6274_QUAD.llc_bytes == 64 * 1024 * 1024

    def test_bandwidth_curve(self):
        m = OPTERON_6274_QUAD
        resident = m.effective_bandwidth_gbs(0)
        streaming = m.effective_bandwidth_gbs(10 * m.llc_bytes)
        assert resident == pytest.approx(
            m.base_bandwidth_gbs * (1 + m.cache_boost))
        assert streaming < resident
        assert streaming > m.base_bandwidth_gbs

    def test_validation(self):
        with pytest.raises(DeviceModelError):
            CPUSpec("x", 0, 8, 16, 10, 1, 100)
        with pytest.raises(DeviceModelError):
            dataclasses.replace(OPTERON_6274_QUAD, base_bandwidth_gbs=0)
        with pytest.raises(DeviceModelError):
            OPTERON_6274_QUAD.effective_bandwidth_gbs(-1)


class TestBaselineFunctional:
    def test_split_is_lossless(self, tiny_toggle_matrix):
        b = CSRDIABaseline(tiny_toggle_matrix)
        recomposed = b.csr.to_scipy() + b.dia.to_scipy()
        assert abs(recomposed - tiny_toggle_matrix).max() < 1e-15
        assert b.nnz == tiny_toggle_matrix.nnz

    def test_spmv_matches_scipy(self, tiny_toggle_matrix, rng):
        b = CSRDIABaseline(tiny_toggle_matrix)
        x = rng.random(tiny_toggle_matrix.shape[1])
        np.testing.assert_allclose(b.spmv(x), tiny_toggle_matrix @ x,
                                   rtol=1e-11, atol=1e-13)

    def test_jacobi_step_formula(self, tiny_toggle_matrix, rng):
        b = CSRDIABaseline(tiny_toggle_matrix)
        x = rng.random(tiny_toggle_matrix.shape[0])
        d = tiny_toggle_matrix.diagonal()
        expected = -(tiny_toggle_matrix @ x - d * x) / d
        np.testing.assert_allclose(b.jacobi_step(x), expected, rtol=1e-11)

    def test_rejects_rectangular(self):
        import scipy.sparse as sp
        with pytest.raises(FormatError):
            CSRDIABaseline(sp.random(4, 5, density=0.5, random_state=0))


class TestBaselineModel:
    def test_in_paper_band_at_paper_scale(self, tiny_toggle_matrix):
        b = CSRDIABaseline(tiny_toggle_matrix)
        perf = b.performance(working_set_scale=5000.0)
        assert 0.3 < perf.gflops < 3.0   # paper column: 0.646 - 1.399

    def test_cached_faster_than_streaming(self, tiny_toggle_matrix):
        b = CSRDIABaseline(tiny_toggle_matrix)
        cached = b.performance(working_set_scale=1.0).gflops
        streaming = b.performance(working_set_scale=10000.0).gflops
        assert cached > streaming

    def test_traffic_accounting(self, tiny_toggle_matrix):
        b = CSRDIABaseline(tiny_toggle_matrix)
        bytes_iter, flops = b.traffic_per_iteration()
        n = tiny_toggle_matrix.shape[0]
        assert flops == 2 * b.nnz + n
        assert bytes_iter == b.footprint() + 3 * n * 8

    def test_scale_validated(self, tiny_toggle_matrix):
        with pytest.raises(FormatError):
            CSRDIABaseline(tiny_toggle_matrix).performance(
                working_set_scale=0.5)
