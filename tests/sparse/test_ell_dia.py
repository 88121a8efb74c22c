"""Unit tests for the ELL+DIA hybrid (Section V, Figure 3)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import FormatError
from repro.sparse.ell_dia import (
    DIA_DENSITY_THRESHOLD,
    ELLDIAMatrix,
    diagonal_density,
    select_band_offsets,
)
from repro.sparse.base import as_csr


def banded_plus_far(n=96, seed=0):
    """Tridiagonal band plus one far diagonal (a CME-like shape)."""
    rng = np.random.default_rng(seed)
    A = sp.diags([rng.random(n - 1) + 0.1, -(rng.random(n) + 1),
                  rng.random(n - 1) + 0.1, rng.random(n - 17) + 0.1],
                 [-1, 0, 1, 17], format="csr")
    return as_csr(A)


class TestDiagonalDensity:
    def test_full_diagonal(self):
        A = as_csr(sp.eye(10, format="csr"))
        assert diagonal_density(A, 0) == 1.0
        assert diagonal_density(A, 1) == 0.0

    def test_out_of_range_offset(self):
        A = as_csr(sp.eye(3, format="csr"))
        assert diagonal_density(A, 5) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_stored_entries_are_the_nonzeros_of_canonical_csr(self, seed):
        """The density counts stored entries; on canonical CSR those
        are the diagonal's nonzeros, so the formats' peel is as it was."""
        rng = np.random.default_rng(seed)
        n = 50 + 13 * seed
        A = sp.random(n, n, density=0.05, random_state=seed, format="csr")
        for off in (-1, 0, 1):
            band = np.where(rng.random(n - abs(off)) < 0.7,
                            rng.random(n - abs(off)), 0.0)
            A = A + sp.diags(band, off, shape=(n, n))
        A = as_csr(A)
        for off in (-2, -1, 0, 1, 2):
            nonzeros = np.count_nonzero(A.diagonal(k=off))
            assert diagonal_density(A, off) == nonzeros / (n - abs(off))

    def test_counts_explicit_zeros(self):
        """A stored 0.0 is stored: the density is the pattern's."""
        A = sp.csr_matrix((np.array([0.0, 1.0, 1.0]), np.array([1, 0, 2]),
                           np.array([0, 1, 2, 3])), shape=(3, 3))
        assert diagonal_density(A, 1) == 1 / 2
        assert diagonal_density(A, -1) == 1 / 2
        assert diagonal_density(A, 0) == 1 / 3


class TestSelection:
    def test_threshold_is_eight_twelfths(self):
        assert DIA_DENSITY_THRESHOLD == pytest.approx(8 / 12)

    def test_main_always_selected(self):
        A = as_csr(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert 0 in select_band_offsets(A)

    def test_dense_neighbors_selected(self):
        A = banded_plus_far()
        offsets = select_band_offsets(A)
        assert offsets == [-1, 0, 1]

    def test_sparse_neighbors_skipped(self):
        n = 40
        sub = np.zeros(n - 1)
        sub[:5] = 1.0  # density 5/39 < 2/3
        A = as_csr(sp.diags([sub, np.ones(n)], [-1, 0], format="csr"))
        assert select_band_offsets(A) == [0]


class TestConstruction:
    def test_split_is_lossless(self):
        A = banded_plus_far()
        m = ELLDIAMatrix(A)
        assert abs(m.to_scipy() - A).max() < 1e-15
        assert m.nnz == A.nnz

    def test_remainder_excludes_band(self):
        A = banded_plus_far()
        m = ELLDIAMatrix(A)
        # The ELL remainder holds only the far diagonal.
        assert m.ell.k == 1

    def test_rejects_rectangular(self):
        with pytest.raises(FormatError):
            ELLDIAMatrix(sp.random(4, 5, density=0.5, random_state=0))


class TestSpmvAndJacobi:
    def test_spmv_matches_scipy(self, rng):
        A = banded_plus_far(seed=2)
        m = ELLDIAMatrix(A)
        x = rng.random(A.shape[1])
        np.testing.assert_allclose(m.spmv(x), A @ x, rtol=1e-13)

    def test_jacobi_step_formula(self, rng):
        A = banded_plus_far(seed=3)
        m = ELLDIAMatrix(A)
        x = rng.random(A.shape[0])
        d = A.diagonal()
        expected = -(A @ x - d * x) / d
        np.testing.assert_allclose(m.jacobi_step(x), expected, rtol=1e-12)

    def test_main_diagonal(self):
        A = banded_plus_far(seed=4)
        m = ELLDIAMatrix(A)
        np.testing.assert_allclose(m.main_diagonal(), A.diagonal())


class TestFootprint:
    def test_saves_vs_plain_ell_on_dense_band(self):
        from repro.sparse.ell import ELLMatrix
        A = banded_plus_far()
        assert ELLDIAMatrix(A).footprint() < ELLMatrix(A).footprint()

    def test_is_sum_of_parts(self):
        A = banded_plus_far()
        m = ELLDIAMatrix(A)
        assert m.footprint() == m.dia.footprint() + m.ell.footprint()
