"""Unit tests for the CSR format."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import SingularMatrixError
from repro.sparse.csr import CSRMatrix


class TestConstruction:
    def test_from_dense(self):
        m = CSRMatrix([[1.0, 0.0], [0.0, 2.0]])
        assert m.nnz == 2
        assert m.shape == (2, 2)

    def test_canonicalization_drops_zeros(self):
        A = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        A.data[0] = 0.0  # explicit zero
        m = CSRMatrix(A)
        assert m.nnz == 0

    def test_row_lengths(self, random_square):
        m = CSRMatrix(random_square)
        assert m.row_lengths().sum() == m.nnz


class TestSpmv:
    def test_matches_scipy(self, random_square, rng):
        m = CSRMatrix(random_square)
        x = rng.random(random_square.shape[1])
        np.testing.assert_allclose(m.spmv(x), random_square @ x, rtol=1e-13)

    def test_empty_rows_yield_zero(self):
        m = CSRMatrix([[0.0, 0.0], [1.0, 1.0]])
        y = m.spmv(np.array([1.0, 1.0]))
        assert y[0] == 0.0 and y[1] == 2.0


class TestDiagonal:
    def test_diagonal_extraction(self):
        m = CSRMatrix([[2.0, 1.0], [0.0, -3.0]])
        assert m.diagonal().tolist() == [2.0, -3.0]

    def test_zero_where_absent(self):
        m = CSRMatrix([[0.0, 1.0], [1.0, 0.0]])
        assert m.diagonal().tolist() == [0.0, 0.0]


class TestJacobiStep:
    def test_matches_formula(self, random_square, rng):
        m = CSRMatrix(random_square)
        x = rng.random(random_square.shape[0])
        d = random_square.diagonal()
        expected = -(random_square @ x - d * x) / d
        np.testing.assert_allclose(m.jacobi_step(x), expected, rtol=1e-12)

    def test_requires_nonzero_diagonal(self):
        m = CSRMatrix([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(SingularMatrixError):
            m.jacobi_step(np.ones(2))


class TestFootprint:
    def test_exact_bytes(self, random_square):
        m = CSRMatrix(random_square)
        expected = m.nnz * 12 + (m.shape[0] + 1) * 4
        assert m.footprint() == expected
