"""Unit tests for the SparseFormat base machinery."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import backends
from repro.errors import ValidationError
from repro.sparse.base import as_csr, validate_shape
from repro.sparse.csr import CSRMatrix
from repro.sparse.ell import ELLMatrix


class TestValidateShape:
    def test_normalizes(self):
        assert validate_shape((3.0, 4)) == (3, 4)

    @pytest.mark.parametrize("bad", [(-1, 2), "nope", (3,)])
    def test_rejects(self, bad):
        with pytest.raises(ValidationError):
            validate_shape(bad)


class TestBaseBehaviour:
    def test_spmv_uses_cache(self, random_square, rng):
        # The SciPy twin belongs to CSR's reference product.
        fmt = CSRMatrix(random_square)
        x = rng.random(random_square.shape[1])
        with backends.use("numpy"):
            first = fmt.spmv(x)
            cached = fmt._csr_cache
            assert cached is not None
            second = fmt.spmv(x)
            assert fmt._csr_cache is cached
        np.testing.assert_array_equal(first, second)

    def test_check_x_validates_length(self, random_square):
        fmt = CSRMatrix(random_square)
        with pytest.raises(ValidationError):
            fmt.check_x(np.ones(3))

    def test_density(self):
        fmt = CSRMatrix(np.eye(4))
        assert fmt.density() == pytest.approx(0.25)

    def test_repr_mentions_shape(self, random_square):
        text = repr(CSRMatrix(random_square))
        assert "257x257" in text


class TestAsCsrCanonical:
    def test_int32_indices(self, random_square):
        csr = as_csr(random_square)
        assert csr.indices.dtype == np.int32
        assert csr.indptr.dtype == np.int32

    def test_indices_sorted_within_rows(self, random_square):
        csr = as_csr(random_square)
        for r in range(min(50, csr.shape[0])):
            row = csr.indices[csr.indptr[r]:csr.indptr[r + 1]]
            assert (np.diff(row) > 0).all()

    def test_sparse_format_input(self, random_square):
        fmt = ELLMatrix(random_square)
        again = as_csr(fmt)
        assert abs(again - random_square).max() == 0

    def test_coo_duplicates_summed(self):
        coo = sp.coo_matrix(([1.0, 2.0], ([0, 0], [0, 0])), shape=(1, 1))
        assert as_csr(coo)[0, 0] == 3.0
