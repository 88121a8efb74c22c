"""Multi-RHS ``spmm`` parity across every format.

The contract: ``A.spmm(X)[:, j]`` equals ``A.spmv(X[:, j])`` to 1e-14
for every format — the vectorized sweep must preserve each column's
exact traversal/accumulation order.  Edge cases cover empty matrices,
ragged row lengths, warp padding, k=1/k=0 blocks and shape validation.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ValidationError
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

BUILDERS = [
    ("coo", COOMatrix.from_scipy),
    ("csr", CSRMatrix),
    ("dia", DIAMatrix.from_scipy),
    ("ell", ELLMatrix),
    ("ellr", ELLRMatrix),
    ("ell+dia", ELLDIAMatrix),
    ("sell", lambda A: SlicedELLMatrix(A, slice_size=16)),
    ("warped", lambda A: WarpedELLMatrix(A, reorder="local", block_size=64)),
    ("warped+dia", lambda A: WarpedELLMatrix(A, separate_diagonal=True)),
    ("sell-c-sigma", lambda A: SellCSigmaMatrix(A, chunk=16, sigma=64)),
]

IDS = [name for name, _ in BUILDERS]


def random_system(n=97, density=0.06, seed=3):
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density=density, random_state=seed, format="csr")
    A = A + sp.diags(rng.random(n) + 0.5)
    return as_csr(A)


@pytest.mark.parametrize("name,build", BUILDERS, ids=IDS)
def test_spmm_column_parity(name, build):
    A = random_system()
    fmt = build(A)
    rng = np.random.default_rng(7)
    X = rng.standard_normal((A.shape[1], 5))
    Y = fmt.spmm(X)
    assert Y.shape == (A.shape[0], 5)
    for j in range(X.shape[1]):
        np.testing.assert_allclose(Y[:, j], fmt.spmv(X[:, j]),
                                   rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("name,build", BUILDERS, ids=IDS)
def test_spmm_matches_scipy(name, build):
    A = random_system(n=64, density=0.1, seed=11)
    X = np.random.default_rng(1).standard_normal((64, 3))
    expected = A @ X
    got = build(A).spmm(X)
    scale = np.abs(expected).max() + 1.0
    assert np.abs(got - expected).max() < 1e-11 * scale


@pytest.mark.parametrize("name,build", BUILDERS, ids=IDS)
def test_spmm_ragged_rows(name, build):
    # Highly variable row lengths: one dense row, many near-empty ones —
    # the case that stresses padding-skip logic in the ELL family.
    rng = np.random.default_rng(5)
    n = 70
    dense = np.zeros((n, n))
    dense[0, :] = rng.standard_normal(n)
    dense[np.arange(n), np.arange(n)] = rng.random(n) + 0.5
    dense[np.arange(1, n), np.arange(n - 1)] = rng.standard_normal(n - 1)
    A = as_csr(dense)
    fmt = build(A)
    X = rng.standard_normal((n, 4))
    Y = fmt.spmm(X)
    for j in range(4):
        np.testing.assert_allclose(Y[:, j], fmt.spmv(X[:, j]),
                                   rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("name,build", BUILDERS, ids=IDS)
def test_spmm_single_column_equals_spmv(name, build):
    A = random_system(n=33, seed=9)
    fmt = build(A)
    x = np.random.default_rng(2).standard_normal(33)
    np.testing.assert_allclose(fmt.spmm(x[:, None])[:, 0], fmt.spmv(x),
                               rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("name,build", BUILDERS, ids=IDS)
def test_spmm_zero_columns(name, build):
    A = random_system(n=40, seed=4)
    Y = build(A).spmm(np.zeros((40, 0)))
    assert Y.shape == (40, 0)


@pytest.mark.parametrize("name,build", BUILDERS, ids=IDS)
def test_spmm_empty_matrix(name, build):
    if name == "dia":
        fmt = DIAMatrix(np.zeros(0, dtype=np.int64),
                        np.zeros((0, 8)), (8, 8))
    else:
        fmt = build(as_csr(sp.csr_matrix((8, 8))))
    X = np.ones((8, 3))
    np.testing.assert_array_equal(fmt.spmm(X), np.zeros((8, 3)))


@pytest.mark.parametrize("name,build", BUILDERS, ids=IDS)
def test_spmm_rejects_bad_shapes(name, build):
    fmt = build(random_system(n=20, seed=8))
    with pytest.raises(ValidationError):
        fmt.spmm(np.ones(20))                 # 1-D
    with pytest.raises(ValidationError):
        fmt.spmm(np.ones((19, 2)))            # wrong row count


def test_generic_fallback_column_loop():
    """A format without a spmm override falls back to per-column spmv."""

    class MiniFormat(SparseFormat):
        format_name = "mini"

        def __init__(self, dense):
            self._csr = as_csr(dense)
            self.shape = self._csr.shape

        def _reference_spmv(self, x):
            return self._csr @ x

        def to_scipy(self):
            return self._csr

        def footprint(self):
            return 0

    dense = np.array([[2.0, 1.0], [0.0, 3.0]])
    fmt = MiniFormat(dense)
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(fmt.spmm(X), dense, atol=1e-15)


def test_matmat_matches_spmm():
    A = random_system(n=50, seed=12)
    fmt = CSRMatrix(A)
    X = np.random.default_rng(3).standard_normal((50, 6))
    np.testing.assert_allclose(fmt.matmat(X), fmt.spmm(X),
                               rtol=0.0, atol=1e-12)
