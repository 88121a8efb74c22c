"""Backend conformance: every registered backend × every format.

Two layers of agreement are enforced for each available backend:

* **correctness** — products match the SciPy ground truth to 1e-12;
* **parity** — results match the ``numpy`` reference backend bitwise
  (or within 1 ulp), the numerical contract of
  :mod:`repro.backends.protocol` that makes backend selection invisible
  to convergence behaviour.

Edge cases: empty rows, all-zero matrices, non-contiguous inputs, and
the solver primitives (``jacobi_sweep``, ``axpy``, ``residual``).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro import backends
from repro.sparse.base import as_csr
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

#: Every backend that can serve on this host, reference included; the
#: suite runs the full matrix against each so a newly-registered
#: backend is conformance-tested with zero test changes.
BACKENDS = backends.available_backends()


def random_system(n=97, density=0.06, seed=3):
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density=density, random_state=seed, format="csr")
    A = A + sp.diags(rng.random(n) + 0.5)
    return as_csr(A)


def ragged_system(n=90, seed=11):
    """Wildly variable row lengths plus guaranteed empty rows."""
    rng = np.random.default_rng(seed)
    rows, cols, vals = [], [], []
    for i in range(n):
        if i % 7 == 3:
            continue                       # empty row
        k = int(rng.integers(1, 30))
        cs = rng.choice(n, size=min(k, n), replace=False)
        for c in cs:
            rows.append(i)
            cols.append(int(c))
            vals.append(float(rng.standard_normal()))
    A = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    A = A + sp.diags(rng.random(n) + 0.5)  # nonzero diagonal for ell+dia
    return as_csr(A)


def assert_bitwise_or_1ulp(actual, expected):
    if np.array_equal(actual, expected):
        return
    a = np.asarray(actual)
    e = np.asarray(expected)
    assert a.shape == e.shape
    same = a == e
    ulp = np.abs(a - e) <= np.spacing(np.maximum(np.abs(a), np.abs(e)))
    bad = ~(same | ulp)
    assert not bad.any(), (
        f"{int(bad.sum())} entries differ by more than 1 ulp "
        f"(max abs diff {np.abs(a - e).max():.3e})")


@pytest.fixture(params=BACKENDS)
def backend(request):
    return backends.get_backend(request.param)


@pytest.mark.parametrize("name,build", BUILDERS, ids=IDS)
def test_spmv_matches_scipy_and_reference(name, build, backend):
    A = random_system()
    fmt = build(A)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(A.shape[1])
    got = fmt.spmv(x, backend=backend)
    np.testing.assert_allclose(got, A @ x, rtol=0.0, atol=1e-12)
    assert_bitwise_or_1ulp(got, fmt.spmv(x, backend="numpy"))


@pytest.mark.parametrize("name,build", BUILDERS, ids=IDS)
def test_spmm_matches_scipy_and_reference(name, build, backend):
    A = random_system()
    fmt = build(A)
    rng = np.random.default_rng(6)
    X = rng.standard_normal((A.shape[1], 4))
    got = fmt.spmm(X, backend=backend)
    np.testing.assert_allclose(got, A @ X, rtol=0.0, atol=1e-12)
    assert_bitwise_or_1ulp(got, fmt.spmm(X, backend="numpy"))


@pytest.mark.parametrize("name,build", BUILDERS, ids=IDS)
def test_empty_rows_and_ragged_lengths(name, build, backend):
    A = ragged_system()
    fmt = build(A)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(A.shape[1])
    X = rng.standard_normal((A.shape[1], 3))
    np.testing.assert_allclose(fmt.spmv(x, backend=backend), A @ x,
                               rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(fmt.spmm(X, backend=backend), A @ X,
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name,build", BUILDERS, ids=IDS)
def test_zero_nnz_matrix(name, build, backend):
    n = 12
    if name in ("ell+dia", "warped+dia"):
        # These require a usable diagonal; "all-zero" here means an
        # off-diagonal-free matrix, the sparsest system they accept.
        A = as_csr(sp.diags(np.ones(n)).tocsr())
        expect_zero = False
    else:
        A = as_csr(sp.csr_matrix((n, n)))
        expect_zero = True
    fmt = build(A)
    x = np.ones(n)
    y = fmt.spmv(x, backend=backend)
    Y = fmt.spmm(np.ones((n, 2)), backend=backend)
    if expect_zero:
        assert not y.any() and not Y.any()
    np.testing.assert_allclose(y, A @ x, rtol=0.0, atol=0.0)
    np.testing.assert_allclose(Y[:, 0], A @ x, rtol=0.0, atol=0.0)


@pytest.mark.parametrize("name,build", BUILDERS, ids=IDS)
def test_non_contiguous_inputs(name, build, backend):
    """Strided vectors and Fortran-order blocks go through unchanged."""
    A = random_system()
    n = A.shape[1]
    rng = np.random.default_rng(9)
    xx = rng.standard_normal(2 * n)
    x_strided = xx[::2]
    assert not x_strided.flags.c_contiguous
    X_fortran = np.asfortranarray(rng.standard_normal((n, 3)))
    assert not X_fortran.flags.c_contiguous
    fmt = build(A)
    assert_bitwise_or_1ulp(
        fmt.spmv(x_strided, backend=backend),
        fmt.spmv(np.ascontiguousarray(x_strided), backend=backend))
    assert_bitwise_or_1ulp(
        fmt.spmm(X_fortran, backend=backend),
        fmt.spmm(np.ascontiguousarray(X_fortran), backend=backend))


# -- solver primitives ------------------------------------------------------


@pytest.mark.parametrize("shape", [(97,), (97, 6)], ids=["vec", "block"])
@pytest.mark.parametrize("damping", [1.0, 0.85])
def test_jacobi_sweep_parity(backend, shape, damping):
    """One column through ``jacobi_sweep``; a block of columns of one
    generator through ``jacobi_sweep_many`` as the stack ``[A] * k``,
    each column as the reference sweeps it alone."""
    A = random_system()
    diag = np.asarray(A.diagonal())
    rng = np.random.default_rng(10)
    X = rng.standard_normal(shape)
    ref_be = backends.get_backend("numpy")
    if X.ndim == 1:
        ref = ref_be.jacobi_sweep(A, diag, X, damping=damping)

        def sweep(out=None):
            return backend.jacobi_sweep(A, diag, X, damping=damping,
                                        out=out)
    else:
        k = X.shape[1]
        ref = np.stack([ref_be.jacobi_sweep(A, diag, X[:, c].copy(),
                                            damping=damping)
                        for c in range(k)], axis=1)
        D = np.ascontiguousarray(np.tile(diag[:, None], (1, k)))

        def sweep(out=None):
            return backend.jacobi_sweep_many([A] * k, D, X,
                                             damping=damping, out=out)
    assert_bitwise_or_1ulp(sweep(), ref)
    # And with a caller-provided output buffer.
    out = np.empty_like(X)
    got2 = sweep(out)
    assert got2 is out
    assert_bitwise_or_1ulp(out, ref)


def test_jacobi_sweep_takes_one_column(backend):
    """A block of columns is a stack (``jacobi_sweep_many``), so
    ``jacobi_sweep`` refuses one, as ``(n, 1)`` or wider."""
    A = random_system()
    diag = np.asarray(A.diagonal())
    for shape in ((97, 1), (97, 6)):
        with pytest.raises(ValueError, match="jacobi_sweep"):
            backend.jacobi_sweep(A, diag, np.ones(shape))


def test_jacobi_sweep_rejects_a_wider_generator(backend):
    """Column 5 of a ``(5, 6)`` generator would index past ``x``."""
    A = sp.csr_matrix(np.ones((5, 6)))
    with pytest.raises(ValueError):
        backend.jacobi_sweep(A, np.ones(5), np.ones(5))


def test_axpy_parity(backend):
    rng = np.random.default_rng(12)
    x = rng.standard_normal(301)
    y = rng.standard_normal(301)
    ref = backends.get_backend("numpy")
    assert_bitwise_or_1ulp(backend.axpy(0.3, x, y), ref.axpy(0.3, x, y))
    assert_bitwise_or_1ulp(backend.axpy(-1.5, x, y, beta=0.25),
                           ref.axpy(-1.5, x, y, beta=0.25))


def test_axpy_rejects_mismatched_operands(backend):
    """A shorter ``y`` must raise, as NumPy's broadcasting does, not
    read past its end."""
    with pytest.raises(ValueError):
        backend.axpy(2.0, np.arange(8.0), np.ones(3))


#: Run in a child process: a kernel that wrote through a misfit ``out``
#: would corrupt the heap of the interpreter running it.
MISFIT_OUT_CHILD = """
import numpy as np
from repro.backends.native import NativeBackend

be = NativeBackend()
x, y = np.arange(4.0), np.ones(4)
for out in (np.empty(4, dtype=np.float32), np.empty(3),
            np.empty(8)[::2]):
    try:
        be.axpy(2.0, x, y, out=out)
    except ValueError:
        print("refused")
"""


@pytest.mark.skipif("native" not in BACKENDS,
                    reason="native kernels do not build here")
def test_native_axpy_refuses_a_misfit_out():
    """A float32, short or strided ``out`` is refused before the
    kernel writes 4 doubles into it."""
    src = Path(backends.__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", MISFIT_OUT_CHILD],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["refused"] * 3


def test_residual_reduces_whole_blocks(backend):
    """A ``(4, 3)`` block is reduced over all 12 entries, not its
    first 4: the maximum sits in the last row."""
    y = np.zeros((4, 3))
    y[3, 2] = -7.0
    assert backend.residual(y, y) == (7.0, 7.0)


def test_residual_parity(backend):
    rng = np.random.default_rng(13)
    y = rng.standard_normal(257)
    x = rng.standard_normal(257)
    assert backend.residual(y, x) == \
        backends.get_backend("numpy").residual(y, x)
    assert backend.residual(np.zeros(0), np.zeros(0)) == (0.0, 0.0)


def test_residual_non_contiguous_column_views(backend):
    """The batched solver checks residuals on (n, k) column views."""
    rng = np.random.default_rng(14)
    M = rng.standard_normal((64, 4))
    col = M[:, 1]
    assert not col.flags.c_contiguous or M.shape[1] == 1
    y_norm, x_norm = backend.residual(col, col)
    assert y_norm == float(np.abs(col).max())
    assert x_norm == y_norm


def test_coo_always_served_by_reference():
    """No JIT backend implements COO: the fallback path must engage."""
    A = random_system(n=31)
    fmt = COOMatrix.from_scipy(A)
    for name in BACKENDS:
        be = backends.get_backend(name)
        if be.is_reference:
            continue
        assert not be.supports("coo", "spmv")
        backends.reset_kernel_stats()
        x = np.ones(31)
        np.testing.assert_allclose(fmt.spmv(x, backend=name), A @ x,
                                   rtol=0.0, atol=1e-12)
        assert backends.kernel_stats()[("numpy", "coo", "spmv")] == 1
