"""The native single-system Jacobi sweep over its 8-row sliced layout.

A one-column sweep runs over a second copy of the generator cut into
8-row slices, one SIMD lane per row.  Each lane must add its row's
products in CSR order, so the iterates are compared with the ``numpy``
reference by exact equality, never a tolerance.  The cases cover every
slice fill (``n`` from 1 to 17 and ``n`` = 1..7 mod 8 at larger sizes),
row lengths 0 to 40 plus one row of several hundred entries, column
indices out of order within a row, damping, ``sweeps=k``, both
one-column shapes, and non-finite entries in ``x``.  The same cases run
against each SIMD build of the C source in ``test_stacked_kernels``.
"""

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from repro import backends
from repro.backends import native
from repro.solvers import JacobiSolver
from repro.sparse.base import as_csr

pytestmark = pytest.mark.skipif(
    "native" not in backends.available_backends(),
    reason="native kernels do not build here")

REFERENCE = backends.get_backend("numpy")


def ragged_generator(n, max_len=40, long_row=0, seed=0):
    """An ``(n, n)`` CSR matrix with row lengths drawn from
    ``0..min(max_len, n)``, the middle row empty, and (if *long_row*)
    row 1 holding *long_row* entries.  Column indices are shuffled
    within each row, so they are stored out of order."""
    rng = np.random.default_rng(seed)
    lens = rng.integers(0, min(max_len, n) + 1, size=n)
    lens[n // 2] = 0
    if long_row:
        lens[1] = long_row
    cols = [rng.permutation(n)[:length] for length in lens]
    indptr = np.concatenate(([0], np.cumsum(lens)))
    indices = (np.concatenate(cols) if n else np.zeros(0)).astype(np.int32)
    data = rng.standard_normal(indices.size)
    A = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    assert A.nnz == indptr[-1]          # nothing summed or dropped
    return A


#: ``(id, n, long_row)``: every slice fill from 1 to 8 rows, then two
#: slices; ``n`` = 1..7 mod 8 at a size where rows reach 40 entries;
#: one row longer than the FSP sink row's 433 entries on phage.
SLICED_CASES = ([(f"n{n}", n, 0) for n in range(1, 18)]
                + [(f"n{n}", n, 0) for n in range(97, 104)]
                + [("long-row", 461, 440)])


def sliced_case(n, long_row, seed=5):
    A = ragged_generator(n, long_row=long_row, seed=seed + n)
    rng = np.random.default_rng(seed)
    diag = rng.uniform(0.5, 1.5, size=n)
    x = rng.standard_normal(n)
    return A, diag, x


def assert_sliced_case_matches(be, n, long_row, damping):
    """Every one-column sweep *be* runs on the case equals the
    reference's bit for bit: ``X`` as ``(n,)`` and ``(n, 1)``, one
    sweep and ``sweeps=k``, and with a NaN in ``x[0]`` (the column
    padding slots name) and an inf in ``x[-1]``."""
    A, diag, x = sliced_case(n, long_row)
    poisoned = x.copy()
    poisoned[-1] = np.inf
    poisoned[0] = np.nan
    for X in (x, x[:, None].copy(), poisoned):
        for sweeps in (1, 2, 5):
            got = be.jacobi_sweep(A, diag, X, damping=damping, sweeps=sweeps)
            with np.errstate(invalid="ignore"):     # inf - inf
                ref = REFERENCE.jacobi_sweep(A, diag, X, damping=damping,
                                             sweeps=sweeps)
            assert got.shape == X.shape
            assert np.array_equal(got, ref, equal_nan=X is poisoned), \
                (n, X.shape, sweeps)


@pytest.fixture
def backend():
    return backends.get_backend("native")


@pytest.mark.parametrize("damping", [1.0, 0.9])
@pytest.mark.parametrize("n,long_row", [c[1:] for c in SLICED_CASES],
                         ids=[c[0] for c in SLICED_CASES])
def test_sliced_sweep_equals_reference(backend, n, long_row, damping):
    assert_sliced_case_matches(backend, n, long_row, damping)


@pytest.mark.parametrize("damping", [1.0, 0.9])
@pytest.mark.parametrize("n", [13, 101])
def test_non_finite_entries_reach_only_their_readers(backend, n, damping):
    """A NaN and an inf in ``x`` make exactly the rows that read them
    non-finite: the rows storing their column, and their own rows
    (the update reads ``x_i``).  Rows that have ended mask their lane,
    so padding, which names column 0, never multiplies the NaN there."""
    A, diag, x = sliced_case(n, 0, seed=11)
    bad = [0, n - 3]
    x[bad[0]] = np.nan
    x[bad[1]] = np.inf
    got = backend.jacobi_sweep(A, diag, x, damping=damping)
    with np.errstate(invalid="ignore"):             # inf - inf
        ref = REFERENCE.jacobi_sweep(A, diag, x, damping=damping)
    assert np.array_equal(got, ref, equal_nan=True)
    readers = np.zeros(n, dtype=bool)
    readers[bad] = True
    # A stored zero times inf is NaN too, so count stored entries.
    stored = A.copy()
    stored.data[:] = 1.0
    readers |= np.asarray(stored[:, bad].sum(axis=1)).ravel() > 0
    assert np.array_equal(~np.isfinite(got), readers)
    assert readers.sum() < n            # some rows stay finite


def test_layout_is_built_once_per_matrix(monkeypatch):
    """Repeated solves and solver constructions on one matrix reuse
    its layout."""
    built = []
    build = native._build_sliced

    def counting(A):
        built.append(A)
        return build(A)

    monkeypatch.setattr(native, "_build_sliced", counting)
    A, _, _ = sliced_case(40, 0)
    # Canonical (as_csr keeps its identity) with a nonzero diagonal.
    A = as_csr(A + sp.diags(np.full(40, -10.0)))
    for _ in range(2):
        solver = JacobiSolver(A, tol=1e-300, max_iterations=30,
                              stagnation_tol=None, backend="native")
        solver.solve()
        solver.solve()
    assert len(built) == 1
    assert built[0] is A


def test_layout_dies_with_its_matrix(backend):
    A, diag, x = sliced_case(50, 0)
    backend.jacobi_sweep(A, diag, x)
    layout = native._sliced_arrays(A)
    refs = [weakref.ref(a) for a in layout[:4]]
    del A, layout
    gc.collect()
    assert all(r() is None for r in refs)


def test_sliced_layout_shape():
    """Slices are 8 rows, each as wide as its longest row, with the
    row lengths padded to whole slices."""
    A, _, _ = sliced_case(21, 0)
    slice_ptr, lens, cols, vals = native._sliced_arrays(A)[:4]
    rl = np.diff(A.indptr)
    padded = np.concatenate((rl, np.zeros(3, dtype=rl.dtype)))
    assert np.array_equal(lens, padded)
    widths = padded.reshape(3, 8).max(axis=1)
    assert np.array_equal(np.diff(slice_ptr), 8 * widths)
    assert cols.size == vals.size == slice_ptr[-1]
    # Row 9 is lane 1 of slice 1: its entries sit 8 slots apart.
    start = slice_ptr[1] + 1
    row = slice(A.indptr[9], A.indptr[10])
    assert np.array_equal(cols[start:start + 8 * rl[9]:8], A.indices[row])
    assert np.array_equal(vals[start:start + 8 * rl[9]:8], A.data[row])
