"""The native single-system Jacobi sweep over its sliced ELL+DIA layout.

A one-column sweep runs over a second copy of the generator cut into
8-row slices, one SIMD lane per row, without the diagonal (only the
divisor) and without offset -1 or +1 where Section V's 8/12 rule peels
it into a dense band.  Each lane must add its row's slice entries in
stored order, then its peeled -1 entry, then its peeled +1 entry, so
the iterates are compared with the ``numpy`` reference by exact
equality, never a tolerance.  The ragged cases cover every slice fill
(``n`` from 1 to 17 and ``n`` = 1..7 mod 8 at larger sizes), row
lengths 0 to 40 plus one row of several hundred entries, column indices
out of order within a row, damping, ``sweeps=k``, and non-finite
entries in ``x``.  The banded cases add a DFS-like band with gaps, at
exactly 8/12 and one entry either side, rows holding only band entries,
``n`` = 1 and 2 and a long row; the band's presence masks keep a
non-finite ``x`` entry out of rows that do not store its column.  The
same cases run against each SIMD build of the C source in
``test_stacked_kernels``.
"""

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from repro import backends
from repro.backends import native
from repro.backends.reference import band_offsets
from repro.cme.models import (brusselator, phage_lambda, schnakenberg,
                              toggle_switch)
from repro.cme.ratematrix import build_rate_matrix
from repro.cme.statespace import enumerate_state_space
from repro.fsp import AdaptiveFspController
from repro.solvers import JacobiSolver
from repro.sparse.base import as_csr
from tests.backends.test_block_sweep import reference_full_sweep

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
    reference's bit for bit: one sweep and ``sweeps=k``, and with a NaN
    in ``x[0]`` (the column padding slots name) and an inf in
    ``x[-1]``."""
    A, diag, x = sliced_case(n, long_row)
    poisoned = x.copy()
    poisoned[-1] = np.inf
    poisoned[0] = np.nan
    for X in (x, poisoned):
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


def readers_of(A, cols, damping):
    """Rows a sweep of *A* reads ``x[cols]`` in: the rows storing one
    of *cols* off the diagonal (a stored zero times inf is NaN too, so
    stored entries count), and, when the damping blend reads ``x_i``,
    their own rows.  The diagonal is only the divisor."""
    n = A.shape[0]
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    hit = np.isin(A.indices, cols) & (A.indices != rows)
    readers = np.zeros(n, dtype=bool)
    readers[rows[hit]] = True
    if damping != 1.0:
        readers[cols] = True
    return readers


@pytest.mark.parametrize("damping", [1.0, 0.9])
@pytest.mark.parametrize("n", [13, 101])
def test_non_finite_entries_reach_only_their_readers(backend, n, damping):
    """A NaN and an inf in ``x`` make exactly the rows that read them
    non-finite: the rows storing their column, and, when damped, their
    own rows (the undamped update never reads ``x_i``).  Rows that have
    ended mask their lane, so padding, which names column 0, never
    multiplies the NaN there."""
    A, diag, x = sliced_case(n, 0, seed=11)
    bad = [0, n - 3]
    x[bad[0]] = np.nan
    x[bad[1]] = np.inf
    got = backend.jacobi_sweep(A, diag, x, damping=damping)
    with np.errstate(invalid="ignore"):             # inf - inf
        ref = REFERENCE.jacobi_sweep(A, diag, x, damping=damping)
    assert np.array_equal(got, ref, equal_nan=True)
    readers = readers_of(A, bad, damping)
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
    """Slices are 8 rows, each as wide as its longest row's slice
    entries (every stored entry but the diagonal and the peeled band),
    with the lengths padded to whole slices."""
    A, _, _ = sliced_case(21, 0)
    assert_layout_shape(A)


def test_banded_layout_shape():
    """As above, and a peeled offset's values sit in a dense vector,
    0.0 where absent, with one presence bit per row."""
    A, _, _ = banded_case(21, 15, 20)
    assert band_offsets(A) == (-1, 1)
    assert_layout_shape(A)


def assert_layout_shape(A):
    """*A*'s 21 rows are laid out in 3 slices as the C source says."""
    layout = native._sliced_arrays(A)
    assert layout.band == band_offsets(A)
    slice_ptr, lens, cols, vals = layout[:4]
    rows = np.repeat(np.arange(21), np.diff(A.indptr))
    gap = A.indices - rows
    kept = (gap != 0) & ~np.isin(gap, layout.band)
    rl = np.bincount(rows[kept], minlength=21)
    padded = np.concatenate((rl, np.zeros(3, dtype=rl.dtype)))
    assert np.array_equal(lens, padded)
    widths = padded.reshape(3, 8).max(axis=1)
    assert np.array_equal(np.diff(slice_ptr), 8 * widths)
    assert cols.size == vals.size == slice_ptr[-1]
    # Row 9 is lane 1 of slice 1: its entries sit 8 slots apart.
    start = slice_ptr[1] + 1
    row = np.arange(A.indptr[9], A.indptr[10])[kept[A.indptr[9]:
                                                   A.indptr[10]]]
    assert np.array_equal(cols[start:start + 8 * rl[9]:8], A.indices[row])
    assert np.array_equal(vals[start:start + 8 * rl[9]:8], A.data[row])
    bits = np.unpackbits(layout.pres, bitorder="little").reshape(2, -1)
    for k, (off, values) in enumerate(((-1, layout.lo), (1, layout.hi))):
        on = gap == off
        present = np.zeros(24, dtype=bool)
        present[rows[on]] = True
        if off in layout.band:
            assert np.array_equal(bits[k], present)
            expected = np.zeros(24)
            expected[rows[on]] = A.data[on]
            assert np.array_equal(values, expected)
        else:
            assert values is None and not bits[k].any()


# -- banded generators ---------------------------------------------------------


def banded_generator(n, lo_count, hi_count, max_len=12, long_row=0,
                     seed=0):
    """An ``(n, n)`` CSR generator like the DFS-ordered CME matrices:
    a full diagonal, and ``lo_count`` (``hi_count``) of the ``n - 1``
    slots of offset -1 (+1) stored at random rows, so the band has
    gaps.  Every other entry lies at least two columns off the
    diagonal: up to *max_len* of them per row (none in every fifth row,
    which then holds only its band entries), *long_row* in row 1.  Each
    row's entries are shuffled, so band and diagonal entries sit
    anywhere in its stored order."""
    rng = np.random.default_rng(seed)
    lo_rows = set(rng.permutation(np.arange(1, n))[:lo_count].tolist())
    hi_rows = set(rng.permutation(np.arange(n - 1))[:hi_count].tolist())
    indptr, indices = [0], []
    for i in range(n):
        far = np.array([j for j in range(n) if abs(j - i) >= 2], dtype=int)
        k = 0 if i % 5 == 3 else int(rng.integers(0, min(max_len,
                                                           far.size) + 1))
        if long_row and i == 1:
            k = long_row
        cols = [*rng.permutation(far)[:k].tolist(), i]
        cols += [i - 1] if i in lo_rows else []
        cols += [i + 1] if i in hi_rows else []
        indices.extend(rng.permutation(cols).tolist())
        indptr.append(len(indices))
    data = rng.standard_normal(len(indices))
    A = sp.csr_matrix((data, np.array(indices, dtype=np.int32),
                       np.array(indptr)), shape=(n, n))
    assert A.nnz == indptr[-1]
    return A


def banded_case(n, lo_count, hi_count, long_row=0, seed=17):
    A = banded_generator(n, lo_count, hi_count, long_row=long_row,
                         seed=seed + n + lo_count + 7 * hi_count)
    rng = np.random.default_rng(seed)
    diag = rng.uniform(0.5, 1.5, size=n)
    x = rng.standard_normal(n)
    return A, diag, x


#: ``(id, n, lo_count, hi_count, long_row, peeled offsets)``: on n = 97
#: the band has 96 slots, so 64 entries sit at exactly 8/12 (kept in
#: the slices) and 65 just above it (peeled); a DFS-like band with gaps
#: (90%) and a full one; n = 1 and 2; every slice fill to 17 with a
#: full band; a row longer than the FSP sink row's 433 entries.
BANDED_CASES = (
    [("at-8/12", 97, 64, 64, 0, ()),
     ("below-8/12", 97, 63, 63, 0, ()),
     ("above-8/12", 97, 65, 65, 0, (-1, 1)),
     ("lo-above", 97, 65, 64, 0, (-1,)),
     ("hi-above", 97, 63, 65, 0, (1,)),
     ("dfs-gaps", 97, 86, 87, 0, (-1, 1)),
     ("full", 103, 102, 102, 0, (-1, 1)),
     ("n1", 1, 0, 0, 0, ()),
     ("n2-full", 2, 1, 1, 0, (-1, 1)),
     ("n2-lo", 2, 1, 0, 0, (-1,))]
    + [(f"n{n}-full", n, n - 1, n - 1, 0, (-1, 1)) for n in range(3, 18)]
    + [("long-row", 461, 440, 450, 440, (-1, 1))])


def assert_banded_case_matches(be, n, lo_count, hi_count, long_row,
                               damping):
    """As :func:`assert_sliced_case_matches`, on a banded case."""
    A, diag, x = banded_case(n, lo_count, hi_count, long_row)
    poisoned = x.copy()
    poisoned[-1] = np.inf
    poisoned[0] = np.nan
    for X in (x, poisoned):
        for sweeps in (1, 2, 5):
            got = be.jacobi_sweep(A, diag, X, damping=damping, sweeps=sweeps)
            with np.errstate(invalid="ignore"):     # inf - inf
                ref = REFERENCE.jacobi_sweep(A, diag, X, damping=damping,
                                             sweeps=sweeps)
            assert np.array_equal(got, ref, equal_nan=X is poisoned), \
                (n, lo_count, hi_count, sweeps)


@pytest.mark.parametrize("damping", [1.0, 0.9])
@pytest.mark.parametrize("n,lo_count,hi_count,long_row,band",
                         [c[1:] for c in BANDED_CASES],
                         ids=[c[0] for c in BANDED_CASES])
def test_banded_sweep_equals_reference(backend, n, lo_count, hi_count,
                                       long_row, band, damping):
    """Both backends peel what the 8/12 rule picks and sum in the
    sweep's order: native equals the reference, and the reference
    equals the sweep written out row by row."""
    A, diag, x = banded_case(n, lo_count, hi_count, long_row)
    assert band_offsets(A) == band
    assert native._sliced_arrays(A).band == band
    assert np.array_equal(
        REFERENCE.jacobi_sweep(A, diag, x, damping=damping),
        reference_full_sweep(A, diag, x, damping, band))
    assert_banded_case_matches(backend, n, lo_count, hi_count, long_row,
                               damping)


# -- the band's non-finite containment, on both backends ----------------------

BOTH = backends.available_backends()


def full_band_case(n=40, seed=3):
    """A banded case whose band is peeled, with the -1 entries of rows
    9, 21 and 30 and the +1 entry of row 9 left out."""
    A, diag, x = banded_case(n, n - 1, n - 1, seed=seed)
    keep = np.ones(A.nnz, dtype=bool)
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    for i, j in ((9, 8), (21, 20), (30, 29), (9, 10)):
        keep &= ~((rows == i) & (A.indices == j))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[keep], minlength=n), out=indptr[1:])
    A = sp.csr_matrix((A.data[keep], A.indices[keep], indptr), shape=(n, n))
    assert band_offsets(A) == (-1, 1)
    return A, diag, x


@pytest.mark.parametrize("name", BOTH)
@pytest.mark.parametrize("damping", [1.0, 0.9])
@pytest.mark.parametrize("row", [9, 21, 30])
def test_inf_beside_an_absent_band_entry_stays_out(name, damping, row):
    """An inf at ``x[i - 1]`` next to row i, whose -1 entry is
    structurally absent, leaves row i finite: the band term is masked
    where the entry is not stored.  Only the rows storing that column
    (and, damped, its own row) turn non-finite."""
    be = backends.get_backend(name)
    A, diag, x = full_band_case()
    x[row - 1] = np.inf
    got = be.jacobi_sweep(A, diag, x, damping=damping)
    with np.errstate(invalid="ignore"):
        ref = REFERENCE.jacobi_sweep(A, diag, x, damping=damping)
    assert np.array_equal(got, ref, equal_nan=True)
    assert np.isfinite(got[row])
    assert np.array_equal(~np.isfinite(got),
                          readers_of(A, [row - 1], damping))


@pytest.mark.parametrize("name", BOTH)
def test_stored_zero_band_entry_beside_an_inf_is_nan(name):
    """A stored 0.0 band entry is stored: times an inf it is NaN, so
    its row turns NaN as for any stored entry."""
    be = backends.get_backend(name)
    A, diag, x = full_band_case()
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    at = np.flatnonzero((rows == 15) & (A.indices == 14))
    A.data[at] = 0.0                 # explicit zero, still stored
    assert band_offsets(A) == (-1, 1)
    x[14] = np.inf
    with np.errstate(invalid="ignore"):             # 0.0 * inf
        got = be.jacobi_sweep(A, diag, x)
        ref = REFERENCE.jacobi_sweep(A, diag, x)
    assert np.isnan(got[15])
    assert np.array_equal(got, ref, equal_nan=True)
    assert np.array_equal(~np.isfinite(got), readers_of(A, [14], 1.0))


@pytest.mark.parametrize("name", BOTH)
@pytest.mark.parametrize("off", [-1, 1])
def test_duplicated_band_entry_raises(name, off):
    """A peeled band holds one entry per row: a row storing its -1 or
    +1 entry twice is refused, on every backend."""
    be = backends.get_backend(name)
    A, diag, x = banded_case(30, 29, 29)
    lil = A.tolil()
    # Duplicates survive only in hand-built CSR: append one to row 12.
    rows = np.append(np.repeat(np.arange(30), np.diff(A.indptr)), 12)
    order = np.argsort(rows, kind="stable")
    indptr = A.indptr.copy()
    indptr[13:] += 1
    dup = sp.csr_matrix((np.append(A.data, 0.5)[order],
                         np.append(A.indices, 12 + off)[order], indptr),
                        shape=A.shape)
    assert dup.nnz == A.nnz + 1 and lil[12, 12 + off] != 0
    with pytest.raises(ValueError, match="twice"):
        be.jacobi_sweep(dup, diag, x)


# -- one peel rule ---------------------------------------------------------------


def peel_rule_matrices():
    """The four paper models, an fsp-phage projection and its sink
    system, and random matrices with bands around 8/12 (canonical, with
    explicit zeros, and with unsorted rows)."""
    mats = [build_rate_matrix(enumerate_state_space(net)) for net in (
        toggle_switch(max_protein=20), brusselator(max_x=30, max_y=15),
        schnakenberg(max_x=30, max_y=15),
        phage_lambda(max_monomer=6, max_dimer=3))]
    ctl = AdaptiveFspController(phage_lambda(max_monomer=6, max_dimer=3),
                                fsp_tol=1e-3, max_rounds=4)
    projections, systems = [], []
    assemble, inner = ctl.assembler.assemble, ctl._inner_solve

    def spy_assemble(space):
        A, w = assemble(space)
        projections.append(A)
        return A, w

    def spy_inner(A_sys, *args, **kwargs):
        systems.append(A_sys)
        return inner(A_sys, *args, **kwargs)

    ctl.assembler.assemble = spy_assemble
    ctl._inner_solve = spy_inner
    ctl.solve()
    assert projections and systems
    mats += [projections[-1], systems[-1]]
    rng = np.random.default_rng(5)
    for n in (2, 3, 9, 40, 97):
        for density in (0.5, 0.66, 0.67, 0.7, 1.0):
            A = sp.random(n, n, density=0.1, random_state=rng,
                          format="coo")
            rows, cols, vals = [A.row], [A.col], [A.data]
            for off in (-1, 1):
                at = np.flatnonzero(rng.random(n - 1) < density)
                at += max(0, -off)
                rows.append(at)
                cols.append(at + off)
                # A fifth of the band is stored as explicit zeros.
                vals.append(np.where(rng.random(at.size) < 0.2, 0.0,
                                     rng.random(at.size) + 0.1))
            A = sp.coo_matrix((np.concatenate(vals),
                               (np.concatenate(rows), np.concatenate(cols))),
                              shape=(n, n)).tocsr()
            mats += [A, as_csr(A)]
    for n, lo, hi in ((97, 64, 64), (97, 65, 63), (30, 20, 19)):
        mats.append(banded_generator(n, lo, hi, seed=n + lo))
    return mats


def test_native_peel_decision_is_section_v_rule():
    """The native layout's O(nnz) decision, made in C without SciPy,
    equals ``select_band_offsets`` on the stored entries, which is the
    reference's decision."""
    for A in peel_rule_matrices():
        assert native._sliced_arrays(A).band == band_offsets(A), A.shape
