"""The ``jacobi_sweep_block`` extension op behind the sharded solver.

The contract that makes barrier-mode sharding bitwise-serial: for a
rectangular CSR row slice ``A[lo:hi, :]`` swept with the whole matrix's
peeled band, the block sweep must equal the corresponding *slice* of
the full-matrix sweep, bit for bit — both across backends (native vs.
numpy) and against the fused full-matrix ``jacobi_sweep`` the serial
solver runs.  The full sweep is written out row by row here
(:func:`reference_full_sweep`), in the order every backend sums.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro import backends
from repro.backends.reference import band_offsets
from repro.sparse.base import as_csr

BACKENDS = backends.available_backends()


def system(n=83, seed=4):
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density=0.08, random_state=seed, format="csr")
    A = A + sp.diags(rng.random(n) + 1.0)
    A = as_csr(A)
    x = rng.random(n) + 0.25
    return A, A.diagonal(), x


def banded_system(n=83, seed=4):
    """:func:`system` plus a full ``{-1, +1}`` band, which the sweep
    peels."""
    A, _, x = system(n, seed)
    rng = np.random.default_rng(seed + 1)
    A = as_csr(A + sp.diags([rng.random(n - 1) + 0.5,
                             rng.random(n - 1) + 0.5], [-1, 1]))
    assert band_offsets(A) == (-1, 1)
    return A, A.diagonal(), x


def reference_full_sweep(A, diag, x, damping, band=()):
    """One sweep of CSR *A*, row by row in Python floats: each row's
    off-diagonal entries in stored order, except those at a peeled
    offset of *band*, then its -1 entry and then its +1 entry where
    peeled; ``t = -s / d``, then the damping blend.  The diagonal is
    only the divisor."""
    n = A.shape[0]
    out = np.empty(n)
    for i in range(n):
        s, band_terms = 0.0, {}
        for jj in range(A.indptr[i], A.indptr[i + 1]):
            j = int(A.indices[jj])
            term = float(A.data[jj]) * float(x[j])
            if j == i:
                continue
            if j - i in band:
                band_terms[j - i] = term
            else:
                s += term
        for off in (-1, 1):
            if off in band_terms:
                s += band_terms[off]
        t = -s / float(diag[i])
        out[i] = t if damping == 1.0 else \
            (1.0 - damping) * float(x[i]) + damping * t
    return out


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("damping", [1.0, 0.8])
class TestBlockSweep:
    def test_blocks_reassemble_the_full_sweep_bitwise(self, backend,
                                                      damping):
        A, diag, x = system()
        be = backends.get_backend(backend)
        if not hasattr(be, "jacobi_sweep_block"):
            pytest.skip(f"{backend} has no block sweep")
        full = reference_full_sweep(A, diag, x, damping)
        for cuts in ([0, 83], [0, 40, 83], [0, 1, 30, 82, 83]):
            out = np.empty_like(x)
            for lo, hi in zip(cuts, cuts[1:]):
                local = A[lo:hi, :].tocsr()
                out[lo:hi] = be.jacobi_sweep_block(
                    local, diag[lo:hi], x, lo, damping=damping)
            np.testing.assert_array_equal(out, full)

    def test_matches_numpy_reference_bitwise(self, backend, damping):
        A, diag, x = system(seed=11)
        be = backends.get_backend(backend)
        ref = backends.get_backend("numpy")
        if not hasattr(be, "jacobi_sweep_block"):
            pytest.skip(f"{backend} has no block sweep")
        lo, hi = 17, 59
        local = A[lo:hi, :].tocsr()
        mine = be.jacobi_sweep_block(local, diag[lo:hi], x, lo,
                                     damping=damping)
        theirs = ref.jacobi_sweep_block(local, diag[lo:hi], x, lo,
                                        damping=damping)
        np.testing.assert_array_equal(mine, theirs)

    def test_matches_fused_jacobi_sweep(self, backend, damping):
        """The serial solver's fused op and the sharded block op agree
        on the whole matrix taken as one block."""
        A, diag, x = system(seed=23)
        be = backends.get_backend(backend)
        if not hasattr(be, "jacobi_sweep_block"):
            pytest.skip(f"{backend} has no block sweep")
        fused = be.jacobi_sweep(A, diag, x, damping=damping)
        block = be.jacobi_sweep_block(A, diag, x, 0, damping=damping)
        np.testing.assert_array_equal(block, fused)

    @pytest.mark.parametrize("cuts", [[0, 83], [0, 40, 83],
                                      [0, 1, 9, 30, 82, 83]])
    def test_banded_blocks_reassemble_the_peeled_sweep(self, backend,
                                                       damping, cuts):
        """With the whole matrix's band, every cut (a one-row block, a
        block ending at the last row, blocks that split an 8-row slice)
        reassembles the peeled sweep, which is the fused op's."""
        A, diag, x = banded_system(seed=31)
        be = backends.get_backend(backend)
        band = band_offsets(A)
        full = reference_full_sweep(A, diag, x, damping, band)
        np.testing.assert_array_equal(
            be.jacobi_sweep(A, diag, x, damping=damping), full)
        out = np.empty_like(x)
        for lo, hi in zip(cuts, cuts[1:]):
            out[lo:hi] = be.jacobi_sweep_block(
                A[lo:hi, :].tocsr(), diag[lo:hi], x, lo, damping=damping,
                band=band)
        np.testing.assert_array_equal(out, full)

    def test_a_block_peels_only_the_band_it_is_given(self, backend,
                                                     damping):
        """The band is the caller's, not the block's own: a banded
        block swept without it sums its band entries in stored order."""
        A, diag, x = banded_system(seed=37)
        be = backends.get_backend(backend)
        local = A[20:60, :].tocsr()
        for band in ((), (-1,), (1,), (-1, 1)):
            np.testing.assert_array_equal(
                be.jacobi_sweep_block(local, diag[20:60], x, 20,
                                      damping=damping, band=band),
                reference_full_sweep(A, diag, x, damping, band)[20:60])


@pytest.mark.parametrize("backend", BACKENDS)
def test_duplicated_band_entry_in_a_block_raises(backend):
    """A peeled band holds one entry per row, so a block storing one
    twice is refused."""
    A, diag, x = banded_system(seed=41)
    local = A[10:30, :].tocsr()
    # A second entry at column 14 in local row 5 (global row 15), whose
    # -1 entry is already stored.
    rows = np.append(np.repeat(np.arange(20), np.diff(local.indptr)), 5)
    order = np.argsort(rows, kind="stable")
    data = np.append(local.data, 1.0)[order]
    indices = np.append(local.indices, 14)[order]
    indptr = local.indptr.copy()
    indptr[6:] += 1
    dup = sp.csr_matrix((data, indices, indptr), shape=local.shape)
    assert dup.nnz == local.nnz + 1
    be = backends.get_backend(backend)
    with pytest.raises(ValueError, match="twice"):
        be.jacobi_sweep_block(dup, diag[10:30], x, 10, band=(-1, 1))
