"""Parity for the ``renormalize_columns`` op.

Every backend must renormalize each column of an ``(n, m)`` block
bitwise as :func:`~repro.solvers.normalization.renormalize` does to a
contiguous copy of it, and leave a column it rejects untouched.  The
native pass reproduces NumPy's pairwise summation, whose order changes
at 8 and 128 rows and splits longer columns in two, so the lengths
below sit on both sides of each change; the widths cover whole SIMD
registers and every remainder.  The C source's separate SIMD builds
run the same cases in ``test_stacked_kernels.py``.
"""

import numpy as np
import pytest

from repro import backends
from repro.errors import ValidationError
from repro.solvers.normalization import renormalize

LENGTHS = list(range(1, 10)) + [127, 128, 129, 2304, 15409]
WIDTHS = list(range(1, 17)) + [64]


@pytest.fixture(params=backends.available_backends())
def backend(request):
    return backends.get_backend(request.param)


def expected_columns(X):
    """``renormalize`` on each column's contiguous copy; a rejected
    column stays as it was."""
    out = X.copy()
    ok = np.ones(X.shape[1], dtype=bool)
    for c in range(X.shape[1]):
        try:
            out[:, c] = renormalize(np.ascontiguousarray(X[:, c]))
        except ValidationError:
            ok[c] = False
    return out, ok


def iterate_block(n, m, seed):
    """Probability-like columns spanning several magnitudes, with the
    small negative noise a Jacobi sweep leaves behind."""
    rng = np.random.default_rng(seed)
    X = rng.random((n, m)) * 10.0 ** rng.integers(-12, 1, (n, m))
    X[rng.random((n, m)) < 0.05] *= -1e-3
    return X


def special_block(n):
    """One column per edge case: a -0.0 entry, a NaN, a +inf, a -inf,
    all zeros, all negative, and a plain column between each."""
    rng = np.random.default_rng(n)
    X = rng.random((n, 12))
    X[n // 2, 1] = -0.0
    X[n - 1, 3] = np.nan
    X[0, 5] = np.inf
    X[n // 3, 7] = -np.inf
    X[:, 9] = 0.0
    X[:, 11] = -rng.random(n)
    return X


def assert_renormalizes_like_reference(be, X):
    want, want_ok = expected_columns(X)
    got = X.copy()
    ok = be.renormalize_columns(got)
    assert ok.dtype == np.bool_
    assert np.array_equal(ok, want_ok)
    # Bytes, not values: a -0.0 for +0.0 or a changed NaN is a failure.
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", LENGTHS)
def test_every_width_matches_renormalize(backend, n):
    for m in WIDTHS:
        assert_renormalizes_like_reference(backend,
                                           iterate_block(n, m, 1000 * n + m))


@pytest.mark.parametrize("n", [2, 7, 8, 9, 129, 2304])
def test_rejected_columns_are_left_and_flagged(backend, n):
    X = special_block(n)
    assert_renormalizes_like_reference(backend, X)
    ok = backend.renormalize_columns(X.copy())
    assert not ok[[3, 5, 7, 9, 11]].any()
    assert ok[[0, 2, 4, 6, 8, 10]].all()
    # The -0.0 column is renormalized, its -0.0 clipped to +0.0.
    assert ok[1]


def test_a_lone_nonfinite_column_in_a_wide_block(backend):
    """The other columns of the same row-major walk are unaffected."""
    X = iterate_block(2304, 8, 5)
    X[100, 6] = np.nan
    assert_renormalizes_like_reference(backend, X)


def test_native_refuses_blocks_it_cannot_write():
    if "native" not in backends.available_backends():
        pytest.skip("native kernels do not build here")
    be = backends.get_backend("native")
    X = iterate_block(50, 4, 9)
    for bad in (np.asfortranarray(X), X.astype(np.float32), X[:, 0]):
        with pytest.raises(ValueError, match="renormalize_columns"):
            be.renormalize_columns(bad)
    frozen = X.copy()
    frozen.flags.writeable = False
    with pytest.raises(ValueError, match="renormalize_columns"):
        be.renormalize_columns(frozen)
