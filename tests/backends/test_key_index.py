"""The ``key_index`` op: one answer on every backend.

State spaces and the projection assembler map mixed-radix state keys to
rows through ``key_index``.  The ``numpy`` reference sorts the keys and
answers with ``searchsorted``; ``native`` keeps an open-addressing hash
table in C.  The answers are integers, so the two must agree exactly:
on random key sets, the empty set, absent and negative probes (the
assembler probes with ``-1`` for "no edge"), probe arrays of any shape,
and key sets grown in many small batches, which forces the native
table through several doublings.
"""

import numpy as np
import pytest

from repro import backends
from repro.backends import native
from repro.backends.reference import SortedKeyIndex

pytestmark = pytest.mark.skipif(
    "native" not in backends.available_backends(),
    reason="native kernels do not build here")

BACKENDS = ("numpy", "native")


def distinct_keys(seed: int, n: int, span: int = 1 << 40) -> np.ndarray:
    rng = np.random.default_rng(seed)
    keys = np.unique(rng.integers(0, span, size=2 * n + 8))[:n]
    return rng.permutation(keys)


def probes_for(keys: np.ndarray, seed: int) -> np.ndarray:
    """Every key, as many random (mostly absent) keys, negatives and
    ``-1``, shuffled."""
    rng = np.random.default_rng(seed)
    hi = int(keys.max()) + 2 if keys.size else 100
    extra = rng.integers(0, hi, size=keys.size + 16)
    negatives = np.array([-1, -1, -2, -(1 << 40), np.iinfo(np.int64).min])
    return rng.permutation(np.concatenate([keys, extra, negatives]))


def indices(keys) -> dict:
    return {name: backends.get_backend(name).key_index(keys)
            for name in BACKENDS}


def expected_positions(keys: np.ndarray, probes: np.ndarray) -> np.ndarray:
    where = {int(k): i for i, k in enumerate(keys)}
    return np.array([where.get(int(p), -1) for p in probes.ravel()],
                    dtype=np.int64).reshape(probes.shape)


@pytest.mark.parametrize("seed,n", [(0, 1), (1, 7), (2, 100), (3, 5000)])
def test_random_sets_agree_exactly(seed, n):
    keys = distinct_keys(seed, n)
    probes = probes_for(keys, seed + 100)
    want = expected_positions(keys, probes)
    for name, index in indices(keys).items():
        got = index.lookup(probes)
        assert got.dtype == np.int64, name
        assert np.array_equal(got, want), name
        assert len(index) == n, name


def test_small_dense_keys():
    keys = np.arange(40, dtype=np.int64)[::-1].copy()
    probes = np.arange(-3, 45, dtype=np.int64)
    want = expected_positions(keys, probes)
    for name, index in indices(keys).items():
        assert np.array_equal(index.lookup(probes), want), name


def test_empty_set_finds_nothing():
    probes = np.array([0, 7, 3, -1], dtype=np.int64)
    for name, index in indices(np.empty(0, dtype=np.int64)).items():
        got = index.lookup(probes)
        assert got.dtype == np.int64 and got.tolist() == [-1] * 4, name
        assert len(index) == 0, name
        assert index.lookup(np.empty(0, np.int64)).shape == (0,), name


def test_probe_shape_is_kept():
    keys = distinct_keys(5, 60)
    probes = probes_for(keys, 6)[:120].reshape(8, 15)
    want = expected_positions(keys, probes)
    for name, index in indices(keys).items():
        got = index.lookup(probes)
        assert got.shape == (8, 15), name
        assert np.array_equal(got, want), name
        # A transposed (non-contiguous) probe array answers the same.
        assert np.array_equal(index.lookup(probes.T), want.T), name


def test_minus_one_probes_are_absent_even_beside_key_zero():
    keys = np.array([0, 5, 9], dtype=np.int64)
    probes = np.array([[-1, 0, -1], [9, -1, 5]], dtype=np.int64)
    for name, index in indices(keys).items():
        assert index.lookup(probes).tolist() == [[-1, 0, -1], [2, -1, 1]], \
            name


@pytest.mark.parametrize("batch", [1, 3, 64])
def test_growth_in_batches_matches_one_build(batch):
    """Extending from empty in small batches doubles the native table
    many times; positions stay insertion order on both backends."""
    keys = distinct_keys(11, 3000)
    probes = probes_for(keys, 12)
    want = expected_positions(keys, probes)
    for name in BACKENDS:
        index = backends.get_backend(name).key_index(
            np.empty(0, dtype=np.int64))
        for lo in range(0, keys.size, batch):
            index.extend(keys[lo:lo + batch])
        assert len(index) == keys.size, name
        assert np.array_equal(index.lookup(probes), want), name
    table = backends.get_backend("native").key_index(keys)
    assert table._table.size >= 2 * keys.size


@pytest.mark.parametrize("dup_at", ["present", "in-batch"])
def test_duplicate_raises_and_leaves_index_unchanged(dup_at):
    keys = distinct_keys(21, 500)
    base, more = keys[:400], keys[400:].copy()
    if dup_at == "present":
        more[50] = base[7]
    else:
        more[60] = more[3]
    probes = probes_for(keys, 22)
    want = expected_positions(base, probes)
    for name in BACKENDS:
        index = backends.get_backend(name).key_index(base)
        with pytest.raises(ValueError, match="duplicate"):
            index.extend(more)
        assert len(index) == base.size, name
        assert np.array_equal(index.lookup(probes), want), name
        # The index still grows normally afterwards.
        index.extend(keys[400:])
        assert np.array_equal(index.lookup(probes),
                              expected_positions(keys, probes)), name


def test_negative_keys_are_rejected():
    for name in BACKENDS:
        with pytest.raises(ValueError, match="non-negative"):
            backends.get_backend(name).key_index(np.array([3, -1, 4]))


def test_both_backends_declare_the_op():
    for name in BACKENDS:
        assert backends.get_backend(name).supports("", "key_index")
    assert isinstance(backends.get_backend("numpy").key_index([1, 2]),
                      SortedKeyIndex)
    assert isinstance(backends.get_backend("native").key_index([1, 2]),
                      native.HashKeyIndex)
