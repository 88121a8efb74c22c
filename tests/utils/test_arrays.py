"""Unit + property tests for repro.utils.arrays."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ValidationError
from repro.utils.arrays import (
    ceil_div,
    inverse_permutation,
    round_up,
)


class TestCeilDiv:
    @pytest.mark.parametrize("a,b,expected", [
        (0, 5, 0), (1, 5, 1), (5, 5, 1), (6, 5, 2), (31, 32, 1), (33, 32, 2),
    ])
    def test_values(self, a, b, expected):
        assert ceil_div(a, b) == expected

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            ceil_div(1, 0)
        with pytest.raises(ValidationError):
            ceil_div(-1, 2)

    @given(st.integers(0, 10**6), st.integers(1, 10**4))
    def test_matches_float_ceil(self, a, b):
        assert ceil_div(a, b) == -(-a // b)
        assert ceil_div(a, b) * b >= a
        assert (ceil_div(a, b) - 1) * b < a or a == 0


class TestRoundUp:
    @given(st.integers(0, 10**6), st.integers(1, 512))
    def test_is_aligned_and_minimal(self, a, m):
        r = round_up(a, m)
        assert r % m == 0
        assert r >= a
        assert r - a < m


class TestInversePermutation:
    @given(st.integers(0, 200))
    def test_roundtrip(self, n):
        rng = np.random.default_rng(n)
        perm = rng.permutation(n)
        inv = inverse_permutation(perm)
        assert (inv[perm] == np.arange(n)).all()
        assert (perm[inv] == np.arange(n)).all()

    def test_rejects_non_permutation(self):
        with pytest.raises(ValidationError):
            inverse_permutation(np.array([0, 0, 2]))
