"""Unit tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.utils.validation import (
    check_1d,
    check_2d,
    check_index_array,
    check_probability_vector,
)


class TestCheck1d:
    def test_accepts_list(self):
        out = check_1d([1.0, 2.0], "x")
        assert out.shape == (2,)

    def test_rejects_2d(self):
        with pytest.raises(ValidationError, match="must be 1-D"):
            check_1d(np.zeros((2, 2)), "x")

    def test_length_enforced(self):
        with pytest.raises(ValidationError, match="length 3"):
            check_1d([1.0, 2.0], "x", n=3)

    def test_dtype_conversion(self):
        out = check_1d([1, 2], "x", dtype=np.float64)
        assert out.dtype == np.float64

    def test_no_copy_when_correct(self):
        a = np.zeros(4)
        assert check_1d(a, "x", dtype=np.float64) is a


class TestCheck2d:
    def test_shape_enforced(self):
        with pytest.raises(ValidationError, match="shape"):
            check_2d(np.zeros((2, 3)), "m", shape=(3, 2))

    def test_rejects_1d(self):
        with pytest.raises(ValidationError):
            check_2d(np.zeros(3), "m")


class TestProbabilityVector:
    def test_valid(self):
        p = check_probability_vector([0.25, 0.75])
        assert p.sum() == pytest.approx(1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="negative"):
            check_probability_vector([-0.1, 1.1])

    def test_rejects_wrong_sum(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            check_probability_vector([0.3, 0.3])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError, match="non-empty"):
            check_probability_vector([])


class TestIndexArray:
    def test_range_enforced(self):
        check_index_array(np.array([0, 4, -1]), "idx", upper=5)
        with pytest.raises(ValidationError):
            check_index_array(np.array([5]), "idx", upper=5)
        with pytest.raises(ValidationError):
            check_index_array(np.array([-2]), "idx", upper=5)

    def test_rejects_float(self):
        with pytest.raises(ValidationError, match="integer"):
            check_index_array(np.array([0.5]), "idx", upper=5)
