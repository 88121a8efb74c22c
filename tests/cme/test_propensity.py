"""Unit + property tests for the propensity machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cme.propensity import (
    PropensityEvaluator,
    binomial_table,
    hill_repression,
)
from repro.errors import ValidationError


class TestBinomialTable:
    @given(st.integers(0, 60), st.integers(0, 5))
    def test_matches_math_comb(self, n, c):
        table = binomial_table(60, 5)
        assert table[n, c] == math.comb(n, c)

    def test_overflow_guard(self):
        with pytest.raises(ValidationError, match="exact float64"):
            binomial_table(100000, 20)


class TestMassAction:
    def evaluator(self):
        # R0: 2A -> ..., R1: A + B -> ..., R2: source.
        reactants = np.array([[2, 0], [1, 1], [0, 0]])
        return PropensityEvaluator(reactants, [0.5, 2.0, 3.0], [20, 20])

    def test_combinatorial_form(self):
        ev = self.evaluator()
        states = np.array([[4, 3]])
        assert ev.propensity(states, 0)[0] == 0.5 * math.comb(4, 2)
        assert ev.propensity(states, 1)[0] == 2.0 * 4 * 3
        assert ev.propensity(states, 2)[0] == 3.0

    def test_zero_when_insufficient(self):
        ev = self.evaluator()
        states = np.array([[1, 0]])
        assert ev.propensity(states, 0)[0] == 0.0
        assert ev.propensity(states, 1)[0] == 0.0

    def test_all_propensities_shape(self):
        ev = self.evaluator()
        states = np.array([[1, 1], [2, 2], [0, 0]])
        out = ev.all_propensities(states)
        assert out.shape == (3, 3)

    def test_single_matches_batch(self):
        ev = self.evaluator()
        batch = ev.propensity(np.array([[5, 7]]), 1)[0]
        assert ev.single([5, 7], 1) == batch

    def test_shape_validation(self):
        ev = self.evaluator()
        with pytest.raises(ValidationError):
            ev.propensity(np.zeros((3, 3), dtype=int), 0)


class TestCustomPropensity:
    def test_custom_fn_used(self):
        fn = lambda states, idx: states[:, idx["B"]].astype(float) + 1.0
        ev = PropensityEvaluator(np.zeros((1, 2), dtype=int), [1.0], [9, 9],
                                 custom_fns=[fn],
                                 species_index={"A": 0, "B": 1})
        out = ev.propensity(np.array([[0, 4], [0, 0]]), 0)
        assert out.tolist() == [5.0, 1.0]

    def test_negative_custom_rejected(self):
        fn = lambda states, idx: -np.ones(states.shape[0])
        ev = PropensityEvaluator(np.zeros((1, 1), dtype=int), [1.0], [5],
                                 custom_fns=[fn], species_index={"A": 0})
        with pytest.raises(ValidationError, match="negative"):
            ev.propensity(np.array([[1]]), 0)

    def test_negative_custom_rejected_beside_a_nan(self):
        """A batch's NaN must not hide its negative rate: a state's
        rate is checked the same way in a batch as on its own."""
        def fn(states, idx):
            return np.array([np.nan, -1.0, 2.0])

        ev = PropensityEvaluator(np.zeros((1, 1), dtype=int), [1.0], [5],
                                 custom_fns=[fn], species_index={"A": 0})
        with pytest.raises(ValidationError, match="negative"):
            ev.propensity(np.array([[1], [2], [3]]), 0)

    def test_bad_shape_rejected(self):
        fn = lambda states, idx: np.ones(3)
        ev = PropensityEvaluator(np.zeros((1, 1), dtype=int), [1.0], [5],
                                 custom_fns=[fn], species_index={"A": 0})
        with pytest.raises(ValidationError, match="shape"):
            ev.propensity(np.array([[1]]), 0)


class TestHillRepression:
    def test_limits(self):
        fn = hill_repression(10.0, "B", K=4.0, hill=2.0)
        idx = {"B": 0}
        free = fn(np.array([[0]]), idx)[0]
        at_k = fn(np.array([[4]]), idx)[0]
        saturated = fn(np.array([[1000]]), idx)[0]
        assert free == 10.0
        assert at_k == pytest.approx(5.0)
        assert saturated < 0.01

    def test_monotone_decreasing(self):
        fn = hill_repression(10.0, "B", K=4.0, hill=2.0)
        vals = fn(np.arange(20)[:, None], {"B": 0})
        assert (np.diff(vals) < 0).all()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            hill_repression(0.0, "B", K=1.0)
        with pytest.raises(ValidationError):
            hill_repression(1.0, "B", K=-1.0)
