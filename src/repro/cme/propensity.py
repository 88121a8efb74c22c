"""Vectorized combinatorial mass-action propensity evaluation.

The propensity of reaction ``k`` in microstate ``x`` is
``A_k(x) = r_k · Π_i C(x_i, c_i)`` (Section II-A).  This module evaluates
it for whole batches of states at once — the hot path of rate-matrix
assembly — using an exact integer-combination table (copy numbers are
small, so ``C(x, c)`` fits comfortably in float64 without rounding).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError


def binomial_table(max_n: int, max_c: int) -> np.ndarray:
    """Exact table ``T[n, c] = C(n, c)`` for ``0 <= n <= max_n``, ``c <= max_c``.

    Built by the Pascal recurrence in float64; exact as long as the
    entries stay below 2^53 (true for any realistic copy number /
    stoichiometry combination — validated).
    """
    if max_n < 0 or max_c < 0:
        raise ValidationError("table bounds must be non-negative")
    table = np.zeros((max_n + 1, max_c + 1), dtype=np.float64)
    table[:, 0] = 1.0
    for n in range(1, max_n + 1):
        upper = min(n, max_c)
        table[n, 1: upper + 1] = (table[n - 1, 1: upper + 1]
                                  + table[n - 1, 0: upper])
    if table.max() >= 2.0 ** 53:
        raise ValidationError(
            "binomial table exceeds exact float64 integer range; "
            "reduce copy-number bounds or stoichiometries")
    return table


def hill_repression(rate: float, repressor: str, K: float,
                    hill: float = 2.0):
    """A Hill-repressed synthesis propensity ``rate / (1 + (x_r/K)^h)``.

    The standard phenomenological form of transcriptional repression
    (Gardner et al.'s genetic toggle switch): synthesis proceeds at
    *rate* when the repressor is absent and falls off cooperatively
    (Hill coefficient *hill*) around the threshold *K*.  Strictly
    positive, so pass ``strictly_positive=True`` to the reaction.
    """
    if rate <= 0 or K <= 0 or hill <= 0:
        raise ValidationError("hill_repression needs positive rate, K, hill")

    def propensity(states: np.ndarray, species_index: dict) -> np.ndarray:
        x = states[:, species_index[repressor]].astype(np.float64)
        return rate / (1.0 + (x / K) ** hill)

    propensity.__name__ = f"hill_repression[{repressor}]"
    return propensity


class PropensityEvaluator:
    """Batch evaluator of all reaction propensities over state arrays.

    Parameters
    ----------
    reactant_counts:
        ``(R, m)`` integer array: ``c_{k,i}`` copies of species ``i``
        consumed by reaction ``k``.
    rates:
        ``(R,)`` intrinsic rate constants.
    max_counts:
        ``(m,)`` per-species buffer bounds (sizing the binomial table).
    custom_fns:
        Optional length-``R`` list; a non-``None`` entry replaces the
        mass-action expression of that reaction with
        ``fn(states, species_index)``.
    species_index:
        ``name -> column`` map handed to custom propensities.
    """

    def __init__(self, reactant_counts, rates, max_counts,
                 custom_fns=None, species_index=None):
        self.reactant_counts = np.asarray(reactant_counts, dtype=np.int64)
        if self.reactant_counts.ndim != 2:
            raise ValidationError("reactant_counts must be 2-D (R, m)")
        self.rates = np.asarray(rates, dtype=np.float64)
        if self.rates.shape != (self.reactant_counts.shape[0],):
            raise ValidationError("rates length must match reaction count")
        if self.rates.size and self.rates.min() <= 0:
            raise ValidationError("rates must be positive")
        max_counts = np.asarray(max_counts, dtype=np.int64)
        if max_counts.shape != (self.reactant_counts.shape[1],):
            raise ValidationError("max_counts length must match species count")
        max_c = int(self.reactant_counts.max()) if self.reactant_counts.size else 0
        max_n = int(max_counts.max()) if max_counts.size else 0
        self._table = binomial_table(max_n, max_c)
        # Cache, per reaction, the indices of species actually consumed —
        # the product loop then touches only those (2-3 species typically).
        self._involved = [np.flatnonzero(row) for row in self.reactant_counts]
        if custom_fns is None:
            custom_fns = [None] * self.n_reactions
        if len(custom_fns) != self.n_reactions:
            raise ValidationError("custom_fns length must match reactions")
        self.custom_fns = list(custom_fns)
        self.species_index = dict(species_index or {})

    @property
    def n_reactions(self) -> int:
        return self.reactant_counts.shape[0]

    @property
    def n_species(self) -> int:
        return self.reactant_counts.shape[1]

    def propensity(self, states: np.ndarray, k: int) -> np.ndarray:
        """Propensities ``A_k`` of reaction *k* for every row of *states*.

        ``states`` is an ``(n, m)`` integer array of microstates.
        """
        states = np.asarray(states)
        if states.ndim != 2 or states.shape[1] != self.n_species:
            raise ValidationError(
                f"states must have shape (n, {self.n_species})")
        fn = self.custom_fns[k]
        if fn is not None:
            a = np.asarray(fn(states, self.species_index), dtype=np.float64)
            if a.shape != (states.shape[0],):
                raise ValidationError(
                    f"custom propensity of reaction {k} returned shape "
                    f"{a.shape}, expected ({states.shape[0]},)")
            if np.any(a < 0):  # a.min() < 0 misses one beside a NaN
                raise ValidationError(
                    f"custom propensity of reaction {k} returned a "
                    f"negative rate")
            return a
        a = np.full(states.shape[0], self.rates[k], dtype=np.float64)
        for i in self._involved[k]:
            c = int(self.reactant_counts[k, i])
            a *= self._table[states[:, i], c]
        return a

    def all_propensities(self, states: np.ndarray) -> np.ndarray:
        """``(n, R)`` array of every reaction's propensity in every state."""
        states = np.asarray(states)
        out = np.empty((states.shape[0], self.n_reactions), dtype=np.float64)
        for k in range(self.n_reactions):
            out[:, k] = self.propensity(states, k)
        return out

    def single(self, state, k: int) -> float:
        """Propensity of reaction *k* in a single microstate."""
        return float(self.propensity(np.asarray(state)[None, :], k)[0])
