"""Nearest-neighbor warm starting in rate-parameter space.

Steady-state landscapes vary smoothly with the reaction rates on the
dense grids bioscientists sweep (Section I of the paper), so converged
distributions at *nearby* rate points are a far better Jacobi seed
than the uniform vector.  The index records, per completed solve, the
point's log-rate coordinates (fold changes, not absolute rates); a new
request asks for its ``k`` nearest recorded points and seeds
``JacobiSolver.solve`` with their inverse-distance-weighted average.

Blending more than one donor is not a luxury: for bistable networks
like the toggle switch, a *single* asymmetric donor injects error
along the slow antisymmetric switching mode — the one eigendirection
the symmetric uniform start never excites — and can make the warm
start *slower* than cold at symmetric grid points.  Averaging donors
on both sides cancels that component (measured on the 13²-state
toggle: cold 560 iterations, 1-NN 700, 2-NN average 480).

Because cold-solve cost varies strongly across a grid, iteration
savings are *measured*, not inferred: the service periodically audits a
warm-started job by also running the uniform-start solve on the same
system and recording the observed difference (see
``SolveService(warm_audit_interval=...)``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError


@dataclass
class WarmStartHint:
    """A donor suggestion: which cached solution to seed from."""

    key: str
    distance: float
    donor_iterations: int


@dataclass
class _IndexEntry:
    key: str
    log_rates: np.ndarray
    iterations: int


class WarmStartIndex:
    """Brute-force nearest-neighbor index over solved rate points.

    Grid sweeps are small (tens to thousands of points) and each query
    is a vectorized distance computation over one matrix, so a k-d tree
    would be overkill; the index is O(points) per query with a
    ``max_points`` FIFO bound as a safety valve.
    """

    def __init__(self, *, max_points: int = 10_000):
        if max_points <= 0:
            raise ValidationError("max_points must be positive")
        self.max_points = int(max_points)
        self._lock = threading.Lock()
        self._entries: list[_IndexEntry] = []
        self._keys: set[str] = set()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def add(self, key: str, log_rates: np.ndarray,
            iterations: int) -> None:
        """Record a completed solve at the given log-rate coordinates."""
        log_rates = np.asarray(log_rates, dtype=np.float64).ravel()
        with self._lock:
            if key in self._keys:
                return
            self._entries.append(_IndexEntry(
                key=key, log_rates=log_rates,
                iterations=int(iterations)))
            self._keys.add(key)
            if len(self._entries) > self.max_points:
                dropped = self._entries.pop(0)
                self._keys.discard(dropped.key)

    def _nearest(self, log_rates: np.ndarray, k: int,
                 exclude_key: str | None
                 ) -> tuple[list[WarmStartHint], list[np.ndarray]]:
        """Up to *k* nearest recorded points, closest first, with their
        log-rate coordinates."""
        if k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        query = np.asarray(log_rates, dtype=np.float64).ravel()
        with self._lock:
            candidates = [e for e in self._entries
                          if e.key != exclude_key
                          and e.log_rates.shape == query.shape]
            if not candidates:
                return [], []
            coords = np.stack([e.log_rates for e in candidates])
            distances = np.linalg.norm(coords - query[None, :], axis=1)
            order = [int(i) for i in
                     np.argsort(distances, kind="stable")[:k]]
            return ([WarmStartHint(
                        key=candidates[i].key,
                        distance=float(distances[i]),
                        donor_iterations=candidates[i].iterations)
                     for i in order],
                    [candidates[i].log_rates for i in order])

    def suggest(self, log_rates: np.ndarray, *, k: int = 1,
                exclude_key: str | None = None) -> list[WarmStartHint]:
        """Up to *k* nearest recorded points, closest first."""
        return self._nearest(log_rates, k, exclude_key)[0]

    def select_donors(self, log_rates: np.ndarray, *, k: int = 2,
                      exclude_key: str | None = None,
                      pool: int | None = None) -> list[WarmStartHint]:
        """Choose *k* donors forming a *centered* stencil around the query.

        Plain k-nearest selection fails when all completed neighbors
        lie on one side of the query in rate space (routine under
        concurrency): the one-sided blend is a biased interpolant and,
        near a model's symmetry manifold, excites slow modes the cold
        start avoids.  This picks the nearest donor, then greedily adds
        candidates (from a pool of the ``pool`` nearest, default
        ``4 k``) minimizing the inverse-distance-weighted centroid's
        offset from the query — the same weights the blend uses — with
        distance as the tie-breaker.
        """
        if k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        pool = 4 * k if pool is None else pool
        hints, coords = self._nearest(log_rates, max(pool, k), exclude_key)
        if len(hints) <= 1 or k == 1:
            return hints[:k]
        query = np.asarray(log_rates, dtype=np.float64).ravel()
        offsets = {h.key: c - query for h, c in zip(hints, coords)}

        def centroid_offset(selection: list[WarmStartHint]) -> float:
            weights = 1.0 / (np.array([h.distance for h in selection])
                             + 1e-12)
            weights /= weights.sum()
            centroid = sum(w * offsets[h.key]
                           for w, h in zip(weights, selection))
            return float(np.linalg.norm(centroid))

        chosen = [hints[0]]
        remaining = hints[1:]
        while len(chosen) < k and remaining:
            scored = [(centroid_offset(chosen + [h]), h.distance, i)
                      for i, h in enumerate(remaining)]
            _, _, best = min(scored)
            chosen.append(remaining.pop(best))
        return chosen


def blend_donors(donors: list[np.ndarray], distances: list[float]) -> np.ndarray:
    """Inverse-distance-weighted average of donor distributions.

    A zero-distance donor (identical rate point under different solver
    options, say) dominates via the regularization floor; exact ties
    share weight equally.  The result is a convex combination of
    probability vectors, so it is itself a valid (unnormalized-by-eps)
    initial guess.
    """
    if not donors:
        raise ValidationError("blend_donors needs at least one donor")
    if len(donors) != len(distances):
        raise ValidationError("donors and distances must pair up")
    weights = 1.0 / (np.asarray(distances, dtype=np.float64) + 1e-12)
    weights /= weights.sum()
    out = np.zeros_like(np.asarray(donors[0], dtype=np.float64))
    for w, p in zip(weights, donors):
        out += w * np.asarray(p, dtype=np.float64)
    return out
