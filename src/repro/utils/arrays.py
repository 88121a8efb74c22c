"""Array helpers shared across the sparse formats and the GPU simulator.

These are the small alignment/padding primitives that the ELL-family
formats are built from: the paper pads the ELL row dimension to a multiple
of the warp size for 128-byte-aligned, coalesced accesses.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division ``ceil(a / b)`` for non-negative ``a``, positive ``b``."""
    if b <= 0:
        raise ValidationError(f"divisor must be positive, got {b}")
    if a < 0:
        raise ValidationError(f"numerator must be non-negative, got {a}")
    return -(-a // b)


def round_up(a: int, multiple: int) -> int:
    """Round *a* up to the next multiple of *multiple*."""
    return ceil_div(a, multiple) * multiple


def inverse_permutation(perm: np.ndarray) -> np.ndarray:
    """Return the inverse of a permutation array.

    ``inv[perm[i]] = i``; applying ``perm`` then indexing with ``inv``
    restores the original order.
    """
    perm = np.asarray(perm)
    n = perm.shape[0]
    if n and (perm.min() != 0 or perm.max() != n - 1 or
              np.unique(perm).size != n):
        raise ValidationError("perm is not a permutation of 0..n-1")
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n, dtype=np.int64)
    return inv
