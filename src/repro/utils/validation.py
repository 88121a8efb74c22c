"""Argument-validation helpers.

Every public entry point of the library validates its inputs through these
helpers so error messages are uniform and informative.  All of them raise
:class:`repro.errors.ValidationError` on failure and return the (possibly
converted) value on success, which lets callers write::

    x = check_1d(x, "x", n=self.n)
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError


def check_1d(a, name: str, *, n: int | None = None,
             dtype=None) -> np.ndarray:
    """Validate that *a* is a one-dimensional array.

    Parameters
    ----------
    a:
        Array-like input.
    name:
        Parameter name used in error messages.
    n:
        If given, the required length.
    dtype:
        If given, the array is converted to this dtype (no copy when
        already correct).
    """
    arr = np.asarray(a)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got ndim={arr.ndim}")
    if n is not None and arr.shape[0] != n:
        raise ValidationError(
            f"{name} must have length {n}, got {arr.shape[0]}")
    if dtype is not None:
        arr = np.ascontiguousarray(arr, dtype=dtype)
    return arr


def check_2d(a, name: str, *, shape: tuple[int, int] | None = None,
             dtype=None) -> np.ndarray:
    """Validate that *a* is a two-dimensional array (optionally of *shape*)."""
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if shape is not None and arr.shape != shape:
        raise ValidationError(
            f"{name} must have shape {shape}, got {arr.shape}")
    if dtype is not None:
        arr = np.ascontiguousarray(arr, dtype=dtype)
    return arr


def check_probability_vector(p, name: str = "p", *, atol: float = 1e-8) -> np.ndarray:
    """Validate that *p* is a probability vector (entries >= 0, sums to 1)."""
    arr = check_1d(p, name, dtype=np.float64)
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if np.any(arr < -atol):
        raise ValidationError(f"{name} has negative entries (min={arr.min()})")
    s = float(arr.sum())
    if abs(s - 1.0) > max(atol, atol * arr.size):
        raise ValidationError(f"{name} must sum to 1, got {s}")
    return arr


def check_index_array(a, name: str, *, upper: int) -> np.ndarray:
    """Validate an int index array with entries in ``[0, upper)``.

    Negative entries are allowed only as the conventional ``-1`` padding
    marker used by some ELL variants; anything below ``-1`` is rejected.
    """
    arr = np.asarray(a)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValidationError(f"{name} must be an integer array, got {arr.dtype}")
    if arr.size and (arr.min() < -1 or arr.max() >= upper):
        raise ValidationError(
            f"{name} entries must lie in [-1, {upper}), got range "
            f"[{arr.min()}, {arr.max()}]")
    return arr
