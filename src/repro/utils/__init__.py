"""Shared low-level helpers: validation, array utilities, table rendering."""

from repro.utils.validation import (
    check_1d,
    check_2d,
    check_probability_vector,
)
from repro.utils.arrays import (
    ceil_div,
    round_up,
)
from repro.utils.tables import Table, format_si_bytes

__all__ = [
    "check_1d",
    "check_2d",
    "check_probability_vector",
    "ceil_div",
    "round_up",
    "Table",
    "format_si_bytes",
]
