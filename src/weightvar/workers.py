"""The cold restriction-table build: every column, in element order.

Columns are built serially, each one subword-sum step from its parent's
(see `schubert`): at the supported ranks, pickling columns to and from
worker processes costs more than the workers save. The build keeps this
name because the benchmark's tracer (`perfbench/tracing.py`) times it.
"""

from __future__ import annotations

from .poly import Polynomial
from .schubert import SchubertCalculus


def compute_columns(calc: SchubertCalculus) -> dict[int, dict[int, Polynomial]]:
    """Subword-sum columns for every element, keyed by element id."""
    return calc.ensure_table()
