"""Automatic sequences, truncated power series over prime fields, and the
check suite for the formal inverse of the period-doubling sequence."""

from . import automata, catalog, checks, exact, kernel, morphisms, series

__all__ = ["automata", "catalog", "checks", "exact", "kernel", "morphisms", "series"]
__version__ = "0.1.0"
