"""Exception hierarchy shared across the package.

Error class names follow the contract vocabulary used throughout the
operation signatures (``NegativeProbability``, ``RowSumMismatch``, ...),
so callers can match on the same identifiers the docs use.
"""

from __future__ import annotations


class CifcError(Exception):
    """Base class for every error raised by this package."""


class NegativeProbability(CifcError):
    """A probability entry is below zero (beyond tolerance)."""


class RowSumMismatch(CifcError):
    """A conditional slice does not sum to one; carries the residual."""

    def __init__(self, message: str, residual: float = 0.0):
        super().__init__(message)
        self.residual = residual


class InvalidParameter(CifcError, ValueError):
    """A parameter is outside its documented domain."""


class AlphabetMismatch(CifcError):
    """Variable cardinalities disagree between two objects being combined."""


class UnknownVariable(CifcError, KeyError):
    """A referenced random variable is not part of the distribution."""


class UnknownSchema(CifcError, KeyError):
    """The requested region schema id is not in the catalog."""


class FactorizationViolation(CifcError):
    """A distribution fails a conditional-independence requirement."""


class Unbounded(CifcError):
    """The projected region is unbounded (a missing decoding constraint)."""
