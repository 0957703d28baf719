"""Exception hierarchy shared by all entrunc modules."""

__all__ = ["EntruncError", "DimensionError", "DegenerateTruncationError", "DomainError"]


class EntruncError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(EntruncError, ValueError):
    """A dimension argument violates the model's constraints.

    Raised for even total/truncation dimensions, out-of-range encoding
    dimensions, mismatched matrix shapes and similar configuration mistakes.
    """


class DegenerateTruncationError(EntruncError, ArithmeticError):
    """The truncation window captures (numerically) zero state weight.

    Renormalizing by the captured norm would divide by ~0, so the operation
    is refused instead of returning NaNs.
    """


class DomainError(EntruncError, ValueError):
    """A scalar argument lies outside the mathematical domain of a function."""
