"""Shared exception types."""


class PluripotError(Exception):
    """Base class for all package errors."""


class InvalidInputError(PluripotError):
    """A precondition on user-supplied data was violated."""


class DegenerateMeasureError(PluripotError):
    """The Gram matrix of a measure is numerically singular.

    Carries the numerical rank found before factorization broke down.
    """

    def __init__(self, message, rank=None):
        super().__init__(message)
        self.rank = rank


class UnsupportedModelError(PluripotError):
    """The requested closed-form model (or model pair) is not in the table."""
