"""Exception hierarchy shared across the toolkit.

Errors are grouped by what the caller can do about them: fix the inputs
(:class:`DomainError`, :class:`ConfigurationError`, :class:`AlignmentError`),
supply a more capable object (:class:`CapabilityError`), or treat the
computation itself as failed (:class:`AccuracyError`, :class:`EmbeddingError`,
:class:`NumericalError`).
"""
from __future__ import annotations

__all__ = [
    "FracsewError",
    "DomainError",
    "ConfigurationError",
    "AlignmentError",
    "CapabilityError",
    "AccuracyError",
    "EmbeddingError",
    "NumericalError",
    "RegimeWarning",
]


class FracsewError(Exception):
    """Base class for every error raised by this package."""


class DomainError(FracsewError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ConfigurationError(FracsewError, ValueError):
    """A configuration value, or a combination of values, is invalid."""


class AlignmentError(FracsewError, ValueError):
    """Requested times do not lie on the path's grid."""


class CapabilityError(FracsewError, TypeError):
    """The supplied object lacks a capability the operation requires."""


class AccuracyError(FracsewError, RuntimeError):
    """A numerical routine could not reach the requested tolerance.

    The best available estimate and its error bound are carried so callers
    can decide whether to proceed with them regardless.
    """

    def __init__(self, message: str, estimate: float | None = None,
                 error_bound: float | None = None) -> None:
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class EmbeddingError(FracsewError, RuntimeError):
    """Circulant embedding produced a significantly negative eigenvalue."""

    def __init__(self, message: str, index: int | None = None,
                 eigenvalue: float | None = None) -> None:
        super().__init__(message)
        self.index = index
        self.eigenvalue = eigenvalue


class NumericalError(FracsewError, RuntimeError):
    """A computation produced non-finite or inconsistent values."""

    def __init__(self, message: str, step: int | None = None) -> None:
        super().__init__(message)
        self.step = step


class RegimeWarning(UserWarning):
    """The requested computation lies outside its guaranteed regime."""
