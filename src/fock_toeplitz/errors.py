"""Exception types shared across the library, and its integer-argument test."""

import numpy as np


class DomainError(ValueError):
    """Input outside a function's mathematical domain."""


class PreconditionError(ValueError):
    """A documented caller obligation was violated."""


class AccuracyError(RuntimeError):
    """Requested tolerance could not be met.

    Carries ``estimate``, the best available bound on the absolute error of
    the value that failed to converge.
    """

    def __init__(self, message: str, estimate: float | None = None):
        super().__init__(message)
        self.estimate = estimate


class ResourceError(RuntimeError):
    """A configured resource cap (series terms, refinement levels) was hit."""


class ClassificationError(ValueError):
    """Sampled data does not fit any member of the polynomial-growth ladder."""


class ConfigurationError(Exception):
    """Invalid experiment configuration or input file (CLI exit code 2)."""


def is_integer(value) -> bool:
    """Whether ``value`` is a finite number with an integer value; a bool is none."""
    try:
        return int(value) == value and not isinstance(value, (bool, np.bool_))
    except (TypeError, ValueError, OverflowError):  # not a number, nan or infinite
        return False
