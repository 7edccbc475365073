"""Exception types shared across the library, and its one reader of the
scalars it accepts.

:func:`number` and :func:`point` read every scalar argument: a Python or
numpy real (complex, for a point) is accepted, and a bool, a string, None or
any other object, a nan or an infinity, a value outside the domain, or a
non-integer where an integer is required is refused with a
:class:`DomainError` in one form, "{name} must be {domain}, got {value!r}".
"""

import cmath
import math

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


# The real scalars; a bool is an int, and is refused apart.
_REALS = (int, float, np.integer, np.floating)


def number(name: str, value, *, minimum=None, above=None, maximum=None, integer=False):
    """``value`` as a float, or as an int when ``integer``, if it is a finite
    real (an integer when ``integer``) with value >= ``minimum``, > ``above``
    and <= ``maximum``, each bound given; otherwise a :class:`DomainError`
    "{name} must be {domain}, got {value!r}".  An int is read exactly when
    ``integer``, so one beyond double range is refused only by a bound."""
    if isinstance(value, _REALS) and not isinstance(value, bool):
        try:
            x = int(value) if integer else float(value)
        except (ValueError, OverflowError):  # nan or inf as an int, an int beyond double range
            x = math.nan
        if (
            (x == value if integer else math.isfinite(x))
            and (minimum is None or x >= minimum)
            and (above is None or x > above)
            and (maximum is None or x <= maximum)
        ):
            return x
    limits = ((">=", minimum), (">", above), ("<=", maximum))
    bounds = [f"{relation} {_text(limit)}" for relation, limit in limits if limit is not None]
    if minimum is not None and maximum is not None:
        bounds = [f"in [{_text(minimum)}, {_text(maximum)}]"]
    domain = " ".join(["an integer", *bounds]) if integer else " and ".join(["finite", *bounds])
    raise DomainError(f"{name} must be {domain}, got {value!r}")


def _text(limit) -> str:
    """A bound as a message gives it: an int in full, a float as by ``g``."""
    return str(limit) if isinstance(limit, int) else f"{limit:g}"


def point(name: str, value) -> complex:
    """``value`` as a complex if it is a finite real :func:`number` or a finite
    Python or numpy complex; otherwise a :class:`DomainError` "{name} must be
    finite, got {value!r}"."""
    if not isinstance(value, (complex, np.complexfloating)):
        return complex(number(name, value))
    if cmath.isfinite(value):
        return complex(value)
    raise DomainError(f"{name} must be finite, got {value!r}")
