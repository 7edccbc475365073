"""Gamma evaluation and Gaussian-weighted quadrature on the half-line.

Every integral in this package reduces to

    I(f, alpha) = int_0^inf f(t) exp(-t^2) t^(alpha-1) dt,

evaluated here by tanh-sinh (double-exponential) quadrature on a truncated
interval (0, R].  The truncation radius R is tied to the largest exponent in
play: R is chosen so that exp(-R^2) * R^alpha_max falls below the absolute
tolerance, which makes the dropped tail negligible for any integrand of
declared polynomial growth.  Refinement doubles the node density until two
consecutive levels agree within tolerance; the last inter-level difference is
the reported error estimate.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = [
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "log_gamma",
    "log_gamma_array",
    "gaussian_weighted_integral_with_estimate",
    "tail_radius",
]

# Transformed half-width: weights underflow to zero well inside |u| <= 6.
_U_MAX = 6.0
# Node density doublings allowed past the initial level before giving up.
_MAX_REFINEMENTS = 8


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for finite real x > 0.

    Delegates to the C library ``lgamma``, whose relative error is a few ulp
    (far below the 1e-13 contract) throughout (0, 1e6].
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"log_gamma requires finite x > 0, got {x!r}")
    return math.lgamma(x)


_lgamma = np.frompyfunc(math.lgamma, 1, 1)


def log_gamma_array(x: np.ndarray) -> np.ndarray:
    """``math.lgamma`` elementwise over a float array, bit for bit the values
    of :func:`log_gamma`, without its domain check."""
    return _lgamma(x).astype(float)


def tail_radius(alpha_max: float, abs_tol: float) -> float:
    """Truncation radius R with exp(-R^2) * R^alpha_max < abs_tol / 10."""
    if abs_tol <= 0.0:
        raise DomainError("abs_tol must be positive")
    target = math.log(10.0 / abs_tol) + 0.1
    r = max(2.0, math.sqrt(max(alpha_max, 1.0)))
    for _ in range(64):
        r = math.sqrt(target + max(alpha_max, 0.0) * math.log(r))
    return r


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the truncated half-line quadrature.

    ``tail_cutoff`` is the truncation radius R.  It must be large enough for
    the exponents appearing in the computation; build specs through
    :meth:`for_exponent`, or rely on :meth:`covering`, which widens R when a
    caller declares a larger exponent.
    """

    node_count: int = 48
    tail_cutoff: float = 8.0
    abs_tol: float = 1e-13
    rel_tol: float = 1e-11

    def __post_init__(self):
        if int(self.node_count) != self.node_count or self.node_count < 2:
            raise DomainError(f"node_count must be an integer >= 2, got {self.node_count!r}")
        for name in ("tail_cutoff", "abs_tol", "rel_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise DomainError(f"{name} must be finite and positive, got {value!r}")

    @classmethod
    def for_exponent(
        cls,
        alpha_max: float,
        *,
        node_count: int = 48,
        abs_tol: float = 1e-13,
        rel_tol: float = 1e-11,
    ) -> "QuadratureSpec":
        """Spec whose truncation radius covers exponents up to ``alpha_max``."""
        return cls(node_count, tail_radius(alpha_max, abs_tol), abs_tol, rel_tol)

    def covering(self, alpha_max: float) -> "QuadratureSpec":
        """This spec, with ``tail_cutoff`` widened if needed for ``alpha_max``."""
        r = tail_radius(alpha_max, self.abs_tol)
        if r <= self.tail_cutoff:
            return self
        return replace(self, tail_cutoff=r)


DEFAULT_QUADRATURE = QuadratureSpec()


def _level_sum(f: Callable, alpha: float, cutoff: float, h: float) -> tuple[complex, float]:
    """One trapezoid pass of the tanh-sinh rule at step ``h``.

    Returns the sum and its L1 mass, which bounds summation rounding.  A sum
    or mass that is not finite raises :class:`AccuracyError` with an
    infinite estimate: an infinite sum would pass the caller's relative
    stopping test.
    """
    k = int(math.floor(_U_MAX / h))
    u = h * np.arange(-k, k + 1)
    y = 0.5 * math.pi * np.sinh(u)
    ey = np.exp(-2.0 * np.abs(y))
    # t = (cutoff/2)(1 + tanh y), written from the nearer endpoint so that
    # nodes close to 0 keep full relative precision.
    t = np.where(y >= 0.0, cutoff / (1.0 + ey), cutoff * ey / (1.0 + ey))
    sech2 = 4.0 * ey / (1.0 + ey) ** 2
    w = h * (cutoff / 2.0) * (0.5 * math.pi) * np.cosh(u) * sech2
    mask = (w > 0.0) & (t > 0.0) & (t < cutoff)
    t, w = t[mask], w[mask]
    with np.errstate(under="ignore", over="ignore"):  # overflow raises below
        density = np.exp((alpha - 1.0) * np.log(t) - t * t)
    weights = w * density
    live = weights != 0.0
    t, weights = t[live], weights[live]
    if t.size == 0:
        return 0j, 0.0
    terms = weights * np.asarray(f(t))
    total, l1_mass = complex(np.sum(terms)), float(np.sum(np.abs(terms)))
    if not (cmath.isfinite(total) and math.isfinite(l1_mass)):
        raise AccuracyError(
            f"quadrature level sum is not finite (overflows double range) for alpha={alpha:g}",
            estimate=math.inf,
        )
    return total, l1_mass


def gaussian_weighted_integral_with_estimate(
    f: Callable,
    alpha: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    *,
    growth_exponent: float = 0.0,
) -> tuple[complex, float]:
    """I(f, alpha) for alpha > 0 and its absolute error estimate
    (inter-level difference + truncation-tail indicator + rounding floor).

    ``f`` maps a 1-d array of points in (0, tail_cutoff) to real or complex
    values of the same shape, with at most the polynomial growth declared
    by ``growth_exponent``.  Deterministic for a fixed spec; raises
    :class:`AccuracyError`, estimate attached, when refinement stalls, and
    with an infinite estimate when a level sum is not finite.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise DomainError(f"exponent alpha must be finite and > 0, got {alpha!r}")
    cutoff = spec.tail_cutoff
    # Indicator of the discarded tail beyond R for the declared growth.
    tail_log = (alpha + growth_exponent) * math.log(cutoff) - cutoff * cutoff
    tail_bound = math.exp(tail_log) if tail_log < 700.0 else math.inf

    h = 2.0 * _U_MAX / spec.node_count
    previous, _ = _level_sum(f, alpha, cutoff, h)
    diff = math.inf
    current = previous
    rounding = 0.0
    eps = float(np.finfo(float).eps)
    for level in range(1, _MAX_REFINEMENTS + 1):
        h *= 0.5
        current, l1_mass = _level_sum(f, alpha, cutoff, h)
        diff = abs(current - previous)
        # Accumulated rounding of an n-term sum scales with its L1 mass.
        rounding = (8.0 + math.sqrt(spec.node_count * 2**level)) * eps * l1_mass
        if diff <= max(spec.abs_tol, spec.rel_tol * abs(current)):
            return current, diff + tail_bound + rounding
        previous = current
    estimate = diff + tail_bound + rounding
    raise AccuracyError(
        f"quadrature did not reach tolerance (abs_tol={spec.abs_tol:g}, "
        f"rel_tol={spec.rel_tol:g}) for alpha={alpha:g}: "
        f"error estimate {estimate:.3e} after {_MAX_REFINEMENTS} refinements",
        estimate=estimate,
    )
