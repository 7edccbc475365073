"""Fock-Sobolev primitives: orders, weighted densities, kernels.

The order-s space is the closure of the holomorphic polynomials in
L^2(G_s dA), where G_s(z) = |z|^(2s) exp(-|z|^2) / pi.  The monomials z^n
are orthogonal with squared norms Gamma(s+n+1), and the reproducing kernel
is the series K^s(z, w) = sum_n (z conj(w))^n / Gamma(s+n+1), which this
module sums with a certified geometric tail bound.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .special_functions import log_gamma

__all__ = [
    "SobolevOrder",
    "KernelValue",
    "order_value",
    "density",
    "kernel_eval",
]

# Series terms allowed before kernel_eval gives up; covers |z conj(w)| up to
# roughly 100 at desk scale.
KERNEL_TERM_CAP = 512


@dataclass(frozen=True)
class SobolevOrder:
    """The nonnegative real order selecting the space and density; a bool is none."""

    s: float

    def __post_init__(self):
        try:
            s = math.nan if isinstance(self.s, (bool, np.bool_)) else float(self.s)
        except (TypeError, ValueError, OverflowError):
            s = math.nan  # refused below, naming the value as given
        if not math.isfinite(s) or s < 0.0:
            raise DomainError(f"Sobolev order must be finite and >= 0, got {self.s!r}")
        object.__setattr__(self, "s", s)


def order_value(s: "float | SobolevOrder") -> float:
    """Validated float value of an order given as a number or SobolevOrder."""
    if isinstance(s, SobolevOrder):
        return s.s
    return SobolevOrder(s).s


@dataclass(frozen=True)
class KernelValue:
    """A truncated kernel sum together with its certificate.

    ``tail_bound`` dominates the absolute truncation error of the series;
    ``truncation_order`` is the number of terms that were summed.
    """

    value: complex
    truncation_order: int
    tail_bound: float


def density(z: complex, s: "float | SobolevOrder") -> float:
    """Weighted Gaussian density |z|^(2s) exp(-|z|^2) / pi at z, in the log
    domain (0 below double range); a non-finite z, or a density beyond
    double range, is refused with a :class:`DomainError`."""
    sv = order_value(s)
    r = abs(complex(z))
    if not math.isfinite(r):
        raise DomainError(f"density point z must be finite, got {z!r}")
    if r == 0.0:
        return 1.0 / math.pi if sv == 0.0 else 0.0
    try:
        return math.exp(2.0 * sv * math.log(r) - r * r) / math.pi
    except OverflowError:
        raise DomainError(f"density at z={z!r}, s={sv!r} exceeds double range") from None


def kernel_eval(
    z: complex,
    w: complex,
    s: "float | SobolevOrder",
    abs_tol: float = 1e-14,
) -> KernelValue:
    """Reproducing kernel K^s(z, w) = sum_n (z conj(w))^n / Gamma(s+n+1).

    Sums until the geometric tail bound drops below ``abs_tol``.  For s = 0
    the value agrees with exp(z conj(w)).  Raises :class:`DomainError` for a
    non-finite z or w, and :class:`ResourceError` when |z conj(w)| is so
    large that the term cap would be exceeded.
    """
    sv = order_value(s)
    if not (abs_tol > 0.0):
        raise DomainError(f"abs_tol must be positive, got {abs_tol!r}")
    for name, point in (("z", z), ("w", w)):
        if not cmath.isfinite(complex(point)):
            raise DomainError(f"kernel point {name} must be finite, got {point!r}")
    q = complex(z) * complex(w).conjugate()
    term = complex(math.exp(-log_gamma(sv + 1.0)))
    total = term
    if q == 0:
        return KernelValue(total, 1, 0.0)
    magnitude = abs(q)
    for n in range(1, KERNEL_TERM_CAP + 1):
        term *= q / (sv + n)  # Gamma(s+n+1) = (s+n) Gamma(s+n)
        total += term
        # Remaining term ratios are below rho, so a geometric series bounds
        # the dropped tail once rho < 1/2.
        rho = magnitude / (sv + n + 1.0)
        if rho < 0.5:
            tail = abs(term) * rho / (1.0 - rho)
            if tail <= abs_tol:
                return KernelValue(total, n + 1, tail)
    raise ResourceError(
        f"kernel series needs more than {KERNEL_TERM_CAP} terms for "
        f"|z conj(w)| = {magnitude:g}; refusing (raise the cap or shrink the arguments)"
    )
