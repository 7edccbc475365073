"""Weighted Mellin transforms of radial profiles.

For a radial profile v and order s, the transform evaluated here is

    M[v G_s](zeta) = (1/pi) int_0^inf v(t) exp(-t^2) t^(zeta + 2s - 1) dt,

holomorphic in zeta on the half-plane zeta + 2s > 0 and related to the
unweighted-density transform by the shift M[v G_s](zeta) = M[v G](2s + zeta).
All evaluation points in this package are real (shifted integers), so no
complex continuation is attempted.  The 1/pi normalisation lives here, not in
callers, and every value carries an additive absolute-error estimate that
downstream products propagate.

Gaussian-polynomial profiles (terms c t^p exp(-b t^2)) have the exact
transform sum c Gamma(a) / (2 pi (1+b)^a), a = (zeta + 2s + p)/2, kept in
the log domain; only evaluator profiles go through quadrature, a whole
column of arguments per call, or the columns of several profiles in one
pass.  Nothing here caches a column; the operator module memoizes the
matrix entries built from one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .fock_space import SobolevOrder, order_value
from .special_functions import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    gaussian_weighted_columns,
    # unused here, but perfbench/spans.py wraps this binding
    gaussian_weighted_integral_with_estimate,  # noqa: F401
    log_gamma_array,
)
from .symbols import RadialProfile

__all__ = [
    "MellinValue",
    "mellin_weighted",
    "mellin_weighted_cached",
]


@dataclass(frozen=True)
class MellinValue:
    """A transform value at one real argument, with its error estimate.

    The transform is ``value * exp(log_scale)``, and its absolute error
    ``abs_error_estimate * exp(log_scale)``; ``log_scale`` is 0 for
    quadrature values and carries the Gamma magnitude of exact ones.
    """

    value: complex
    abs_error_estimate: float
    log_scale: float = 0.0


def _family_transform(terms: tuple, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact M[v G_s] of v = sum c r^p exp(-b r^2) at exponents alpha = zeta + 2s.

    Returns arrays (log_scale, value, error) shaped like ``alpha``, with
    log_scale the largest term's log(Gamma(a) / (1+b)^a).  The error bounds
    the log-domain rounding, 4 eps (2 + |log Gamma(a)| + a log(1+b)) times
    each term's magnitude, so it is positive whenever the value is nonzero.
    """
    alpha = np.asarray(alpha, dtype=float)
    logs = []
    for c, p, b in terms:
        a = 0.5 * (alpha + p)
        log_gamma = log_gamma_array(a)
        decay = a * math.log1p(b)
        logs.append((c, log_gamma - decay, np.abs(log_gamma) + decay))
    log_scale = np.max([log for _, log, _ in logs], axis=0) if logs else np.zeros(alpha.shape)
    value = np.zeros(alpha.shape, dtype=complex)
    error = np.zeros(alpha.shape)
    for c, log, magnitude in logs:
        weight = np.exp(log - log_scale) / (2.0 * math.pi)
        value += c * weight
        error += 4.0 * sys.float_info.epsilon * (2.0 + magnitude) * abs(c) * weight
    return log_scale, value, error


def _columns(
    parts: list, s: float, spec: QuadratureSpec
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, Exception]]]:
    """M[v G_s] at ``zetas`` for each part (v, zetas), as new arrays
    (log_scale, values, errors), the transform being value * exp(log_scale),
    and {index: failure} for failed quadratures (value and error nan): the
    exact form for a family profile, one column quadrature pass for all the
    evaluator profiles, elementwise.  The pass stops at the first failure in
    part order, as ``gaussian_weighted_columns`` does: the failures start at
    the first failed index, and the list ends at its part.
    Every transform comes through here, so here an argument outside the
    holomorphy half-plane is refused with a :class:`DomainError`."""
    alphas = [zetas + 2.0 * s for _, zetas in parts]
    for (_, zetas), alpha in zip(parts, alphas):
        outside = ~(np.isfinite(alpha) & (alpha > 0.0))
        if outside.any():
            zeta = float(zetas[np.argmax(outside)])
            raise DomainError(
                f"Mellin argument outside holomorphy half-plane: zeta + 2s = {zeta + 2.0 * s:g} "
                f"must be finite and > 0 (zeta={zeta!r}, s={s!r})"
            )
    # the evaluator itself, which the profile's __call__ only wraps
    evaluators = [
        (v.evaluator, alpha, v.growth_exponent, v.growth_constant)
        for (v, _), alpha in zip(parts, alphas)
        if v.evaluator is not None
    ]
    passes = iter(evaluators and gaussian_weighted_columns(evaluators, spec))
    columns = []
    for (v, _), alpha in zip(parts, alphas):
        if v.evaluator is None:
            columns.append((*_family_transform(v.terms, alpha), {}))
            continue
        values, errors, failures = next(passes)
        # numpy's complex / float multiplies by 1/pi; dividing each part rounds
        # as Python's complex division does
        values = (values.view(float) / math.pi).view(complex)
        columns.append((np.zeros(alpha.shape), values, errors / math.pi, failures))
        if failures:
            break
    return columns


def _column(
    v: RadialProfile, s: float, zetas: np.ndarray, spec: QuadratureSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, Exception]]:
    """:func:`_columns` of one profile."""
    return _columns([(v, zetas)], s, spec)[0]


def mellin_weighted(
    v: RadialProfile,
    s: "float | SobolevOrder",
    zeta: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> MellinValue:
    """M[v G_s](zeta): exact for Gaussian-polynomial profiles, by half-line
    quadrature for evaluator profiles.

    Raises :class:`DomainError` outside the holomorphy half-plane
    (zeta + 2s <= 0) and propagates :class:`AccuracyError` from the
    quadrature engine on non-convergence.
    """
    log_scale, values, errors, failures = _column(v, order_value(s), np.array([float(zeta)]), spec)
    if failures:
        raise failures[0]
    return MellinValue(complex(values[0]), float(errors[0]), float(log_scale[0]))


@lru_cache(maxsize=1024)
def mellin_weighted_cached(
    v: RadialProfile,
    s: "float | SobolevOrder",
    zeta: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> MellinValue:
    """:func:`mellin_weighted`, memoized by its arguments; a refusal is raised
    again, never stored, and results are identical to the uncached call."""
    return mellin_weighted(v, s, zeta, spec)
