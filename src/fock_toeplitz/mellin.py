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
column of arguments per call.  Their values are cached in one bounded
:class:`TransformTable`, one table per (profile, s, spec) read by zeta.
"""

from __future__ import annotations

import math
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import AccuracyError, DomainError
from .fock_space import SobolevOrder, order_value
from .special_functions import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    gaussian_weighted_column,
    # unused here, but perfbench/spans.py wraps this binding
    gaussian_weighted_integral_with_estimate,  # noqa: F401
    log_gamma_array,
)
from .symbols import RadialProfile

__all__ = [
    "MellinValue",
    "TableInfo",
    "TransformTable",
    "TRANSFORMS",
    "family_transform",
    "mellin_weighted",
    "mellin_weighted_cached",
]

# Transforms the shared table keeps in all, as (value, error) pairs; about
# 200 bytes each.
_MAX_CACHED_TRANSFORMS = 1 << 15


@dataclass(frozen=True)
class MellinValue:
    """A transform value at a real argument, with its error estimate.

    The transform is ``value * exp(log_scale)``, and its absolute error
    ``abs_error_estimate * exp(log_scale)``; ``log_scale`` is 0 for
    quadrature values and carries the Gamma magnitude of exact ones.
    """

    argument: float
    value: complex
    abs_error_estimate: float
    log_scale: float = 0.0


def family_transform(terms: tuple, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def _evaluator_column(
    v: RadialProfile, s: float, zetas: np.ndarray, spec: QuadratureSpec
) -> tuple[np.ndarray, np.ndarray, dict[int, AccuracyError]]:
    """M[v G_s] of an evaluator profile at the real arguments ``zetas`` by one
    column quadrature: (values, errors, failures), as
    :func:`~fock_toeplitz.special_functions.gaussian_weighted_column`."""
    values, errors, failures = gaussian_weighted_column(
        v, zetas + 2.0 * s, spec, growth_exponent=v.growth_exponent
    )
    # numpy's complex / float multiplies by 1/pi; dividing each part rounds
    # as Python's complex division does
    return (values.view(float) / math.pi).view(complex), errors / math.pi, failures


class TableInfo(NamedTuple):
    """Transforms read from a :class:`TransformTable`, transforms computed
    for it, and the tables and transforms it holds."""

    hits: int
    misses: int
    tables: int
    transforms: int


class TransformTable:
    """Bounded cache of evaluator transforms: one table per (profile, s,
    spec), holding (value, error) by zeta.

    :meth:`column` computes every argument a table lacks in one column
    quadrature.  Failed transforms are not stored.  Once the tables hold
    more than ``_MAX_CACHED_TRANSFORMS`` in all, the least recently used
    tables are dropped (never the one just written).  Tables are read and
    written under a lock; quadrature runs outside it.
    """

    def __init__(self):
        self._tables: OrderedDict = OrderedDict()
        self._size = self._hits = self._misses = 0
        self._lock = threading.Lock()

    def column(
        self, v: RadialProfile, s: float, zetas: np.ndarray, spec: QuadratureSpec
    ) -> tuple[np.ndarray, np.ndarray, dict[int, AccuracyError]]:
        """M[v G_s] of an evaluator profile at ``zetas``: (values, errors,
        failures), with {index: AccuracyError} for the arguments whose
        quadrature failed (their value and error are nan)."""
        zetas = np.asarray(zetas, dtype=float)
        points = zetas.tolist()
        key = (v, s, spec)
        with self._lock:
            table = self._tables.get(key, {})
            if table:
                self._tables.move_to_end(key)
            found = [table.get(zeta) for zeta in points]
        missing = [i for i, pair in enumerate(found) if pair is None]
        failures: dict[int, AccuracyError] = {}
        if missing:
            values, errors, failed = _evaluator_column(v, s, zetas[missing], spec)
            for i, pair in zip(missing, zip(values.tolist(), errors.tolist())):
                found[i] = pair
            failures = {missing[row]: exc for row, exc in failed.items()}
        stored = {points[i]: found[i] for i in missing if i not in failures}
        with self._lock:
            self._hits += len(points) - len(missing)
            self._misses += len(missing)
            if stored:
                table = self._tables.setdefault(key, {})
                self._tables.move_to_end(key)
                self._size -= len(table)
                table.update(stored)
                self._size += len(table)
                while self._size > _MAX_CACHED_TRANSFORMS and len(self._tables) > 1:
                    self._size -= len(self._tables.popitem(last=False)[1])
        values = np.array([pair[0] for pair in found], dtype=complex)
        return values, np.array([pair[1] for pair in found]), failures

    def info(self) -> TableInfo:
        with self._lock:
            return TableInfo(self._hits, self._misses, len(self._tables), self._size)


TRANSFORMS = TransformTable()


def _transform(
    v: RadialProfile,
    s: "float | SobolevOrder",
    zeta: float,
    spec: QuadratureSpec,
    column: Callable,
) -> MellinValue:
    sv = order_value(s)
    zeta = float(zeta)
    alpha = zeta + 2.0 * sv
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise DomainError(
            f"Mellin argument outside holomorphy half-plane: zeta + 2s = {alpha:g} <= 0"
        )
    if v.evaluator is None:
        log_scale, value, error = family_transform(v.terms, np.array([alpha]))
        return MellinValue(zeta, complex(value[0]), float(error[0]), float(log_scale[0]))
    values, errors, failures = column(v, sv, np.array([zeta]), spec)
    if failures:
        raise failures[0]
    return MellinValue(zeta, complex(values[0]), float(errors[0]))


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
    return _transform(v, s, zeta, spec, _evaluator_column)


def mellin_weighted_cached(
    v: RadialProfile,
    s: "float | SobolevOrder",
    zeta: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> MellinValue:
    """:func:`mellin_weighted`, with evaluator transforms read through the
    shared :data:`TRANSFORMS` table; results are identical to the uncached
    call."""
    return _transform(v, s, zeta, spec, TRANSFORMS.column)
