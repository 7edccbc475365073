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
column of arguments per call.  Transforms of both kinds are cached in one
bounded :class:`TransformTable` of arrays sorted by zeta, per (profile, s)
and, for evaluator profiles, per spec, so a warm column is an index read.
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

# Transforms the shared table keeps in all, of both profile kinds; 40 bytes
# each (zeta, log_scale, complex value, error).
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


def _column(
    v: RadialProfile, s: float, zetas: np.ndarray, spec: QuadratureSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, AccuracyError]]:
    """Uncached M[v G_s] at ``zetas``, as :meth:`TransformTable.column` returns
    it: the exact form for a family profile, one column quadrature for an
    evaluator, both elementwise (a value does not depend on the others).
    Every transform of either kind comes through here, so here an argument
    outside the holomorphy half-plane is refused."""
    alpha = zetas + 2.0 * s
    outside = ~(np.isfinite(alpha) & (alpha > 0.0))
    if outside.any():
        zeta = float(zetas[np.argmax(outside)])
        raise DomainError(
            f"Mellin argument outside holomorphy half-plane: zeta + 2s = {zeta + 2.0 * s:g} "
            f"must be finite and > 0 (zeta={zeta!r}, s={s!r})"
        )
    if v.evaluator is None:
        return (*family_transform(v.terms, alpha), {})
    values, errors, failures = gaussian_weighted_column(
        v, alpha, spec, growth_exponent=v.growth_exponent, growth_constant=v.growth_constant
    )
    # numpy's complex / float multiplies by 1/pi; dividing each part rounds
    # as Python's complex division does
    values = (values.view(float) / math.pi).view(complex)
    return np.zeros(zetas.shape), values, errors / math.pi, failures


class TableInfo(NamedTuple):
    """Counters of a :class:`TransformTable` over both profile kinds: the
    transforms read and computed, and the tables and transforms it holds."""

    hits: int
    misses: int
    tables: int
    transforms: int


# A table is the arrays (zetas, log_scale, value, error), sorted by zeta and
# ending in a nan zeta that no argument equals, so a sorted search never runs
# past the end; a missing table is that entry alone.
_EMPTY = tuple(np.full(1, np.nan, dtype) for dtype in (float, float, complex, float))


class TransformTable:
    """Bounded cache of transforms of both profile kinds: one table of
    read-only arrays sorted by zeta per (profile, s), and per spec for an
    evaluator profile (an exact transform does not depend on the spec).

    A read is a sorted search.  :meth:`column` computes every argument a
    table lacks in one :func:`_column` call and replaces the table by a
    merged copy, never writing an array in place, so a table read outside
    the lock stays whole.  Failed transforms are not stored.  Once the
    tables hold more than ``_MAX_CACHED_TRANSFORMS`` in all, the least
    recently used tables are dropped (never the one just written).  Tables
    are swapped under a lock; quadrature runs outside it.
    """

    def __init__(self):
        self._tables: OrderedDict = OrderedDict()
        self._size = self._hits = self._misses = 0
        self._lock = threading.Lock()

    def column(
        self, v: RadialProfile, s: float, zetas: np.ndarray, spec: QuadratureSpec
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, AccuracyError]]:
        """M[v G_s] at the real arguments ``zetas``: new arrays (log_scale,
        values, errors), the transform being value * exp(log_scale), and
        {index: AccuracyError} for the arguments whose quadrature failed
        (their value and error are nan).  Raises :class:`DomainError` when
        some zeta + 2s is not finite and positive."""
        zetas = np.asarray(zetas, dtype=float)
        key = (v, s) if v.evaluator is None else (v, s, spec)
        with self._lock:
            table = self._tables.get(key, _EMPTY)
            if table is not _EMPTY:
                self._tables.move_to_end(key)
        at = np.searchsorted(table[0], zetas)
        missing = np.flatnonzero(table[0][at] != zetas)
        log_scale, values, errors = (array[at] for array in table[1:])
        failures = {}
        if missing.size:
            *computed, failed = _column(v, s, zetas[missing], spec)
            for out, part in zip((log_scale, values, errors), computed):
                out[missing] = part
            failures = {int(missing[row]): exc for row, exc in failed.items()}
            keep = np.ones(missing.size, dtype=bool)
            keep[list(failed)] = False
        with self._lock:
            self._hits += zetas.size - missing.size
            self._misses += missing.size
            if missing.size and keep.any():
                old = self._tables.pop(key, _EMPTY)
                added = (zetas[missing], *computed)
                merged = [np.concatenate((a, b[keep])) for a, b in zip(old, added)]
                # np.unique keeps each zeta's first, older entry; nan sorts last
                first = np.unique(merged[0], return_index=True)[1]
                self._tables[key] = table = tuple(array[first] for array in merged)
                for array in table:
                    array.setflags(write=False)
                self._size += first.size - old[0].size
                while self._size > _MAX_CACHED_TRANSFORMS and len(self._tables) > 1:
                    self._size -= self._tables.popitem(last=False)[1][0].size - 1
        return log_scale, values, errors, failures

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
    log_scale, values, errors, failures = column(v, sv, np.array([zeta]), spec)
    if failures:
        raise failures[0]
    return MellinValue(zeta, complex(values[0]), float(errors[0]), float(log_scale[0]))


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
    return _transform(v, s, zeta, spec, _column)


def mellin_weighted_cached(
    v: RadialProfile,
    s: "float | SobolevOrder",
    zeta: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> MellinValue:
    """:func:`mellin_weighted`, read through the shared :data:`TRANSFORMS`
    table for both profile kinds; results are identical to the uncached
    call."""
    return _transform(v, s, zeta, spec, TRANSFORMS.column)
