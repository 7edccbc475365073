"""Gamma evaluation and Gaussian-weighted quadrature on the half-line.

Every integral in this package reduces to

    I(f, alpha) = int_0^inf f(t) exp(-t^2) t^(alpha-1) dt,

evaluated here by tanh-sinh (double-exponential) quadrature on a truncated
interval (0, R].  The truncation radius R is tied to the exponent in play:
R is chosen so that exp(-R^2) * R^alpha falls below the absolute tolerance,
which makes the dropped tail negligible for any integrand of declared
polynomial growth.  Refinement halves the step (each level evaluates only its
new, odd-index nodes) until two consecutive levels agree within tolerance;
the last inter-level difference is the reported error estimate.

A whole column of exponents is one vectorised pass per level: the integrand
is evaluated once on the live nodes of every row, and each row keeps its own
radius, stopping rule and error estimate, so a row's result does not depend
on the rows beside it.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import AccuracyError, DomainError, is_integer

__all__ = [
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "log_gamma",
    "log_gamma_array",
    "gaussian_weighted_column",
    "gaussian_weighted_integral_with_estimate",
    "tail_radius",
]

# Transformed half-width: weights underflow to zero well inside |u| <= 6.
_U_MAX = 6.0
# Node density doublings allowed past the initial level before giving up.
_MAX_REFINEMENTS = 8
# Largest node_count a spec accepts: the last level then spans 2.6e5 nodes.
MAX_NODE_COUNT = 1024
# Largest rows x nodes array one level of a column forms; rows beyond it go
# in further chunks.  2^13 doubles (64 KiB) measured as fast as 2^14 and
# faster than 2^12 or 2^16, and keeps peak memory below that of one-entry
# quadrature.
_MAX_BATCH = 1 << 13


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


def tail_radius(alpha_max, abs_tol: float):
    """Truncation radius R with exp(-R^2) * R^alpha_max < abs_tol / 10,
    elementwise over an array of ``alpha_max``.

    A fixed point of R = sqrt(log(10/abs_tol) + 0.1 + alpha_max log R), run
    as array operations; numpy's ``log`` may differ from ``math.log`` in the
    last ulp, which can move R by an ulp for about one alpha in 10^4.
    """
    if abs_tol <= 0.0:
        raise DomainError("abs_tol must be positive")
    alpha_max = np.asarray(alpha_max, dtype=float)
    target = math.log(10.0 / abs_tol) + 0.1
    growth = np.maximum(alpha_max, 0.0)
    r = np.maximum(2.0, np.sqrt(np.maximum(alpha_max, 1.0)))
    for _ in range(64):
        r = np.sqrt(target + growth * np.log(r))
    return r


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the truncated half-line quadrature.

    ``tail_cutoff`` is the smallest truncation radius R; each exponent alpha
    widens it to ``tail_radius(alpha + growth_exponent, abs_tol)`` when that
    is larger.  :meth:`for_exponent` builds a spec whose R already covers a
    given exponent.
    """

    node_count: int = 48
    tail_cutoff: float = 8.0
    abs_tol: float = 1e-13
    rel_tol: float = 1e-11

    def __post_init__(self):
        if not is_integer(self.node_count) or not 2 <= self.node_count <= MAX_NODE_COUNT:
            bound = f"an integer in [2, {MAX_NODE_COUNT}]"
            raise DomainError(f"node_count must be {bound}, got {self.node_count!r}")
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
        return cls(node_count, float(tail_radius(alpha_max, abs_tol)), abs_tol, rel_tol)


DEFAULT_QUADRATURE = QuadratureSpec()


@lru_cache(maxsize=32)
def _unit_nodes(h: float, odd: bool = False) -> tuple:
    """The radius-free parts of the step-``h`` tanh-sinh nodes on (0, R) at
    u = h k, |u| <= 6 (only odd k when ``odd``), y = (pi/2) sinh u: the count
    of nodes with y < 0, and the arrays e^{-2|y|}, 1 + e^{-2|y|}, cosh u and
    sech^2 y.  Nodes where 1 + e^{-2|y|} rounds to 1 sit at t = R exactly,
    which the rule excludes, so they are left out here.  Read-only: the
    cache hands the same arrays to every caller."""
    k = int(math.floor(_U_MAX / h))
    index = np.arange(-k, k + 1)
    u = h * (index[index % 2 == 1] if odd else index)
    y = 0.5 * math.pi * np.sinh(u)
    ey = np.exp(-2.0 * np.abs(y))
    kept = (y < 0.0) | (1.0 + ey > 1.0)
    u, ey = u[kept], ey[kept]
    arrays = (ey, 1.0 + ey, np.cosh(u), 4.0 * ey / (1.0 + ey) ** 2)
    for array in arrays:
        array.setflags(write=False)
    return (int(np.count_nonzero(y < 0.0)), *arrays)


def _level_sums(
    f: Callable, alpha: np.ndarray, cutoff: np.ndarray, h: float, odd: bool
) -> tuple[np.ndarray, np.ndarray]:
    """One trapezoid pass of the tanh-sinh rule at step ``h`` (odd nodes only
    when ``odd``) for each row (alpha, cutoff): the sums and their L1 masses,
    which bound summation rounding.  ``f`` is evaluated once, on all rows."""
    lower, ey, one_plus_ey, cosh_u, sech2 = _unit_nodes(h, odd)
    # A node with t < R e^{-2|y|} < e^{-750/(alpha-1)} has an exactly zero
    # weight (its exp underflows), so the leading nodes below that bound
    # for every row are skipped.
    dead = np.exp(-750.0 / np.maximum(alpha - 1.0, 1e-300)) / (2.0 * cutoff)
    first = int(np.searchsorted(ey[:lower], dead.min()))
    ey, one_plus_ey, cosh_u, sech2 = (a[first:] for a in (ey, one_plus_ey, cosh_u, sech2))
    lower -= first
    radius = cutoff[:, None]
    # t = (cutoff/2)(1 + tanh y), written from the nearer endpoint so that
    # nodes close to 0 keep full relative precision.
    t = np.empty((alpha.size, ey.size))
    t[:, :lower] = radius * ey[:lower] / one_plus_ey[:lower]
    t[:, lower:] = radius / one_plus_ey[lower:]
    w = (h * (cutoff / 2.0) * (0.5 * math.pi))[:, None] * cosh_u * sech2
    rows, cols = np.nonzero((w > 0.0) & (t > 0.0) & (t < radius))
    t = t[rows, cols]
    # an overflowing sum is refused by the caller
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        weights = w[rows, cols] * np.exp((alpha[rows] - 1.0) * np.log(t) - t * t)
        live = weights != 0.0
        rows = rows[live]
        terms = weights[live] * np.asarray(f(t[live])) if rows.size else np.zeros(0)
        magnitudes = np.abs(terms)
        # Each row's terms are contiguous and in node order, so summing its
        # slice rounds exactly as a pass over that row alone.
        bounds = np.searchsorted(rows, np.arange(alpha.size + 1)).tolist()
        spans = list(zip(bounds, bounds[1:]))
        add = np.add.reduce
        totals = [add(terms[a:b]) for a, b in spans]
        masses = [add(magnitudes[a:b]) for a, b in spans]
    return np.array(totals, dtype=complex), np.array(masses)


def gaussian_weighted_column(
    f: Callable,
    alphas,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    *,
    growth_exponent: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, dict[int, AccuracyError]]:
    """I(f, alpha) for every alpha > 0 of a column, with absolute error
    estimates (inter-level difference + truncation-tail indicator + rounding
    floor).

    Returns (values, errors, failures): complex values and float estimates
    per alpha, and {row: AccuracyError} for the rows whose refinement
    stalled (estimate attached) or whose level sum or L1 mass is not finite
    (infinite estimate: an infinite sum would pass the relative stopping
    test); a failed row's value and error are nan.

    ``f`` maps a 1-d array of points in (0, R) to real or complex values of
    the same shape, with at most the polynomial growth declared by
    ``growth_exponent``.  Row i is integrated on (0, R_i], R_i the larger of
    ``spec.tail_cutoff`` and ``tail_radius(alpha_i + growth_exponent)``.
    Deterministic for a fixed spec, and a row's result does not depend on
    the other rows of the column.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    bad = ~(np.isfinite(alphas) & (alphas > 0.0))
    if bad.any():
        raise DomainError(
            f"exponent alpha must be finite and > 0, got {float(alphas[np.argmax(bad)])!r}"
        )
    exponents = alphas + growth_exponent
    cutoff = np.maximum(spec.tail_cutoff, tail_radius(exponents, spec.abs_tol))
    # Indicator of the discarded tail beyond R for the declared growth.
    tail_log = exponents * np.log(cutoff) - cutoff * cutoff
    tail_bound = np.where(tail_log < 700.0, np.exp(np.minimum(tail_log, 700.0)), np.inf)

    values = np.full(alphas.size, np.nan, dtype=complex)
    errors = np.full(alphas.size, np.nan)
    failures: dict[int, AccuracyError] = {}
    previous, previous_mass = np.zeros(alphas.size, dtype=complex), np.zeros(alphas.size)
    estimate = np.full(alphas.size, np.inf)
    active = np.arange(alphas.size)
    eps = float(np.finfo(float).eps)
    h = 2.0 * _U_MAX / spec.node_count
    for level in range(_MAX_REFINEMENTS + 1):
        # Halving h keeps the old nodes exactly: past level 0, sum the new (odd)
        # nodes and add half the previous sum.
        step = max(1, _MAX_BATCH // _unit_nodes(h, level > 0)[1].size)
        chunks = [
            _level_sums(f, alphas[rows], cutoff[rows], h, level > 0)
            for rows in np.split(active, range(step, active.size, step))
        ]
        sums, masses = (np.concatenate(part) for part in zip(*chunks))
        current, l1_mass = 0.5 * previous[active] + sums, 0.5 * previous_mass[active] + masses
        h *= 0.5
        finite = np.isfinite(current) & np.isfinite(l1_mass)
        for row in active[~finite].tolist():
            failures[row] = AccuracyError(
                "quadrature level sum is not finite (overflows double range) "
                f"for alpha={alphas[row]:g}",
                estimate=math.inf,
            )
        diff = np.abs(current - previous[active])
        # Summation rounding scales with the L1 mass.  Nesting rounds once more per
        # level; later levels halve it, so it adds < 2 eps * mass, inside the 8 eps.
        rounding = (8.0 + math.sqrt(spec.node_count * 2**level)) * eps * l1_mass
        estimate[active] = diff + tail_bound[active] + rounding
        tolerance = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(current))
        done = finite & (level > 0) & (diff <= tolerance)  # level 0 has no level to agree with
        values[active[done]] = current[done]
        errors[active[done]] = estimate[active[done]]
        previous[active], previous_mass[active] = current, l1_mass
        active = active[finite & ~done]
        if not active.size:
            break
    for row in active.tolist():
        failures[row] = AccuracyError(
            f"quadrature did not reach tolerance (abs_tol={spec.abs_tol:g}, "
            f"rel_tol={spec.rel_tol:g}) for alpha={alphas[row]:g}: "
            f"error estimate {estimate[row]:.3e} after {_MAX_REFINEMENTS} refinements",
            estimate=float(estimate[row]),
        )
    return values, errors, dict(sorted(failures.items()))


def gaussian_weighted_integral_with_estimate(
    f: Callable,
    alpha: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    *,
    growth_exponent: float = 0.0,
) -> tuple[complex, float]:
    """I(f, alpha) for alpha > 0 and its absolute error estimate: the
    one-alpha :func:`gaussian_weighted_column`, whose failure it raises."""
    values, errors, failures = gaussian_weighted_column(
        f, [alpha], spec, growth_exponent=growth_exponent
    )
    if failures:
        raise failures[0]
    return complex(values[0]), float(errors[0])
