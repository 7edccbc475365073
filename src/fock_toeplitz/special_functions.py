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
is evaluated once, on one window of nodes per row, and each row keeps its own
radius, stopping rule and error estimate, so a row's result does not depend
on the rows beside it.  Under the declared growth bound |f(t)| <= C (1+t)^m,
a row's window holds every node whose term may reach tau = 1e-3 tol / n (tol
the row's stopping tolerance, n nodes in the level; at level 0, the least
double), and each node left out adds tau to the row's error estimate, at most
1e-3 tol per level.  The bound is unimodal along the nodes, so it is read at
a few dozen of them, by products and sums alone.  Windows are widened to
powers of two, and the rows of one width are summed as one block: numpy sums
each row of a C-contiguous block pairwise, exactly as that row alone.

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
# Rows x nodes that one pass of a level takes on; rows beyond it go in further
# chunks.  64 cold matrix builds (2 vCPU host, least CPU time of 5, 3 rounds)
# took 0.36 s at 2^13, 0.30 s at 2^14, 0.27 s at 2^15, 0.28 s at 2^16 and
# 0.27 s at 2^17.
_MAX_BATCH = 1 << 15
# Past the first level a row leaves out the nodes whose terms are provably
# below this share of its stopping tolerance, divided by the level's node
# count, so that all of them together add at most 1e-3 of the tolerance.
_DROP_SHARE = 1e-3
# The pruning bound is a sum of a few logs and products of size up to ~1e3,
# rounded by ~1e-12; nodes are kept down to e^-2 of the bound.
_MASK_MARGIN = 2.0
# The pruning bound is read at this many nodes of a row, up to twice as many.
_MASK_SAMPLES = 64
# Level 0 has no tolerance yet; it leaves out only terms below the least double.
_TINY = float(np.finfo(float).smallest_subnormal)


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
        r, previous = np.sqrt(target + growth * np.log(r)), r
        if np.array_equal(r, previous):  # a fixed point: later steps repeat it
            break
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
    u = h k, |u| <= 6 (only odd k when ``odd``), y = (pi/2) sinh u, in node
    order: x = t/R, the weight factor cosh u sech^2 y, and for the pruning
    mask the log of that factor, log x and x^2.  x is written from the nearer
    endpoint, e^{-2|y|}/(1 + e^{-2|y|}) or 1/(1 + e^{-2|y|}), so that nodes
    close to 0 keep full relative precision.  Nodes where 1 + e^{-2|y|}
    rounds to 1 sit at t = R exactly, which the rule excludes, so they are
    left out; every other x lies in (0, 1), and R x in (0, R).  Read-only:
    the cache hands the same arrays to every caller."""
    k = int(math.floor(_U_MAX / h))
    index = np.arange(-k, k + 1)
    u = h * (index[index % 2 == 1] if odd else index)
    y = 0.5 * math.pi * np.sinh(u)
    ey = np.exp(-2.0 * np.abs(y))
    kept = (y < 0.0) | (1.0 + ey > 1.0)
    u, y, ey = u[kept], y[kept], ey[kept]
    x = np.where(y < 0.0, ey, 1.0) / (1.0 + ey)
    weight = np.cosh(u) * (4.0 * ey / (1.0 + ey) ** 2)
    arrays = (x, weight, np.log(weight), np.log(x), x * x)
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _level_sums(
    f: Callable, alpha: np.ndarray, cutoff: np.ndarray, h: float, odd: bool, floor: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One trapezoid pass of the tanh-sinh rule at step ``h`` (odd nodes only
    when ``odd``) for each row (alpha, cutoff): the sums, their L1 masses,
    which bound summation rounding, and the number of nodes each row left
    out.  Row i sums one window of nodes that holds every node whose weighted
    density w t^(alpha-1) e^{-t^2} may reach e^{floor_i} (all nodes when
    floor_i is -inf).  ``f`` is evaluated once, on the windows of all rows."""
    x, weight, log_weight, log_x, x_squared = _unit_nodes(h, odd)
    n = x.size
    scale = h * (cutoff / 2.0) * (0.5 * math.pi)
    # Along the nodes, g = log w + (alpha-1) log t - t^2 is unimodal: dg/du is
    # s' (p - q) with s = log t increasing, p = alpha - 1 - 2t^2 decreasing and
    # q = (tanh y - sinh u / (pi cosh^2 u)) / (1 - x) increasing.  So g is read
    # at every stride-th node, by products and sums alone: the nodes that reach
    # the floor lie strictly between the samples beside the first and the last
    # sample that reaches it (or that is highest, when none reaches it).
    stride = max(1, n // _MASK_SAMPLES)
    sampled = log_weight[::stride] + (alpha - 1.0)[:, None] * log_x[::stride]
    sampled -= (cutoff * cutoff)[:, None] * x_squared[::stride]
    lowest = floor - np.log(scale) - (alpha - 1.0) * np.log(cutoff)
    reach = sampled >= np.minimum(lowest, sampled.max(axis=1))[:, None]
    low = np.argmax(reach, axis=1)
    high = reach.shape[1] - 1 - np.argmax(reach[:, ::-1], axis=1)
    first = np.maximum((low - 1) * stride + 1, 0)
    span = np.minimum((high + 1) * stride, n) - first
    # Widths are powers of two (or all n nodes), so the rows form few blocks.
    width = np.minimum(np.left_shift(1, np.frexp(span - 1)[1]), n)
    first = np.minimum(first, n - width)
    # the windows of all rows, in order of width, as one flat run of nodes
    order = np.argsort(width, kind="stable")
    sizes = width[order]
    starts = np.cumsum(sizes) - sizes
    rows = np.repeat(order, sizes)
    nodes = np.repeat(first[order] - starts, sizes) + np.arange(sizes.sum())
    totals, masses = np.zeros(alpha.size, dtype=complex), np.zeros(alpha.size)
    # an overflowing sum is refused by the caller
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        t = cutoff[rows] * x[nodes]
        w = scale[rows] * weight[nodes]
        terms = w * np.exp((alpha[rows] - 1.0) * np.log(t) - t * t) * np.asarray(f(t))
        magnitudes = np.abs(terms)
        bounds = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist(), alpha.size]
        for a, b in zip(bounds, bounds[1:]):
            # the rows of one width form one C-contiguous block; numpy sums each
            # of its rows pairwise, as that row alone
            block = slice(starts[a], starts[a] + (b - a) * sizes[a])
            totals[order[a:b]] = np.add.reduce(terms[block].reshape(b - a, -1), axis=1)
            masses[order[a:b]] = np.add.reduce(magnitudes[block].reshape(b - a, -1), axis=1)
    return totals, masses, n - width


def gaussian_weighted_column(
    f: Callable,
    alphas,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    *,
    growth_exponent: float = 0.0,
    growth_constant: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, dict[int, AccuracyError]]:
    """I(f, alpha) for every alpha > 0 of a column, with absolute error
    estimates (inter-level difference + truncation-tail indicator + rounding
    floor + bound on the terms left out).

    Returns (values, errors, failures): complex values and float estimates
    per alpha, and {row: AccuracyError} for the rows whose refinement
    stalled (estimate attached) or whose level sum or L1 mass is not finite
    (infinite estimate: an infinite sum would pass the relative stopping
    test); a failed row's value and error are nan.

    ``f`` maps a 1-d array of points in (0, R) to real or complex values of
    the same shape, with |f(t)| <= growth_constant (1+t)^growth_exponent.
    Row i is integrated on (0, R_i], R_i the larger of ``spec.tail_cutoff``
    and ``tail_radius(alpha_i + growth_exponent)``.  A row with alpha >= 1
    leaves out the nodes whose terms that bound proves below tau: 1e-3 tol / n
    (n nodes in the level, tol the row's stopping tolerance at the level
    before), or the least double at level 0.  Its estimate gains
    dropped = dropped_before / 2 + n_dropped tau.  Deterministic for a fixed
    spec, and a row's result does not depend on the other rows of the
    column.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    bad = ~(np.isfinite(alphas) & (alphas > 0.0))
    if bad.any():
        raise DomainError(
            f"exponent alpha must be finite and > 0, got {float(alphas[np.argmax(bad)])!r}"
        )
    if not (math.isfinite(growth_constant) and growth_constant > 0.0):
        raise DomainError(f"growth_constant must be finite and positive, got {growth_constant!r}")
    exponents = alphas + growth_exponent
    cutoff = np.maximum(spec.tail_cutoff, tail_radius(exponents, spec.abs_tol))
    # Indicator of the discarded tail beyond R for the declared growth bound
    # C (1+t)^gamma: C R^(alpha+gamma) e^(-R^2).
    tail_log = math.log(growth_constant) + exponents * np.log(cutoff) - cutoff * cutoff
    tail_bound = np.where(tail_log < 700.0, np.exp(np.minimum(tail_log, 700.0)), np.inf)
    # log of the growth bound C (1+R)^gamma of f on (0, R], plus the margin left
    # for the rounding of the pruning mask; rows with alpha < 1 keep every node.
    growth_log = math.log(growth_constant) + growth_exponent * np.log1p(cutoff) + _MASK_MARGIN
    growth_log[alphas < 1.0] = np.inf

    values = np.full(alphas.size, np.nan, dtype=complex)
    errors = np.full(alphas.size, np.nan)
    failures: dict[int, AccuracyError] = {}
    previous, previous_mass = np.zeros(alphas.size, dtype=complex), np.zeros(alphas.size)
    estimate, dropped = np.full(alphas.size, np.inf), np.zeros(alphas.size)
    active = np.arange(alphas.size)
    eps = float(np.finfo(float).eps)
    h = 2.0 * _U_MAX / spec.node_count
    for level in range(_MAX_REFINEMENTS + 1):
        if not active.size:
            break
        # Halving h keeps the old nodes exactly: past level 0, sum the new (odd)
        # nodes and add half the previous sum.
        nodes = _unit_nodes(h, level > 0)[0].size
        # the bound each left-out term stays below
        tolerance = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(previous[active]))
        tau = tolerance * (_DROP_SHARE / nodes) if level else np.full(active.size, _TINY)
        floor = np.log(tau) - growth_log[active]
        step = max(1, _MAX_BATCH // nodes)
        cuts = range(step, active.size, step)
        chunks = [
            _level_sums(f, alphas[rows], cutoff[rows], h, level > 0, part)
            for rows, part in zip(np.split(active, cuts), np.split(floor, cuts))
        ]
        sums, masses, left_out = (np.concatenate(part) for part in zip(*chunks))
        current, l1_mass = 0.5 * previous[active] + sums, 0.5 * previous_mass[active] + masses
        dropped[active] = 0.5 * dropped[active] + left_out * tau
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
        estimate[active] = diff + tail_bound[active] + rounding + dropped[active]
        tolerance = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(current))
        done = finite & (level > 0) & (diff <= tolerance)  # level 0 has no level to agree with
        values[active[done]] = current[done]
        errors[active[done]] = estimate[active[done]]
        previous[active], previous_mass[active] = current, l1_mass
        active = active[finite & ~done]
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
    growth_constant: float = 1.0,
) -> tuple[complex, float]:
    """I(f, alpha) for alpha > 0 and its absolute error estimate: the
    one-alpha :func:`gaussian_weighted_column`, whose failure it raises."""
    values, errors, failures = gaussian_weighted_column(
        f, [alpha], spec, growth_exponent=growth_exponent, growth_constant=growth_constant
    )
    if failures:
        raise failures[0]
    return complex(values[0]), float(errors[0])
