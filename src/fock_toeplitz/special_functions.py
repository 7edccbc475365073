"""Gamma evaluation and Gaussian-weighted quadrature on the half-line.

Every integral in this package reduces to

    I(f, alpha) = int_0^inf f(t) exp(-t^2) t^(alpha-1) dt,

evaluated here by tanh-sinh (double-exponential) quadrature on a truncated
interval (0, R].  The truncation radius R is tied to the exponent in play:
R is chosen so that exp(-R^2) * R^alpha falls below the absolute tolerance,
which makes the dropped tail negligible for any integrand of declared
polynomial growth.  Refinement halves the step, from the first h <= 1/32 of
the ladder h_k = 12 / node_count / 2^k, k <= 8 (each level evaluates only its
new, odd-index nodes) until two consecutive levels agree within tolerance;
the last inter-level difference is the reported error estimate.

A whole column of exponents is one vectorised pass per level: the integrand
is evaluated on one window of nodes per row, and each row keeps its own
radius, stopping rule and error estimate, so a row's result does not depend
on the rows beside it.  Under the declared growth bound |f(t)| <= C (1+t)^m,
a row's window holds every node whose term may reach tau = 1e-3 tol / n (tol
the row's stopping tolerance, abs_tol at the first level; n nodes in the
level), and each node left out adds tau to the row's error estimate, at most
1e-3 tol per level.  The bound is unimodal along the nodes, so it is read at
a few dozen of them, by products and sums alone.  Windows are widened to
powers of two, and the rows of one width are summed in C-contiguous (rows,
width) blocks of at most _MAX_BATCH nodes (one row when its window alone is
wider), the integrand evaluated once per block: numpy sums each row of such
a block pairwise, exactly as that row alone.  The columns of several
integrands are one such pass too, its rows tagged by integrand and its
blocks grouped by (integrand, width).

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import itertools
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
    "gaussian_weighted_columns",
    "gaussian_weighted_integral_with_estimate",
    "tail_radius",
]

# Transformed half-width: weights underflow to zero well inside |u| <= 6.
_U_MAX = 6.0
# Levels take the steps h_k = 12 / node_count / 2^k, k <= _MAX_REFINEMENTS, from
# the first h_k <= _FIRST_STEP (coarser sums are not where rows stop), k <= 7.
_MAX_REFINEMENTS = 8
_FIRST_STEP = 1.0 / 32.0
# Largest node_count a spec accepts: the last level then spans 2.6e5 nodes.
MAX_NODE_COUNT = 1024
# Rows x window width that one block of a level sums; the rows of one width
# beyond it go in further blocks.  The level sums of 128 matrix builds (perfbench
# matrix-build seed 1, lists 0-7; 2 vCPU host, least CPU time of 7 rounds) took
# 0.177 s at 2^13, 0.172 s at 2^14, 0.171 s at 2^15, 0.172 s at 2^16 and 2^17.
_MAX_BATCH = 1 << 15
# A row leaves out the nodes whose terms are provably below this share of its
# stopping tolerance, divided by the level's node count, so that all of them
# together add at most 1e-3 of the tolerance.
_DROP_SHARE = 1e-3
# The pruning bound is a sum of a few logs and products of size up to ~1e3,
# rounded by ~1e-12; nodes are kept down to e^-2 of the bound.
_MASK_MARGIN = 2.0
# The pruning bound is read at this many nodes of a row, up to twice as many.
_MASK_SAMPLES = 64


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
        if (r == previous).all():  # a fixed point: later steps repeat it
            break
    return r


def pointwise(f: Callable, points: np.ndarray) -> np.ndarray:
    """``f(points)`` as an array, refused unless it holds one value per point."""
    values = np.asarray(f(points))
    if values.shape != points.shape:
        shapes = f"shape {values.shape} for points of shape {points.shape}"
        raise DomainError(f"evaluator returned {shapes}")
    return values


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
        node_count: int = node_count,
        abs_tol: float = abs_tol,
        rel_tol: float = rel_tol,
    ) -> "QuadratureSpec":
        """Spec whose truncation radius covers exponents up to ``alpha_max``;
        the other controls default to the fields' defaults above."""
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


class _EvaluatorFailure(Exception):
    """An integrand raised, its exception the ``__cause__``, on the block of
    :func:`_level_sums` whose first row is ``args[0]``."""


class _Stopping(tuple):
    """The integrands of a pass that refuses at its first failed row in part
    order, so that ``_level_sums`` leaves later parts unsummed."""


def _level_sums(
    f, alpha: np.ndarray, cutoff: np.ndarray, h: float, odd: bool, floor: np.ndarray, part=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One trapezoid pass of the tanh-sinh rule at step ``h`` (odd nodes only
    when ``odd``) for each row (alpha, cutoff): the sums, their L1 masses,
    which bound summation rounding, and the number of nodes each row left
    out.  Row i sums one window of nodes that holds every node whose weighted
    density w t^(alpha-1) e^{-t^2} may reach e^{floor_i} (all nodes when
    floor_i is -inf).  Row i integrates ``f``, or ``f[part[i]]`` when the
    rows carry a ``part`` each; the integrand is evaluated once per block of
    rows of one part and one width, on at most _MAX_BATCH points but for one
    row whose window is wider.  An integrand that raises is reported as an
    :class:`_EvaluatorFailure` at its block's first row.  When ``f`` is
    :class:`_Stopping`, once a block's sum or mass is not finite, the blocks
    of later parts are left unsummed (sum and mass 0): their rows come after
    a row that the caller refuses."""
    x, weight, log_weight, log_x, x_squared = _unit_nodes(h, odd)
    n = x.size
    scale = h * (cutoff / 2.0) * (0.5 * math.pi)
    # Along the nodes, g = log w + (alpha-1) log t - t^2 is unimodal: dg/du is
    # s' (p - q) with s = log t increasing, p = alpha - 1 - 2t^2 decreasing and
    # q = (tanh y - sinh u / (pi cosh^2 u)) / (1 - x) increasing.  So g is read
    # at every stride-th node, by products and sums alone: the nodes that reach
    # the floor lie strictly between the samples beside the first and the last
    # sample that reaches it (or that is highest, when none reaches it), for
    # blocks of rows that read at most _MAX_BATCH samples.
    stride = max(1, n // _MASK_SAMPLES)
    lowest = floor - np.log(scale) - (alpha - 1.0) * np.log(cutoff)
    first, span = np.empty((2, alpha.size), dtype=int)
    step = max(1, _MAX_BATCH // log_x[::stride].size)
    for start in range(0, alpha.size, step):
        rows = slice(start, start + step)
        sampled = log_weight[::stride] + (alpha[rows] - 1.0)[:, None] * log_x[::stride]
        sampled -= (cutoff[rows] * cutoff[rows])[:, None] * x_squared[::stride]
        reach = sampled >= np.minimum(lowest[rows], sampled.max(axis=1))[:, None]
        low = np.argmax(reach, axis=1)
        high = reach.shape[1] - 1 - np.argmax(reach[:, ::-1], axis=1)
        first[rows] = np.maximum((low - 1) * stride + 1, 0)
        span[rows] = np.minimum((high + 1) * stride, n) - first[rows]
    # Widths are powers of two (or all n nodes), so the rows form few blocks.
    width = np.minimum(np.left_shift(1, np.frexp(span - 1)[1]), n)
    first = np.minimum(first, n - width)
    totals, masses = np.zeros(alpha.size, dtype=complex), np.zeros(alpha.size)
    integrands, part = ((f,), np.zeros(alpha.size, dtype=int)) if part is None else (f, part)
    order = np.lexsort((width, part))
    groups = np.flatnonzero(np.diff(width[order]) | np.diff(part[order])) + 1
    failed_part = None
    # an overflowing sum is refused by the caller
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        for group in np.split(order, groups):
            if failed_part is not None and part[group[0]] != failed_part:
                break  # blocks come in part order
            size = int(width[group[0]])
            integrand = integrands[part[group[0]]]
            step = max(1, _MAX_BATCH // size)
            for start in range(0, group.size, step):
                # the windows of these rows as one C-contiguous block; numpy sums
                # each of its rows pairwise, as that row alone
                rows = group[start : start + step]
                nodes = first[rows][:, None] + np.arange(size)
                t = x[nodes]
                t *= cutoff[rows][:, None]
                w = weight[nodes]
                w *= scale[rows][:, None]
                density = np.log(t)
                density *= (alpha[rows] - 1.0)[:, None]
                density -= t * t
                w *= np.exp(density, out=density)
                try:
                    values = pointwise(integrand, t.reshape(-1))
                except Exception as exc:
                    raise _EvaluatorFailure(rows[0]) from exc
                terms = w * values.reshape(t.shape)
                totals[rows] = np.add.reduce(terms, axis=1)
                masses[rows] = np.add.reduce(np.abs(terms), axis=1)
                if isinstance(f, _Stopping) and not (
                    np.isfinite(totals[rows]).all() and np.isfinite(masses[rows]).all()
                ):  # the caller refuses a row of this part
                    failed_part = part[group[0]]
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
    the same shape (other shapes are refused), with |f(t)| <= growth_constant
    (1+t)^growth_exponent, growth_exponent finite and >= 0.
    Row i is integrated on (0, R_i], R_i the larger of ``spec.tail_cutoff``
    and ``tail_radius(alpha_i + growth_exponent)``.  A row with alpha >= 1
    leaves out the nodes whose terms that bound proves below tau: 1e-3 tol / n
    (n nodes in the level, tol the row's stopping tolerance at the level
    before, abs_tol at the first level).  Its estimate gains
    dropped = dropped_before / 2 + n_dropped tau.  Deterministic for a fixed
    spec, and a row's result does not depend on the other rows of the
    column.
    """
    return gaussian_weighted_columns([(f, alphas, growth_exponent, growth_constant)], spec)[0]


def gaussian_weighted_columns(
    parts, spec: QuadratureSpec = DEFAULT_QUADRATURE, *, first_failure: bool = False
) -> list[tuple[np.ndarray, np.ndarray, dict[int, Exception]]]:
    """:func:`gaussian_weighted_column` of each part (f, alphas, growth_exponent,
    growth_constant), bit for bit, in one pass: one ``tail_radius`` call and,
    per level, one ``_level_sums`` call over every part's rows.  With
    ``first_failure``, for a caller that refuses at the first failed row in
    part order, a row after a failed one is summed at no later level (its
    value stays nan), nor are the later parts' rows in the level where a
    sum overflows, the list ends at the part holding the first failure,
    and an integrand that raises fails its block's first row with what it
    raised, instead of raising it.
    """
    columns = []
    for _, alphas, growth_exponent, growth_constant in parts:
        alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
        bad = ~(np.isfinite(alphas) & (alphas > 0.0))
        if bad.any():
            raise DomainError(
                f"exponent alpha must be finite and > 0, got {float(alphas[np.argmax(bad)])!r}"
            )
        if not (math.isfinite(growth_exponent) and growth_exponent >= 0.0):
            raise DomainError(f"growth_exponent must be finite and >= 0, got {growth_exponent!r}")
        if not (math.isfinite(growth_constant) and growth_constant > 0.0):
            raise DomainError(f"growth_constant must be finite and positive, got {growth_constant!r}")
        columns.append(alphas)
    sizes = [alphas.size for alphas in columns]
    part, alphas = np.repeat(np.arange(len(parts)), sizes), np.concatenate(columns)
    growth_exponent, log_constant = np.array([(g, math.log(c)) for *_, g, c in parts]).T[:, part]
    # one integrand is passed alone, several with the part of each row
    integrands = (_Stopping if first_failure else tuple)(f for f, *_ in parts)
    integrand = integrands if len(parts) > 1 else parts[0][0]
    exponents = alphas + growth_exponent
    cutoff = np.maximum(spec.tail_cutoff, tail_radius(exponents, spec.abs_tol))
    # Indicator of the discarded tail beyond R for the declared growth bound
    # C (1+t)^gamma: C R^(alpha+gamma) e^(-R^2).
    tail_log = log_constant + exponents * np.log(cutoff) - cutoff * cutoff
    tail_bound = np.where(tail_log < 700.0, np.exp(np.minimum(tail_log, 700.0)), np.inf)
    # log of the growth bound C (1+R)^gamma of f on (0, R], plus the margin left
    # for the rounding of the pruning mask; rows with alpha < 1 keep every node.
    growth_log = log_constant + growth_exponent * np.log1p(cutoff) + _MASK_MARGIN
    growth_log[alphas < 1.0] = np.inf

    values = np.full(alphas.size, np.nan, dtype=complex)
    errors = np.full(alphas.size, np.nan)
    failures: dict[int, Exception] = {}
    previous, previous_mass = np.zeros(alphas.size, dtype=complex), np.zeros(alphas.size)
    estimate, dropped = np.full(alphas.size, np.inf), np.zeros(alphas.size)
    active = np.arange(alphas.size)
    eps = float(np.finfo(float).eps)
    h, first = 2.0 * _U_MAX / spec.node_count, 0
    while h > _FIRST_STEP and first < _MAX_REFINEMENTS - 1:
        h, first = 0.5 * h, first + 1
    for level in range(first, _MAX_REFINEMENTS + 1):
        # Halving h keeps the old nodes exactly: past the first level, sum the new
        # (odd) nodes and add half the previous sum.
        nodes = _unit_nodes(h, level > first)[0].size
        while active.size:  # once more without the rows an integrand failed on
            # the bound each left-out term stays below (abs_tol's share at the first level)
            tolerance = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(previous[active]))
            tau = tolerance * (_DROP_SHARE / nodes)
            floor = np.log(tau) - growth_log[active]
            rows = (alphas[active], cutoff[active], h, level > first, floor)
            tags = [part[active]] if len(parts) > 1 else []
            try:
                sums, masses, left_out = _level_sums(integrand, *rows, *tags)
                break
            except _EvaluatorFailure as failure:
                row, raised = int(active[failure.args[0]]), failure.__cause__
            if not first_failure:
                raise raised
            failures[row] = raised
            active = active[active < row]
        else:  # no row left
            break
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
        done = finite & (level > first) & (diff <= tolerance)  # the first has none to agree with
        values[active[done]] = current[done]
        errors[active[done]] = estimate[active[done]]
        previous[active], previous_mass[active] = current, l1_mass
        active = active[finite & ~done]
        if first_failure and failures:
            active = active[active < min(failures)]
    for row in active.tolist():
        failures[row] = AccuracyError(
            f"quadrature did not reach tolerance (abs_tol={spec.abs_tol:g}, "
            f"rel_tol={spec.rel_tol:g}) for alpha={alphas[row]:g}: "
            f"error estimate {estimate[row]:.3e} after {_MAX_REFINEMENTS} refinements",
            estimate=float(estimate[row]),
        )
    results, lo = [], 0
    for hi in itertools.accumulate(sizes):
        failed = {row - lo: failures[row] for row in sorted(failures) if lo <= row < hi}
        results.append((values[lo:hi], errors[lo:hi], failed))
        lo = hi
        if first_failure and failed:
            break
    return results


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
