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
the row's stopping tolerance, n nodes in the level), and each node left out
adds tau to the row's error estimate, at most 1e-3 tol per level.  The first
level has no sum to take tol from: it takes the tol of a tenth of the row's
trial magnitude, |f(t*)| times the weight's mass Gamma(alpha/2) / 2 (by
Laplace's estimate), t* the peak of the weight, and a row whose own first
sum gives a smaller tol is summed again with tol = abs_tol.  The bound is
unimodal along the nodes, so it is read by products and sums alone on a
grid of 74 points, once per row for all its levels.  Windows are widened to
multiples of 32 nodes, and the rows
of one width are summed in C-contiguous (rows, width) blocks of at most
_MAX_BATCH nodes (one row when its window alone is wider), the integrand
evaluated once per block: numpy sums each row of such a block pairwise,
exactly as that row alone.  The columns of several integrands are one such
pass too, its rows tagged by integrand and its blocks grouped by
(integrand, width).

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
# beyond it go in further blocks.  Timed on the lists of 16 matrix-build
# requests (perfbench matrix-build seeds 7 and 8, 32 lists each, build and
# export; 2 vCPU host, both values in one process, lists interleaved), the
# requests took 1.1-4.6% longer in all at 2^14 than at 2^15, -0.7-2.2% at
# 2^16 and 0.2-2.6% at 2^17.
_MAX_BATCH = 1 << 15
# Windows are widened to multiples of this many nodes (or all of a level's), so
# that the rows form few blocks.  The rows of matrix-build seed 1, lists 0-7,
# summed 2.98, 3.36 and 4.36 M nodes at 16, 32 and 64 (5.40 M at powers of two);
# the quadrature passes of the builds of seed 5, lists 0-15, took 1.5% longer
# at 16 (more blocks) and 1.2% longer at 64 than at 32 (least CPU of 9 rounds).
_WIDTH_STEP = 32
# The first level's tolerance is the one this share of a row's trial magnitude
# would give; a row whose sum is smaller than that share of it is summed again.
# The rows above summed 3.38, 3.36 and 3.35 M nodes at 0.01, 0.1 and 1, and 31
# were summed again at 1, none at 0.1; their quadrature passes took within 1%
# of each other's time (least CPU of 9 rounds).
_TRIAL_SHARE = 0.1
# A row leaves out the nodes whose terms are provably below this share of its
# stopping tolerance, divided by the level's node count, so that all of them
# together add at most 1e-3 of the tolerance.
_DROP_SHARE = 1e-3
# The pruning bound is a sum of a few logs and products of size up to ~1e3,
# rounded by ~1e-12; nodes are kept down to e^-2 of the bound.
_MASK_MARGIN = 2.0
# The pruning bound is read on the nodes of the rule of this step (u = k/8,
# 74 of them), once per row for all its levels: at the default rule's first
# level they are every 4th node.  The rows of matrix-build seed 1, lists 0-7,
# summed 3.34, 3.36, 3.63 and 3.80 M nodes at steps 1/16, 1/8, 3/16 and 1/4;
# their level-sum passes took 18% longer at 1/16 and about as long at 1/4.
_MASK_STEP = 0.125


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
    order: x = t/R, the weight factor cosh u sech^2 y and u.  x is written
    from the nearer
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
    arrays = (x, weight, u)
    for array in arrays:
        array.setflags(write=False)
    return arrays


@lru_cache(maxsize=1)
def _mask_grid() -> tuple:
    """The pruning mask's grid, the nodes of the step-_MASK_STEP rule: the log
    of their weight factor, log x and x^2, then their u after -inf and their u
    from the last after inf, which the first sample that reaches a floor, or
    the last one counted from the end, index to the sample beside it."""
    x, weight, u = _unit_nodes(_MASK_STEP)
    after = np.concatenate(([np.inf], u[::-1]))
    return np.log(weight), np.log(x), x * x, np.concatenate(([-np.inf], u)), after


def _mask_samples(alpha: np.ndarray, cutoff: np.ndarray) -> np.ndarray:
    """Each row's pruning bound read on the mask grid: log w + (alpha-1) log x
    - (R x)^2, the log of its term bound but for the terms that do not depend
    on the node or that vary with the level."""
    log_weight, log_x, x_squared = _mask_grid()[:3]
    sampled = log_weight + (alpha - 1.0)[:, None] * log_x
    sampled -= (cutoff * cutoff)[:, None] * x_squared
    return sampled


def _windows(a: np.ndarray, size: int) -> np.ndarray:
    """The windows a[i : i + size] of a read-only 1-d array as the rows of a
    read-only view: numpy's ``sliding_window_view`` without its checks, which
    cost more than the gather of a block's windows."""
    return np.ndarray((a.size - size + 1, size), a.dtype, a, 0, a.strides * 2)


class _EvaluatorFailure(Exception):
    """An integrand raised, its exception the ``__cause__``, on the points of
    row ``args[0]`` of :func:`_level_sums` (on its block, if none raises alone)."""


def _by_row(f, points: np.ndarray, exc: Exception) -> tuple[list, int, Exception]:
    """``pointwise(f, row)`` of each row alone until one raises, that row and what it
    raised; or [], 0 and ``exc``, what the rows raised together, if none does."""
    values = []
    for row in points:
        try:
            values.append(pointwise(f, row))
        except Exception as raised:
            return values, len(values), raised
    return [], 0, exc


def _level_sums(
    f, alpha: np.ndarray, cutoff: np.ndarray, h: float, odd: bool, floor: np.ndarray,
    sampled: np.ndarray, part=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One trapezoid pass of the tanh-sinh rule at step ``h`` (odd nodes only
    when ``odd``) for each row (alpha, cutoff): the sums, their L1 masses,
    which bound summation rounding, and the number of nodes each row left
    out.  Row i sums one window of nodes that holds every node whose weighted
    density w t^(alpha-1) e^{-t^2} may reach e^{floor_i} (all nodes when
    floor_i is -inf), found from its bound on the mask grid, ``sampled[i]``
    (``_mask_samples(alpha, cutoff)``, which a caller that sums the same
    rows at several levels forms once).  Row i integrates ``f``, or
    ``f[part[i]]`` when the rows carry a ``part`` each; the integrand is
    evaluated once per block of rows of one part and one width, on at most
    _MAX_BATCH points but for one row whose window is wider.  An integrand
    that raises on a block is reported as an :class:`_EvaluatorFailure` at
    the block's first row that raises alone (``_by_row``).  Once a part's
    rows hold an L1 mass that is not finite, the blocks of later parts are
    left unsummed (sum and mass 0): their rows come after a row that the
    caller refuses."""
    x, weight, u = _unit_nodes(h, odd)
    n = x.size
    scale = h * (cutoff / 2.0) * (0.5 * math.pi)
    # Along the nodes, g = log w + (alpha-1) log t - t^2 is unimodal: dg/du is
    # s' (p - q) with s = log t increasing, p = alpha - 1 - 2t^2 decreasing and
    # q = (tanh y - sinh u / (pi cosh^2 u)) / (1 - x) increasing.  So g is read
    # on a grid of u, by products and sums alone: the nodes that reach the floor
    # lie strictly between the samples beside the first and the last sample
    # that reaches it (or that is highest, when none reaches it), for blocks of
    # rows that read at most _MAX_BATCH samples.  A window may hold no node of
    # a coarse level.
    before, after = _mask_grid()[3:]
    lowest = floor - np.log(scale) - (alpha - 1.0) * np.log(cutoff)
    first, end = np.empty((2, alpha.size), dtype=int)
    step = max(1, _MAX_BATCH // sampled.shape[1])
    for start in range(0, alpha.size, step):
        rows = slice(start, start + step)
        block = sampled[rows]
        reach = block >= np.minimum(lowest[rows], block.max(axis=1))[:, None]
        first[rows] = np.searchsorted(u, before[np.argmax(reach, axis=1)], "right")
        end[rows] = np.searchsorted(u, after[np.argmax(reach[:, ::-1], axis=1)], "left")
    # Widths are multiples of _WIDTH_STEP (or all n nodes), so the rows form few blocks.
    width = np.minimum((end - first + (_WIDTH_STEP - 1)) // _WIDTH_STEP * _WIDTH_STEP, n)
    first = np.minimum(first, n - width)
    integrands, part = ((f,), np.zeros(alpha.size, dtype=int)) if part is None else (f, part)
    # the rows by part, then width, so that each block reads slices
    key = part * (n + 1) + width
    order = np.argsort(key, kind="stable")
    key = key[order]
    bounds = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), alpha.size]
    first, cutoff, scale, exponent = first[order], cutoff[order], scale[order], alpha[order] - 1.0
    totals, masses = np.zeros(alpha.size, dtype=complex), np.zeros(alpha.size)
    tag, since = None, 0
    # an overflowing sum is refused by the caller
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        for lo, hi in zip(bounds, bounds[1:]):
            p, size = divmod(int(key[lo]), n + 1)
            if p != tag:  # blocks come in part order
                if not np.isfinite(masses[since:lo]).all():
                    break  # the caller refuses a row of the part before
                tag, since = p, lo
            if not size:
                continue  # no node of the level lies between the samples
            step = max(1, _MAX_BATCH // size)
            x_windows, weight_windows = _windows(x, size), _windows(weight, size)
            for start in range(lo, hi, step):
                # the windows of these rows as one C-contiguous block; numpy sums
                # each of its rows pairwise, as that row alone
                rows = slice(start, min(start + step, hi))
                t = x_windows[first[rows]]
                t *= cutoff[rows, None]
                w = weight_windows[first[rows]]
                w *= scale[rows, None]
                density = np.log(t)
                density *= exponent[rows, None]
                density -= t * t
                w *= np.exp(density, out=density)
                try:
                    values = pointwise(integrands[p], t.reshape(-1))
                except Exception as exc:
                    _, row, exc = _by_row(integrands[p], t, exc)
                    raise _EvaluatorFailure(order[start + row]) from exc
                terms = w * values.reshape(t.shape)
                totals[rows] = np.add.reduce(terms, axis=1)
                masses[rows] = np.add.reduce(np.abs(terms), axis=1)
    unordered = np.empty_like(order)
    unordered[order] = np.arange(order.size)
    return totals[unordered], masses[unordered], n - width


def gaussian_weighted_column(
    f: Callable,
    alphas,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    *,
    growth_exponent: float = 0.0,
    growth_constant: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
    """I(f, alpha) for every alpha > 0 of a column, with absolute error
    estimates (inter-level difference + truncation-tail indicator + rounding
    floor + bound on the terms left out).

    Returns (values, errors, failures): complex values and float estimates
    per alpha, and {row: failure} from the first failed row on, after which
    the column stops (a later row stays nan unless it converged before): an
    :class:`AccuracyError` for a stalled refinement (estimate attached) or a
    level sum or L1 mass that is not finite (infinite estimate: an infinite
    sum would pass the relative stopping test), or what ``f`` raised on the
    row's own points (or on a block of rows starting at the row, when none
    raises alone); a failed row's value and error are nan.

    ``f`` maps a 1-d array of points in (0, R) to real or complex values of
    the same shape (other shapes are refused), with |f(t)| <= growth_constant
    (1+t)^growth_exponent, growth_exponent finite and >= 0.
    Row i is integrated on (0, R_i], R_i the larger of ``spec.tail_cutoff``
    and ``tail_radius(alpha_i + growth_exponent)``.  A row with alpha >= 1
    leaves out the nodes whose terms that bound proves below tau: 1e-3 tol / n
    (n nodes in the level, tol the row's stopping tolerance at the level
    before; at the first level the one that a tenth of the row's trial
    magnitude gives, |f(t*)| sqrt(pi/2) t*^(alpha-1) e^(-t*^2) with
    t* = sqrt((alpha-1)/2), or abs_tol when alpha <= 1, the trial is not
    finite or the row's own sum gives a smaller one).  Its estimate gains
    dropped = dropped_before / 2 + n_dropped tau.  Deterministic for a fixed
    spec, and a row's result does not depend on the other rows of the
    column.
    """
    return gaussian_weighted_columns([(f, alphas, growth_exponent, growth_constant)], spec)[0]


def gaussian_weighted_columns(
    parts, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> list[tuple[np.ndarray, np.ndarray, dict[int, Exception]]]:
    """:func:`gaussian_weighted_column` of each part (f, alphas, growth_exponent,
    growth_constant), bit for bit, in one pass: one ``tail_radius`` call, one
    integrand call per part on its rows' peaks and, per level, one
    ``_level_sums`` call over every part's rows (a second one at the first
    level for the rows summed again).  The pass stops at the first failed
    row in part order: the later parts' rows are summed at no later level,
    nor in the level where a sum overflows, and the list ends at the part
    holding the first failure.
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
    integrands = tuple(f for f, *_ in parts)
    # one integrand is passed alone, several with the part of each row
    integrand = integrands if len(parts) > 1 else integrands[0]
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
    sampled = _mask_samples(alphas, cutoff)

    values = np.full(alphas.size, np.nan, dtype=complex)
    errors = np.full(alphas.size, np.nan)
    failures: dict[int, Exception] = {}
    active = np.arange(alphas.size)
    # The first level has no sum to take its tolerance from, so it takes a share
    # of the trial magnitude |f(t*)| M, M = Gamma(alpha/2) / 2 the weight's mass,
    # formed in logs by Laplace's estimate sqrt(pi/2) t*^(alpha-1) e^(-t*^2): it
    # is high by at most sqrt(2) (at alpha -> 1), and an lgamma per row took 2-3%
    # of a matrix-build list.
    peak = np.zeros(alphas.size)  # |f(t*)|, 0 where alpha <= 1
    for p, f in enumerate(integrands):
        rows = np.flatnonzero((part == p) & (alphas > 1.0))
        if not rows.size:
            continue
        points = np.sqrt(0.5 * (alphas[rows] - 1.0))
        try:
            peak[rows] = np.abs(pointwise(f, points))
        except Exception as exc:  # the rows before the one that raises are summed
            before, i, exc = _by_row(f, points[:, None], exc)
            peak[rows[:i]] = np.abs(before).reshape(-1)
            failures[int(rows[i])] = exc
            active = active[active < rows[i]]
            break

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        half = 0.5 * (alphas - 1.0)  # t*^2
        log_mass = half * (np.log(half) - 1.0) + 0.5 * math.log(0.5 * math.pi)
        trial = np.exp(np.log(peak) + log_mass)
    guess = np.where(np.isfinite(trial), _TRIAL_SHARE * trial, 0.0)
    previous, previous_mass = np.zeros(alphas.size, dtype=complex), np.zeros(alphas.size)
    estimate, dropped = np.full(alphas.size, np.inf), np.zeros(alphas.size)
    eps = float(np.finfo(float).eps)
    h, first = 2.0 * _U_MAX / spec.node_count, 0
    while h > _FIRST_STEP and first < _MAX_REFINEMENTS - 1:
        h, first = 0.5 * h, first + 1
    for level in range(first, _MAX_REFINEMENTS + 1):
        # Halving h keeps the old nodes exactly: past the first level, sum the new
        # (odd) nodes and add half the previous sum.
        odd = level > first
        nodes = _unit_nodes(h, odd)[0].size

        def summed(rows, tau):
            """``_level_sums`` of ``rows`` (indices) pruned against ``tau``; an
            integrand's failure names its row."""
            tags = [part[rows]] if len(parts) > 1 else []
            floor = np.log(tau) - growth_log[rows]
            try:
                return _level_sums(
                    integrand, alphas[rows], cutoff[rows], h, odd, floor, sampled[rows], *tags
                )
            except _EvaluatorFailure as failure:
                raise _EvaluatorFailure(int(rows[failure.args[0]])) from failure.__cause__

        while active.size:  # once more without the rows from a failed one on
            # the tolerance that sets the bound tau each left-out term stays below
            tolerance = np.abs(previous[active]) if odd else guess[active]
            tolerance = np.maximum(spec.abs_tol, spec.rel_tol * tolerance)
            tau = tolerance * (_DROP_SHARE / nodes)
            try:
                sums, masses, left_out = summed(active, tau)
                if not odd:
                    # A row whose own first sum gives a smaller tolerance is summed
                    # again at abs_tol, but none after a sum that is not finite: more
                    # nodes would not make it finite, and a later part may be unsummed.
                    again = tolerance > np.maximum(spec.abs_tol, spec.rel_tol * np.abs(sums))
                    again &= ~np.logical_or.accumulate(~(np.isfinite(sums) & np.isfinite(masses)))
                    if again.any():
                        tau[again] = spec.abs_tol * (_DROP_SHARE / nodes)
                        summed_again = summed(active[again], tau[again])
                        sums[again], masses[again], left_out[again] = summed_again
                break
            except _EvaluatorFailure as failure:
                row = failure.args[0]
                failures[row] = failure.__cause__
                active = active[active < row]
        else:  # no row left
            break
        before = previous[active]
        current, l1_mass = 0.5 * before + sums, 0.5 * previous_mass[active] + masses
        dropped[active] = 0.5 * dropped[active] + left_out * tau
        h *= 0.5
        finite = np.isfinite(current) & np.isfinite(l1_mass)
        for row in active[~finite].tolist():
            failures[row] = AccuracyError(
                "quadrature level sum is not finite (overflows double range) "
                f"for alpha={alphas[row]:g}",
                estimate=math.inf,
            )
        diff = np.abs(current - before)
        # Summation rounding scales with the L1 mass.  Nesting rounds once more per
        # level; later levels halve it, so it adds < 2 eps * mass, inside the 8 eps.
        rounding = (8.0 + math.sqrt(spec.node_count * 2**level)) * eps * l1_mass
        estimate[active] = diff + tail_bound[active] + rounding + dropped[active]
        previous[active], previous_mass[active] = current, l1_mass
        if odd:  # the first level has none to agree with
            done = finite & (diff <= np.maximum(spec.abs_tol, spec.rel_tol * np.abs(current)))
            rows = active[done]
            values[rows], errors[rows] = current[done], estimate[rows]
            finite &= ~done
        active = active[finite]
        if failures:
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
        if failed:
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
