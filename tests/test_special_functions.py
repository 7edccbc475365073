import cmath
import contextlib
import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fock_toeplitz.special_functions as special_functions
from fock_toeplitz.errors import AccuracyError, DomainError
from fock_toeplitz.special_functions import (
    DEFAULT_QUADRATURE,
    MAX_NODE_COUNT,
    QuadratureSpec,
    gaussian_weighted_column,
    gaussian_weighted_columns,
    gaussian_weighted_integral_with_estimate,
    log_gamma,
    tail_radius,
)

WIDE = QuadratureSpec.for_exponent(92.0)
RAGGED = QuadratureSpec(node_count=8, tail_cutoff=8.0, abs_tol=1e-15, rel_tol=1e-15)


# -- the scalar reference path: one tanh-sinh level sum per call, per alpha --


def reference_tail_radius(alpha_max, abs_tol):
    target = math.log(10.0 / abs_tol) + 0.1
    r = max(2.0, math.sqrt(max(alpha_max, 1.0)))
    for _ in range(64):
        r = math.sqrt(target + max(alpha_max, 0.0) * math.log(r))
    return r


def reference_nodes(h, odd=False):
    """u, x = t/R and the weight factor cosh u sech^2 y of the tanh-sinh nodes
    at step h, |u| <= 6, or of the odd-index ones only."""
    k = int(math.floor(6.0 / h))
    index = np.arange(-k, k + 1)
    u = h * (index[index % 2 == 1] if odd else index)
    y = 0.5 * math.pi * np.sinh(u)
    ey = np.exp(-2.0 * np.abs(y))
    kept = (y < 0.0) | (1.0 + ey > 1.0)  # the others would sit at t = cutoff
    u, y, ey = u[kept], y[kept], ey[kept]
    x = np.where(y < 0.0, ey, 1.0) / (1.0 + ey)
    return u, x, np.cosh(u) * (4.0 * ey / (1.0 + ey) ** 2)


def reference_log_mass(alpha):
    """log of Laplace's estimate sqrt(pi/2) t*^(alpha-1) e^(-t*^2) of the
    weight's mass Gamma(alpha/2) / 2, t* = sqrt((alpha-1)/2), or 0 for
    alpha <= 1: the unit e^L each row is summed in."""
    if alpha <= 1.0:
        return 0.0
    half = 0.5 * (alpha - 1.0)
    return float(half * (np.log(half) - 1.0) + 0.5 * math.log(0.5 * math.pi))


def reference_level_sum(
    f, alpha, cutoff, h, odd=False, tolerance=None, growth=(0.0, 1.0), log_mass=0.0
):
    """One level's sum, L1 mass and bound on the terms left out, over the
    nodes at step h, or over the odd-index ones only, in units of e^log_mass.

    Given the row's stopping ``tolerance`` (in the same units) and
    alpha >= 1, the level leaves out the nodes whose term bound, under
    |f(t)| <= C (1+t)^gamma for ``growth`` = (gamma, C), stays below
    e^-2 tau (times e^log_mass, unscaled): tau = 1e-3 tolerance / n for n
    nodes.  The bound is unimodal in u and is read on the nodes of the
    step-1/8 rule: the window spans the nodes strictly between the samples
    beside the first and last sample that reaches e^-2 tau (beside the
    highest one, if none does), widened to a multiple of 32 nodes or every
    node.  The n_dropped nodes outside it add n_dropped tau."""
    u, x, weight = reference_nodes(h, odd)
    scale = h * (cutoff / 2.0) * (0.5 * math.pi)
    n, first, width, tau = x.size, 0, x.size, 0.0
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        if tolerance is not None and alpha >= 1.0:
            tau = tolerance * (1e-3 / n)
            gamma, constant = growth
            grid, grid_x, grid_weight = reference_nodes(1.0 / 8.0)
            t = cutoff * grid_x
            bound = np.log(scale * grid_weight) + (alpha - 1.0) * np.log(t) - t * t
            bound += math.log(constant) + gamma * math.log1p(cutoff)
            reach = np.flatnonzero(bound >= math.log(tau) + log_mass - 2.0)
            low, high = (reach[0], reach[-1]) if reach.size else (np.argmax(bound),) * 2
            beside = np.concatenate(([-np.inf], grid, [np.inf]))
            inside = np.flatnonzero((u > beside[low]) & (u < beside[high + 2]))
            first, span = inside[0], inside.size
            width = min(n, 32 * math.ceil(span / 32))
            first = min(first, n - width)
        t = cutoff * x[first : first + width]
        # e^-log_mass goes into the exponent, the node scale onto the sums
        density = (alpha - 1.0) * np.log(t) - t * t - log_mass
        weights = weight[first : first + width] * np.exp(density)
        terms = weights * np.asarray(f(t))
        total, mass = np.sum(terms) * scale, np.sum(np.abs(terms)) * scale
        return complex(total), float(mass), (n - width) * tau


def first_level(node_count):
    """The first level the quadrature evaluates on the ladder h_k = 12 /
    node_count / 2^k, k <= 8: its first step h <= 1/32, but at most level 7,
    so that one level is left to agree with it."""
    level = 0
    while 12.0 / node_count / 2**level > 1.0 / 32.0 and level < 7:
        level += 1
    return level


def trial_tolerance(f, alpha, spec, abs_tol):
    """The first level's pruning tolerance, in units of the weight's mass: the
    one a tenth of the trial magnitude |f(t*)| would give, t* = sqrt((alpha-1)/2),
    or ``abs_tol`` (scaled) for alpha <= 1 or a trial that is not finite."""
    if alpha <= 1.0:
        return abs_tol
    peak = float(np.abs(np.asarray(f(np.sqrt(np.array([0.5 * (alpha - 1.0)])))))[0])
    return max(abs_tol, spec.rel_tol * (0.1 * peak if math.isfinite(peak) else 0.0))


def reference_integral(f, alpha, spec, growth_exponent=0.0, nested=True):
    """The scalar level loop, with R widened to cover alpha + growth_exponent:
    (value, error estimate, level it stopped at), the value and estimate in
    units of e^L (``reference_log_mass``) and so the tolerances too, levels
    counted on the ladder h_k = 12 / node_count / 2^k from k = 0, the first
    evaluated being ``first_level``.

    ``nested`` is the rule in use: a level adds its pruned odd-node sum to
    half the previous level's sum (0 before the first level), pruned against
    the previous sum's tolerance, or at the first level against
    ``trial_tolerance``; a first level whose own sum gives a smaller one is
    summed again against abs_tol.  Otherwise every level sums all of its
    nodes, the rule before nesting, kept as a value oracle."""
    cutoff = max(spec.tail_cutoff, reference_tail_radius(alpha + growth_exponent, spec.abs_tol))
    log_mass = reference_log_mass(alpha)
    abs_tol = max(spec.abs_tol * math.exp(-log_mass), np.finfo(float).tiny)
    tail_log = (alpha + growth_exponent) * math.log(cutoff) - cutoff * cutoff - log_mass
    tail_bound = math.exp(tail_log) if tail_log < 700.0 else math.inf
    exponent_rounding = abs(log_mass) + abs(alpha - 1.0) * abs(math.log(cutoff))
    first = first_level(spec.node_count)
    h = 2.0 * 6.0 / spec.node_count / 2**first
    eps = float(np.finfo(float).eps)
    previous, previous_mass, dropped = 0j, 0.0, 0.0
    for level in range(first, 9):
        if nested:
            growth = (growth_exponent, 1.0)
            tolerance = max(abs_tol, spec.rel_tol * abs(previous))
            if level == first:
                tolerance = trial_tolerance(f, alpha, spec, abs_tol)
            total, mass, left_out = reference_level_sum(
                f, alpha, cutoff, h, level > first, tolerance, growth, log_mass
            )
            again = tolerance > max(abs_tol, spec.rel_tol * abs(total))
            if level == first and again and cmath.isfinite(total) and math.isfinite(mass):
                total, mass, left_out = reference_level_sum(
                    f, alpha, cutoff, h, False, abs_tol, growth, log_mass
                )
            current, l1_mass = 0.5 * previous + total, 0.5 * previous_mass + mass
            dropped = 0.5 * dropped + left_out
        else:
            current, l1_mass, _ = reference_level_sum(f, alpha, cutoff, h, log_mass=log_mass)
        h *= 0.5
        if not (cmath.isfinite(current) and math.isfinite(l1_mass)):
            raise AccuracyError(
                f"quadrature level sum is not finite for alpha={alpha:g}",
                estimate=math.inf,
            )
        if level > first:
            diff = abs(current - previous)
            summation = 8.0 + math.sqrt(spec.node_count * 2**level)
            rounding = (summation + exponent_rounding) * eps * l1_mass
            estimate = diff + tail_bound + rounding + dropped
            if diff <= max(abs_tol, spec.rel_tol * abs(current)):
                return current, estimate, level
        previous, previous_mass = current, l1_mass
    with np.errstate(over="ignore"):
        estimate = float(estimate * np.exp(log_mass))  # in absolute terms
    raise AccuracyError(
        f"quadrature did not reach tolerance (abs_tol={spec.abs_tol:g}, "
        f"rel_tol={spec.rel_tol:g}) for alpha={alpha:g}: "
        f"error estimate {estimate:.3e} after 8 refinements",
        estimate=estimate,
    )


def per_row_level_sums(f, alpha, cutoff, h, odd, floor=None, sampled=None, log_mass=None, *_):
    """The column level pass before rows left out nodes, kept as the full
    rule's oracle: every node whose weight does not underflow, gathered by
    ``np.nonzero``, each row summed as its own slice of the terms, in units
    of e^log_mass (of e^0 when None); no node is left out, whatever ``floor``."""
    k = int(math.floor(6.0 / h))
    index = np.arange(-k, k + 1)
    u = h * (index[index % 2 == 1] if odd else index)
    y = 0.5 * math.pi * np.sinh(u)
    ey = np.exp(-2.0 * np.abs(y))
    kept = (y < 0.0) | (1.0 + ey > 1.0)
    u, ey, lower = u[kept], ey[kept], int(np.count_nonzero(y < 0.0))
    one_plus_ey, cosh_u, sech2 = 1.0 + ey, np.cosh(u), 4.0 * ey / (1.0 + ey) ** 2
    radius = cutoff[:, None]
    t = np.empty((alpha.size, ey.size))
    t[:, :lower] = radius * ey[:lower] / one_plus_ey[:lower]
    t[:, lower:] = radius / one_plus_ey[lower:]
    w = (h * (cutoff / 2.0) * (0.5 * math.pi))[:, None] * cosh_u * sech2
    rows, cols = np.nonzero((w > 0.0) & (t > 0.0) & (t < radius))
    t = t[rows, cols]
    shift = np.zeros(alpha.size) if log_mass is None else log_mass
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        weights = w[rows, cols] * np.exp((alpha[rows] - 1.0) * np.log(t) - t * t - shift[rows])
        live = weights != 0.0
        rows = rows[live]
        terms = weights[live] * np.asarray(f(t[live])) if rows.size else np.zeros(0)
        magnitudes = np.abs(terms)
        bounds = np.searchsorted(rows, np.arange(alpha.size + 1)).tolist()
        spans = list(zip(bounds, bounds[1:]))
        totals = [np.add.reduce(terms[a:b]) for a, b in spans]
        masses = [np.add.reduce(magnitudes[a:b]) for a, b in spans]
    return np.array(totals, dtype=complex), np.array(masses), np.zeros(alpha.size, dtype=int)


def flat_run_level_sums(f, alpha, cutoff, h, odd, floor, log_mass):
    """The level pass before windows were summed in blocks chunked by the nodes
    summed, kept as a bit oracle: the same windows, the bound read on the
    nodes of the step-1/8 rule, laid out as one flat run of nodes in order of
    width, ``f`` evaluated once on the whole run, e^-log_mass taken into each
    term's exponent, and each width's rows summed as one block of that run,
    then multiplied by their node scale."""
    x, weight, u = special_functions._unit_nodes(h, odd)
    grid_x, grid_weight, grid = special_functions._unit_nodes(1.0 / 8.0)
    n = x.size
    scale = h * (cutoff / 2.0) * (0.5 * math.pi)
    sampled = np.log(grid_weight) + (alpha - 1.0)[:, None] * np.log(grid_x)
    sampled -= (cutoff * cutoff)[:, None] * (grid_x * grid_x)
    lowest = floor - np.log(scale) - (alpha - 1.0) * np.log(cutoff)
    reach = sampled >= np.minimum(lowest, sampled.max(axis=1))[:, None]
    low = np.argmax(reach, axis=1)
    high = reach.shape[1] - 1 - np.argmax(reach[:, ::-1], axis=1)
    beside = np.concatenate(([-np.inf], grid, [np.inf]))
    first = np.searchsorted(u, beside[low], "right")
    span = np.searchsorted(u, beside[high + 2], "left") - first
    width = np.minimum(-(-span // 32) * 32, n)
    first = np.minimum(first, n - width)
    order = np.argsort(width, kind="stable")
    sizes = width[order]
    starts = np.cumsum(sizes) - sizes
    rows = np.repeat(order, sizes)
    nodes = np.repeat(first[order] - starts, sizes) + np.arange(sizes.sum())
    totals, masses = np.zeros(alpha.size, dtype=complex), np.zeros(alpha.size)
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        t = cutoff[rows] * x[nodes]
        density = (alpha[rows] - 1.0) * np.log(t) - t * t - log_mass[rows]
        terms = weight[nodes] * np.exp(density) * np.asarray(f(t))
        magnitudes = np.abs(terms)
        bounds = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist(), alpha.size]
        for a, b in zip(bounds, bounds[1:]):
            block = slice(starts[a], starts[a] + (b - a) * sizes[a])
            these = order[a:b]  # the rows of this width, each multiplied by its node scale
            totals[these] = np.add.reduce(terms[block].reshape(b - a, -1), axis=1) * scale[these]
            masses[these] = np.add.reduce(magnitudes[block].reshape(b - a, -1), axis=1) * scale[these]
    return totals, masses, n - width


def integral(f, alpha, spec=DEFAULT_QUADRATURE, **kwargs):
    """The value of the quadrature, without its error estimate."""
    return gaussian_weighted_integral_with_estimate(f, alpha, spec, **kwargs)[0]


def trapezoid_oracle(f, alpha, upper=14.0, n=2_000_001):
    """Independent fine-grid oracle for int_0^inf f(t) e^{-t^2} t^(alpha-1) dt."""
    t = np.linspace(1e-12, upper, n)
    return np.trapezoid(f(t) * np.exp(-t * t) * t ** (alpha - 1.0), t)


class TestLogGamma:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (1.0, 0.0),
            (4.0, math.log(6.0)),
            (0.5, math.log(math.sqrt(math.pi))),
        ],
    )
    def test_known_values(self, x, expected):
        assert log_gamma(x) == pytest.approx(expected, rel=1e-13, abs=1e-14)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.inf, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)

    def test_recurrence_grid(self):
        # lgamma(x+1) - lgamma(x) = ln(x)
        for x in np.arange(0.1, 50.0 + 1e-9, 0.1):
            residual = abs(log_gamma(x + 1.0) - log_gamma(x) - math.log(x))
            assert residual <= 1e-12, f"x={x}: {residual}"

    def test_large_argument(self):
        # Stirling cross-check at x = 1e6
        x = 1e6
        stirling = (x - 0.5) * math.log(x) - x + 0.5 * math.log(2.0 * math.pi) + 1.0 / (12.0 * x)
        assert log_gamma(x) == pytest.approx(stirling, rel=1e-13)


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(node_count=1)
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=-1.0)
        with pytest.raises(DomainError):
            QuadratureSpec(tail_cutoff=0.0)

    def test_node_count_above_the_cap_is_refused_before_any_node_is_formed(self, monkeypatch):
        def no_nodes(*args):
            raise AssertionError("quadrature nodes formed")

        monkeypatch.setattr(special_functions, "_unit_nodes", no_nodes)
        # the last of the 8 refinements spans node_count * 2^8 + 1 nodes per row
        assert MAX_NODE_COUNT == 1024
        assert QuadratureSpec(node_count=MAX_NODE_COUNT).node_count == MAX_NODE_COUNT
        for count in (MAX_NODE_COUNT + 1, 10**6):
            refusal = rf"node_count must be an integer in \[2, 1024\], got {count}$"
            with pytest.raises(DomainError, match=refusal):
                QuadratureSpec(node_count=count)
            with pytest.raises(DomainError, match=refusal):
                QuadratureSpec.for_exponent(80.0, node_count=count)

    def test_tail_radius_bound(self):
        for alpha in (1.0, 10.0, 80.0):
            r = tail_radius(alpha, 1e-13)
            assert math.exp(-r * r) * r**alpha < 1e-13

    def test_tail_radius_array_matches_scalar_loop(self):
        # the array loop stops at its fixed point; the scalar loop runs 64 steps
        alphas = np.concatenate([np.geomspace(1e-3, 2000.0, 2000), np.linspace(0.5, 400.0, 2000)])
        expected = [reference_tail_radius(alpha, 1e-13) for alpha in alphas.tolist()]
        assert tail_radius(alphas, 1e-13).tolist() == expected

    def test_radius_widens_only_when_needed(self):
        def f(t):
            return np.ones_like(t)

        spec = QuadratureSpec()
        needed = float(tail_radius(90.0, spec.abs_tol))
        assert float(tail_radius(1.0, spec.abs_tol)) < spec.tail_cutoff < needed
        # alpha = 90 is integrated on (0, tail_radius(90)], not on (0, 8]
        widened = gaussian_weighted_integral_with_estimate(f, 90.0, spec)
        assert widened == gaussian_weighted_integral_with_estimate(
            f, 90.0, replace(spec, tail_cutoff=needed)
        )
        assert widened[0].real == pytest.approx(0.5 * math.exp(math.lgamma(45.0)), rel=1e-12)
        # alpha = 1 keeps the spec's larger radius
        kept = gaussian_weighted_integral_with_estimate(f, 1.0, spec)
        assert kept != gaussian_weighted_integral_with_estimate(
            f, 1.0, replace(spec, tail_cutoff=float(tail_radius(1.0, spec.abs_tol)))
        )


class TestGaussianWeightedIntegral:
    def test_constant_alpha_two(self):
        value = integral(lambda t: np.ones_like(t), 2.0)
        assert value == pytest.approx(0.5, rel=1e-12)

    def test_constant_alpha_one(self):
        value = integral(lambda t: np.ones_like(t), 1.0)
        assert value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.5, 5.6, 13.0])
    @pytest.mark.parametrize("p", [0, 1, 3])
    def test_monomial_closed_form_and_trapezoid_oracle(self, alpha, p):
        exact = 0.5 * math.exp(math.lgamma((alpha + p) / 2.0))
        oracle = trapezoid_oracle(lambda t: t**p, alpha)
        assert oracle == pytest.approx(exact, rel=1e-9)  # oracle agrees with closed form
        value = integral(lambda t: t**p, alpha, WIDE, growth_exponent=p)
        assert value.real == pytest.approx(exact, rel=1e-11)
        assert abs(value.imag) <= 1e-13 * exact

    def test_monomial_sweep_invariant(self):
        # relative error <= 1e-10 across alpha in [1, 80], p in 0..10
        worst = 0.0
        for alpha in np.linspace(1.0, 80.0, 24):
            for p in range(11):
                exact = 0.5 * math.exp(math.lgamma((alpha + p) / 2.0))
                value = integral(
                    lambda t, p=p: t**p, float(alpha), WIDE, growth_exponent=p
                )
                worst = max(worst, abs(value - exact) / exact)
        assert worst <= 1e-10, f"worst relative error {worst}"

    def test_linearity(self):
        spec = QuadratureSpec.for_exponent(12.0)

        def f(t):
            return np.exp(-t)

        def g(t):
            return t**2

        a, b = 0.7, -1.3
        combined = integral(lambda t: a * f(t) + b * g(t), 3.0, spec)
        separate = a * integral(f, 3.0, spec) + b * integral(
            g, 3.0, spec
        )
        assert abs(combined - separate) <= 1e-12

    def test_complex_integrand(self):
        value = integral(lambda t: (1.0 + 2.0j) * np.ones_like(t), 2.0)
        assert value == pytest.approx(0.5 + 1.0j, rel=1e-12)

    def test_estimate_bounds_true_error(self):
        exact = 0.5 * math.exp(math.lgamma(2.5))
        value, estimate = gaussian_weighted_integral_with_estimate(
            lambda t: t**3, 2.0, WIDE, growth_exponent=3.0
        )
        assert abs(value - exact) <= 10.0 * estimate
        assert estimate < 1e-10 * exact

    def test_domain_error_on_bad_alpha(self):
        with pytest.raises(DomainError):
            integral(lambda t: t, 0.0)
        with pytest.raises(DomainError):
            integral(lambda t: t, -2.0)

    # nan and inf were reported as a level sum that is not finite, -50 as a
    # stalled refinement, and -1 pruned against a bound below |f| near 0
    @pytest.mark.parametrize("growth", [math.nan, math.inf, -math.inf, -50.0, -1.0])
    def test_growth_exponent_must_be_finite_and_nonnegative(self, growth):
        refusal = "^" + re.escape(f"growth_exponent must be finite and >= 0, got {growth!r}") + "$"
        for call in (gaussian_weighted_column, gaussian_weighted_integral_with_estimate):
            with pytest.raises(DomainError, match=refusal):
                call(lambda t: np.exp(-t), 2.0, growth_exponent=growth)

    @pytest.mark.parametrize(
        "evaluator, shape",
        [
            (lambda t: 1.0, r"\(\)"),
            (lambda t: np.ones(1), r"\(1,\)"),
            (lambda t: t[:, None], r"\(\d+, 1\)"),
        ],
    )
    def test_values_of_another_shape_than_the_points_are_refused(self, evaluator, shape):
        # a value that would broadcast is not one value per point
        refusal = rf"^evaluator returned shape {shape} for points of shape \(\d+,\)$"
        _, values, _, failures = gaussian_weighted_column(evaluator, [2.0, 3.0])
        assert list(failures) == [0] and type(failures[0]) is DomainError
        assert re.match(refusal, str(failures[0])) and np.isnan(values).all()
        with pytest.raises(DomainError, match=refusal):
            gaussian_weighted_integral_with_estimate(evaluator, 2.0)

    def test_an_evaluator_short_on_many_points_is_refused_not_stalled(self):
        from fock_toeplitz import RadialProfile, SymbolSpec, toeplitz_matrix

        # passes the 128-point spot check, then returns one value per call:
        # broadcast, it read as a refinement that did not reach tolerance
        profile = RadialProfile.from_callable(
            lambda r: np.exp(-r) if r.size <= 128 else np.exp(-r[:1]), 0.0, 1.0
        )
        spec = SymbolSpec.from_modes({1: profile}, name="v")
        refusal = r"^entry quadrature failed for symbol 'v' at mode j=1, column m=0: evaluator"
        with pytest.raises(DomainError, match=refusal + r" returned shape \(1,\) for points"):
            toeplitz_matrix(spec, 0.0, 8)

    def test_an_evaluator_that_raises_on_the_peaks_fails_the_first_row_by_name(self):
        from fock_toeplitz import RadialProfile, SymbolSpec, toeplitz_matrix

        # at s = 0 mode j=1 has alpha = 2m + 3, so the first row's trial reads
        # the profile at its peak t* = 1
        def evaluator(r):
            if (r == 1.0).any():
                raise DomainError("no value at r = 1")
            return np.exp(-r)

        spec = SymbolSpec.from_modes({1: RadialProfile(0.0, 1.0, evaluator=evaluator)}, name="v")
        refusal = "entry quadrature failed for symbol 'v' at mode j=1, column m=0: "
        with pytest.raises(DomainError, match="^" + re.escape(refusal + "no value at r = 1") + "$"):
            toeplitz_matrix(spec, 0.0, 8)

    def test_an_evaluator_that_raises_on_one_column_s_points_names_that_column(self):
        from fock_toeplitz import RadialProfile, SymbolSpec, toeplitz_matrix

        # at s = 0 mode j=1 has alpha = 2m + 3: columns 0 and 1 share a level-sum
        # block, and only column 1's window reaches beyond t = 7.5
        def evaluator(r):
            if (r > 7.5).any():
                raise DomainError("no value beyond r = 7.5")
            return np.exp(-r)

        spec = SymbolSpec.from_modes({1: RadialProfile(0.0, 1.0, evaluator=evaluator)}, name="v")
        refusal = "entry quadrature failed for symbol 'v' at mode j=1, column m=1: "
        with pytest.raises(DomainError, match="^" + re.escape(refusal + "no value beyond r = 7.5")):
            toeplitz_matrix(spec, 0.0, 3)

    def test_accuracy_error_carries_estimate(self):
        # A jump integrand defeats the smoothness assumption.
        ragged = QuadratureSpec(node_count=8, tail_cutoff=8.0, abs_tol=1e-15, rel_tol=1e-15)
        with pytest.raises(AccuracyError) as info:
            integral(lambda t: np.sign(t - 2.0), 1.0, ragged)
        assert info.value.estimate is not None
        assert info.value.estimate > 0.0

    @pytest.mark.parametrize("alpha", [0.5, 6.0])
    @pytest.mark.parametrize("constant", [2.0, 7.5])
    def test_tail_term_carries_the_growth_constant(self, constant, alpha):
        # At a loose abs_tol the tail indicator R^(alpha+gamma) e^(-R^2), about
        # abs_tol / 10, dominates the estimate; under |f| <= C (1+t)^gamma the
        # dropped tail scales with C, and so must its term.
        spec = QuadratureSpec(tail_cutoff=1.0, abs_tol=1e-3, rel_tol=1e-11)
        radius = float(tail_radius(alpha + 1.0, spec.abs_tol))
        tail = radius ** (alpha + 1.0) * math.exp(-radius * radius)
        (log_scale,), _, (error,), failures = gaussian_weighted_column(
            lambda t: constant * (1.0 + t) * np.exp(-t),
            [alpha],
            spec,
            growth_exponent=1.0,
            growth_constant=constant,
        )
        assert failures == {} and error * math.exp(log_scale) >= constant * tail

    @pytest.mark.parametrize("alpha", [2.0, 343.7, 344.0])
    def test_a_level_sum_that_is_not_finite_raises(self, alpha):
        # an integrand that returns inf makes a level sum infinite; an infinite
        # sum passes the relative stopping test, so it must be refused explicitly
        spec = QuadratureSpec.for_exponent(alpha)
        refusal = f"^quadrature level sum is not finite for alpha={alpha:g}$"
        with pytest.raises(AccuracyError, match=refusal) as info:
            gaussian_weighted_integral_with_estimate(lambda t: np.full(t.shape, np.inf), alpha, spec)
        assert info.value.estimate == math.inf

    @pytest.mark.parametrize("alpha", [343.7, 344.0, 700.0])
    def test_a_value_past_the_old_overflow_is_summed_scaled(self, alpha):
        # the terms of e^{-1.3t} t^(alpha-1) e^{-t^2} overflowed double range
        # from alpha ~ 343.7 while the weight's mass was in the exponent; in
        # units of that mass the sum is of order |f(t*)|
        spec = QuadratureSpec.for_exponent(alpha)
        (log_scale,), (value,), (error,), failures = gaussian_weighted_column(
            lambda t: np.exp(-1.3 * t), [alpha], spec
        )
        assert not failures and log_scale == reference_log_mass(alpha)
        assert 0.5 < value.real / math.exp(-1.3 * math.sqrt(0.5 * (alpha - 1.0))) < 2.0
        assert 0.0 < error <= 1e-11 * abs(value)
        if alpha < 700.0:  # the scaled-back value is within double range, e^L not always
            back, back_error = gaussian_weighted_integral_with_estimate(
                lambda t: np.exp(-1.3 * t), alpha, spec
            )
            root = math.exp(0.5 * log_scale)
            assert (back, back_error) == (value * root * root, error * root * root)
        else:
            refusal = rf"^I\(f, alpha=700\) leaves double range \(log scale 1697.57\)$"
            with pytest.raises(DomainError, match=refusal):
                gaussian_weighted_integral_with_estimate(lambda t: np.exp(-1.3 * t), alpha, spec)

    def test_deterministic(self):
        spec = QuadratureSpec.for_exponent(9.0)
        first = integral(lambda t: np.exp(-t) * t, 4.5, spec)
        second = integral(lambda t: np.exp(-t) * t, 4.5, spec)
        assert first == second


def decaying(rate, power, coefficient):
    def f(t):
        return coefficient * t**power * np.exp(-rate * t)

    return f


integrands = st.one_of(
    st.tuples(
        st.floats(0.05, 3.0),
        st.integers(0, 3),
        st.complex_numbers(min_magnitude=0.1, max_magnitude=4.0, allow_nan=False),
    ).map(lambda args: (decaying(*args), float(args[1]))),
    # a jump defeats the smoothness assumption, so some rows stall
    st.floats(0.5, 4.0).map(lambda a: (lambda t: np.sign(t - a), 0.0)),
    # oscillation cancels, so some rows' sums fall below their trial magnitudes
    st.floats(2.0, 6.0).map(lambda c: (lambda t: np.cos(c * t), 0.0)),
)
specs = st.sampled_from([DEFAULT_QUADRATURE, WIDE, RAGGED, QuadratureSpec(node_count=20)])


class TestNestedLevels:
    """Each level evaluates only its odd-index nodes and reuses the rest."""

    @pytest.mark.parametrize("node_count", [7, 8, 20, 48])
    def test_odd_nodes_and_coarse_nodes_are_the_fine_nodes(self, node_count):
        from fock_toeplitz.special_functions import _unit_nodes

        def nodes(h, odd=False):
            return sorted(zip(*(array.tolist() for array in _unit_nodes(h, odd))))

        h = 2.0 * 6.0 / node_count
        for _ in range(8):
            h *= 0.5
            assert nodes(h) == sorted(nodes(2.0 * h) + nodes(h, True))

    # node_count -> first level: the first ladder step <= 1/32, except that
    # node_count 2 (first such step h_8) starts at h_7 to keep one comparison
    @pytest.mark.parametrize("node_count, first", [(2, 7), (7, 6), (48, 3), (384, 0), (1024, 0)])
    def test_first_step_is_the_first_ladder_step_at_most_one_32nd(
        self, monkeypatch, node_count, first
    ):
        steps, level_sums = [], special_functions._level_sums

        def recording(f, alpha, cutoff, h, *args):
            steps.append(h)
            return level_sums(f, alpha, cutoff, h, *args)

        monkeypatch.setattr(special_functions, "_level_sums", recording)
        # a jump stalls the refinement, so every level down to the finest runs
        *_, failures = gaussian_weighted_column(
            lambda t: np.sign(t - 1.7), [2.0], QuadratureSpec(node_count=node_count)
        )
        assert "after 8 refinements" in str(failures[0])
        # from the first level down to the finest, h_8, as before
        assert steps == [12.0 / node_count / 2**level for level in range(first, 9)]

    @pytest.mark.parametrize("rate", [0.3, 1.3, 2.9])
    @pytest.mark.parametrize("node_count", [7, 48])
    def test_rows_stop_at_the_full_level_rule_level(self, monkeypatch, rate, node_count):
        import fock_toeplitz.special_functions as special_functions

        spec = QuadratureSpec(node_count=node_count)
        level_sums = special_functions._level_sums
        last_step = {}

        def recording(f, alpha, cutoff, h, *args):
            last_step.update(dict.fromkeys(alpha.tolist(), h))
            return level_sums(f, alpha, cutoff, h, *args)

        monkeypatch.setattr(special_functions, "_level_sums", recording)
        f = decaying(rate, 0, 1.0)
        alphas = np.linspace(0.5, 340.0, 25)
        *_, failures = gaussian_weighted_column(f, alphas, spec)
        assert not failures
        h0 = 2.0 * 6.0 / spec.node_count
        for alpha in alphas.tolist():
            _, _, level = reference_integral(f, alpha, spec, nested=False)
            assert last_step[alpha] == h0 / 2**level


class TestColumnAgainstScalarReference:
    """The column quadrature against the scalar level loop it replaced."""

    @settings(max_examples=30)
    @given(
        integrand=integrands,
        spec=specs,
        alphas=st.lists(st.floats(0.5, 400.0), min_size=1, max_size=5),
    )
    def test_rows_match_reference_and_one_alpha_call(self, integrand, spec, alphas):
        f, growth = integrand
        log_scale, values, errors, failures = gaussian_weighted_column(
            f, alphas, spec, growth_exponent=growth
        )
        for row, alpha in enumerate(alphas):
            if row > min(failures, default=row) and row not in failures and np.isnan(values[row]):
                # the column stopped at its first failure before this row converged
                assert np.isnan(errors[row])
                continue
            try:
                expected, estimate, _ = reference_integral(f, alpha, spec, growth)
            except AccuracyError as exc:
                assert type(failures[row]) is AccuracyError
                assert str(failures[row]) == str(exc)
                with pytest.raises(AccuracyError, match="^" + re.escape(str(exc)) + "$"):
                    gaussian_weighted_integral_with_estimate(
                        f, alpha, spec, growth_exponent=growth
                    )
                continue
            assert row not in failures and log_scale[row] == pytest.approx(reference_log_mass(alpha))
            assert abs(values[row] - expected) <= max(1e-13 * abs(expected), estimate)
            # a row at the stopping threshold may stall under one rule only
            with contextlib.suppress(AccuracyError):
                full, _, _ = reference_integral(f, alpha, spec, growth, nested=False)
                assert abs(values[row] - full) <= max(1e-13 * abs(full), estimate)
            # a row does not depend on the rows beside it
            alone = gaussian_weighted_column(f, [alpha], spec, growth_exponent=growth)
            assert same_bits(alone[0], log_scale[row : row + 1])
            assert same_bits(alone[1], values[row : row + 1])
            assert same_bits(alone[2], errors[row : row + 1])

    def test_rows_do_not_depend_on_chunking(self, monkeypatch):
        import fock_toeplitz.special_functions as special_functions

        f = decaying(1.3, 1, 0.5 - 0.25j)
        alphas = np.linspace(1.0, 340.0, 60)
        whole = gaussian_weighted_column(f, alphas, growth_exponent=1.0)
        monkeypatch.setattr(special_functions, "_MAX_BATCH", 1)
        one_row_per_chunk = gaussian_weighted_column(f, alphas, growth_exponent=1.0)
        assert whole[1].tolist() == one_row_per_chunk[1].tolist()
        assert whole[2].tolist() == one_row_per_chunk[2].tolist()

    def test_a_failed_row_is_nan_and_stops_the_rows_after_it(self):
        # only the row at alpha = 344 (R ~ 44) reaches beyond t = 9, where the
        # integrand is infinite; the others keep R = 9
        alphas = [3.0, 344.0, 5.0]
        _, values, errors, failures = gaussian_weighted_column(
            lambda t: np.where(t > 9.0, np.inf, np.exp(-1.3 * t)), alphas, QuadratureSpec(tail_cutoff=9.0)
        )
        assert list(failures) == [1] and failures[1].estimate == math.inf
        assert math.isnan(values[1].real) and math.isnan(errors[1])
        assert np.isfinite(values[0]) and np.isfinite(errors[0])
        # the row after it, summed at the first level only, has no value
        assert np.isnan(values[2]) and np.isnan(errors[2])

    def test_bad_alpha_is_a_domain_error(self):
        with pytest.raises(DomainError, match="got -1.0"):
            gaussian_weighted_column(lambda t: t, [2.0, -1.0])


@pytest.mark.parametrize("dtype", [float, complex])
def test_row_sums_of_a_block_round_as_each_row_alone(dtype):
    # _level_sums sums the rows of a C-contiguous block with one axis-1 reduce,
    # relying on numpy to sum each row pairwise, as it sums the row's 1-d slice
    rng = np.random.default_rng(7)
    widths = [*range(1, 40), 127, 128, 129, 130, 255, 256, 257, 1023, 1025, 1601, 3137]
    for n, rows in [(n, 5) for n in widths] + [(n, 300) for n in (32, 96, 160, 224, 480, 992)]:
        shape = (rows, n * (2 if dtype is complex else 1))
        data = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
        block = np.ascontiguousarray(data.view(dtype))
        assert np.add.reduce(block, axis=1).tolist() == [np.add.reduce(row).item() for row in block]


alpha_draws = st.one_of(
    st.floats(0.01, 0.99),  # below 1: t^(alpha-1) is largest at the lower end
    st.just(1.0),
    st.floats(1.0, 343.0),
    st.floats(344.0, 1300.0),  # the terms overflowed before the weight's mass was factored out
)


@settings(max_examples=40, deadline=None)
@given(
    integrand=integrands,
    spec=specs,
    alphas=st.lists(alpha_draws, min_size=1, max_size=6),
    batch=st.sampled_from([1, special_functions._MAX_BATCH]),
)
def test_pruned_rows_stay_within_both_estimates_of_the_full_rule(integrand, spec, alphas, batch):
    f, growth = integrand

    def column():
        with mock.patch.object(special_functions, "_MAX_BATCH", batch):
            return gaussian_weighted_column(f, alphas, spec, growth_exponent=growth)

    log_scale, values, errors, failures = column()
    with mock.patch.object(special_functions, "_level_sums", per_row_level_sums):
        full_log_scale, full_values, full_errors, full_failures = column()
    assert same_bits(log_scale, full_log_scale)

    def overflows(failed):
        return {row: str(exc) for row, exc in failed.items() if exc.estimate == math.inf}

    assert overflows(failures) == overflows(full_failures)
    # each column stops at its first failure; a row at the stopping threshold
    # may stall under one rule only
    stop = min([*failures, *full_failures, len(alphas)])
    assert np.isfinite(values[:stop]).all() and np.isfinite(full_values[:stop]).all()
    for row in range(len(alphas)):
        if np.isfinite(values[row]) and np.isfinite(full_values[row]):
            # the pruned estimate holds the bound on the terms left out
            gap = abs(values[row] - full_values[row])
            assert gap <= errors[row] + full_errors[row]


def full_rule_at(f, alpha, spec, growth, step):
    """The nested sum of the full rule (``per_row_level_sums``: no node left
    out) for one alpha, from the first level down to the level of ``step``,
    in units of e^L (``reference_log_mass``)."""
    cutoff = np.maximum(spec.tail_cutoff, tail_radius(np.array([alpha + growth]), spec.abs_tol))
    h = 12.0 / spec.node_count / 2 ** first_level(spec.node_count)
    log_mass = np.array([reference_log_mass(alpha)])
    total, odd = 0j, False
    while True:
        row = per_row_level_sums(f, np.array([alpha]), cutoff, h, odd, None, None, log_mass)
        total = 0.5 * total + row[0][0]
        if h == step:
            return total
        h, odd = 0.5 * h, True


@settings(max_examples=60, deadline=None)
@given(
    integrand=integrands,
    spec=specs,
    alphas=st.lists(
        st.one_of(st.floats(0.01, 0.99), st.floats(1.0, 343.0)), min_size=1, max_size=6
    ),
)
def test_each_row_lies_within_its_error_of_the_full_rule_at_its_level(integrand, spec, alphas):
    f, growth = integrand
    level_sums, steps = special_functions._level_sums, {}

    def recording(f, alpha, cutoff, h, *args):
        steps.update(dict.fromkeys(alpha.tolist(), h))
        return level_sums(f, alpha, cutoff, h, *args)

    with mock.patch.object(special_functions, "_level_sums", recording):
        _, values, errors, _ = gaussian_weighted_column(f, alphas, spec, growth_exponent=growth)
    for row, alpha in enumerate(alphas):
        if np.isfinite(values[row]):
            full = full_rule_at(f, alpha, spec, growth, steps[alpha])
            assert abs(values[row] - full) <= errors[row]


def test_a_row_whose_sum_falls_below_its_trial_magnitude_is_summed_again(monkeypatch):
    # cos(3t) at alpha = 1.25 integrates to 0.05 of its trial magnitude
    # |cos(3 t*)| M, below the tenth the first level assumes; at alpha = 2 to
    # 0.51 of it, and a positive profile to more still
    level_sums, first = special_functions._level_sums, []

    def recording(f, alpha, cutoff, h, odd, *args):
        if not odd:
            first.append(alpha.tolist())
        return level_sums(f, alpha, cutoff, h, odd, *args)

    monkeypatch.setattr(special_functions, "_level_sums", recording)
    for f, again in [(lambda t: np.cos(3.0 * t), [[1.25]]), (lambda t: np.exp(-1.3 * t), [])]:
        first.clear()
        _, values, errors, failures = gaussian_weighted_column(f, [1.25, 2.0])
        assert not failures and first == [[1.25, 2.0], *again]
        # summed again at abs_tol, the row is the full rule's within its error
        for alpha, value, error in zip([1.25, 2.0], values, errors):
            assert abs(value - full_rule_at(f, alpha, DEFAULT_QUADRATURE, 0.0, 1 / 512)) <= error


def test_a_decaying_column_evaluates_the_profile_on_a_seventh_of_the_full_rule_points(
    monkeypatch,
):
    # the full rule's points: every node of every level each row runs
    evaluated, full_points = [], []

    def f(t):
        evaluated.append(t.size)
        return np.exp(-1.3 * t)

    def full_rule(f, alpha, cutoff, h, odd, *args):
        full_points.append(alpha.size * special_functions._unit_nodes(h, odd)[0].size)
        return per_row_level_sums(f, alpha, cutoff, h, odd)

    alphas = np.linspace(2.0, 340.0, 60)
    assert not gaussian_weighted_column(f, alphas)[3]
    pruned = sum(evaluated)
    monkeypatch.setattr(special_functions, "_level_sums", full_rule)
    assert not gaussian_weighted_column(f, alphas)[3]
    # 13% measured
    assert pruned <= 0.15 * sum(full_points), (pruned, sum(full_points))


floors = st.one_of(st.just(-math.inf), st.floats(-800.0, 10.0))


@settings(max_examples=80, deadline=None)
@given(
    integrand=integrands,
    rows=st.lists(
        st.tuples(alpha_draws, st.floats(2.0, 50.0), floors, st.floats(-0.8, 3600.0)),
        min_size=1,
        max_size=12,
    ),
    node_count=st.sampled_from([2, 7, 20, 48, 384, MAX_NODE_COUNT]),
    level=st.integers(0, 8),
    odd=st.booleans(),
    batch=st.sampled_from([1, special_functions._MAX_BATCH]),
)
def test_level_sums_keep_the_bits_of_the_flat_run(integrand, rows, node_count, level, odd, batch):
    f, _ = integrand
    alpha, cutoff, floor, log_mass = (np.array(column) for column in zip(*rows))
    h = 12.0 / node_count / 2**level
    expected = flat_run_level_sums(f, alpha, cutoff, h, odd, floor, log_mass)
    sampled = special_functions._mask_samples(alpha, cutoff)
    with mock.patch.object(special_functions, "_MAX_BATCH", batch):
        got = special_functions._level_sums(f, alpha, cutoff, h, odd, floor, sampled, log_mass)
    for new, old in zip(got, expected):
        assert new.dtype == old.dtype and new.tobytes() == old.tobytes()


def test_a_160_row_column_makes_one_level_sums_call_per_level(monkeypatch):
    steps, level_sums = [], special_functions._level_sums

    def recording(f, alpha, cutoff, h, *args):
        steps.append(h)
        return level_sums(f, alpha, cutoff, h, *args)

    monkeypatch.setattr(special_functions, "_level_sums", recording)
    alphas = np.linspace(1.0, 340.0, 160)
    assert not gaussian_weighted_column(decaying(1.3, 1, 1.0), alphas, QuadratureSpec())[3]
    # node_count 48 starts at level 3; its first level alone spans 385 nodes
    assert len(steps) >= 2
    assert steps == [12.0 / 48 / 2**level for level in range(3, 3 + len(steps))]


@pytest.mark.parametrize("batch", [1, 1 << 8, special_functions._MAX_BATCH])
def test_no_profile_call_takes_more_than_the_batch_but_one_wide_window(monkeypatch, batch):
    # distinct radii, so each point t = R x names the row it belongs to
    alphas = np.array([0.5, *np.linspace(20.0, 340.0, 40)])
    level_sums, owners, calls = special_functions._level_sums, {}, []
    default = special_functions._MAX_BATCH

    def recording(f, alpha, cutoff, h, odd, *args):
        points = cutoff[:, None] * special_functions._unit_nodes(h, odd)[0]
        keys, order = points.ravel(), np.argsort(points, axis=None)
        rows = np.repeat(np.arange(alpha.size), points.shape[1])
        owners.update(keys=keys[order], rows=rows[order])
        return level_sums(f, alpha, cutoff, h, odd, *args)

    def f(t):
        if not owners:  # the one call on the rows' peaks, before the level sums
            return np.exp(-1.3 * t)
        at = np.searchsorted(owners["keys"], t)
        assert (owners["keys"][at] == t).all()
        calls.append((t.size, np.unique(owners["rows"][at]).size))
        return np.exp(-1.3 * t)

    monkeypatch.setattr(special_functions, "_level_sums", recording)
    monkeypatch.setattr(special_functions, "_MAX_BATCH", batch)
    spec = QuadratureSpec(node_count=384)
    radii = np.maximum(spec.tail_cutoff, tail_radius(alphas, spec.abs_tol))
    assert np.unique(radii).size == alphas.size
    assert not gaussian_weighted_column(f, alphas, spec)[3]
    assert all(size <= batch or row_count == 1 for size, row_count in calls)
    # not vacuous: rows share calls when the batch allows, and the alpha < 1 row
    # keeps every node, a window of 385 at the first level
    assert any(row_count > 1 for _, row_count in calls) == (batch > 1)
    assert any(size > batch for size, _ in calls) == (batch < default)


def failure_reprs(failures):
    return {row: (type(exc), str(exc), repr(exc.estimate)) for row, exc in failures.items()}


def same_bits(a, b):
    # a bool, so that a failing assert shows reprs, not a diff of the bytes,
    # which makes shrinking take minutes
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    parts=st.lists(
        st.tuples(
            integrands,
            st.lists(alpha_draws, min_size=1, max_size=5),
            st.sampled_from([0.0, 0.5, 2.0]),
            st.floats(0.1, 10.0),
        ),
        min_size=1,
        max_size=4,
    ),
    spec=specs,
    batch=st.sampled_from([1, special_functions._MAX_BATCH]),
)
def test_a_merged_pass_is_each_part_alone_bit_for_bit(parts, spec, batch):
    parts = [(f, alphas, growth + extra, constant) for (f, growth), alphas, extra, constant in parts]
    with mock.patch.object(special_functions, "_MAX_BATCH", batch):
        merged = gaussian_weighted_columns(parts, spec)
        alone = [
            gaussian_weighted_column(f, alphas, spec, growth_exponent=g, growth_constant=c)
            for f, alphas, g, c in parts
        ]
    # stopping at the first failure: the parts before it whole, and the part
    # holding it up to that row, its failure first
    failing = [i for i, (*_, failures) in enumerate(alone) if failures]
    assert len(merged) == (failing[0] + 1 if failing else len(parts))
    for (log_scale, values, errors, failures), (log_scale_1, values_1, errors_1, failures_1) in zip(
        merged, alone
    ):
        row = min(failures_1, default=len(values_1))
        assert same_bits(log_scale, log_scale_1)
        assert same_bits(values[:row], values_1[:row]) and same_bits(errors[:row], errors_1[:row])
        if failures_1:
            assert min(failures) == row
            assert failure_reprs({row: failures[row]}) == failure_reprs({row: failures_1[row]})


def test_a_raise_on_the_peaks_fails_the_part_s_first_row_with_a_peak():
    peaks = np.sqrt(0.5 * (np.array([3.0, 5.0]) - 1.0))

    def f(t):
        if np.isin(t, peaks).any():
            raise ValueError("no value at a peak")
        return np.exp(-t)

    parts = [(lambda t: np.exp(-t), [2.0, 0.5], 0.0, 1.0), (f, [0.5, 3.0, 5.0], 0.0, 1.0)]
    (_, values, errors, failures), (_, values_1, errors_1, failures_1) = gaussian_weighted_columns(
        parts
    )
    assert not failures and np.isfinite(values).all() and np.isfinite(errors).all()
    assert list(failures_1) == [1] and str(failures_1[1]) == "no value at a peak"
    # the alpha < 1 row before it has no peak read and is summed; the rows
    # from the failed one on are not
    assert np.isfinite(values_1[0]) and np.isnan(values_1[1:]).all()


def test_a_raise_on_one_row_s_peak_fails_that_row_and_sums_the_rows_before_it():
    peak = np.sqrt(0.5 * (np.array([5.0]) - 1.0))
    raised = []

    def f(t):
        if np.isin(t, peak).any():
            raised.append(t.size)
            raise ValueError("no value at the peak of alpha = 5")
        return np.exp(-t)

    parts = [(lambda t: np.exp(-t), [2.0, 0.5], 0.0, 1.0), (f, [0.5, 3.0, 5.0], 0.0, 1.0)]
    _, (_, values_1, errors_1, failures_1) = gaussian_weighted_columns(parts)
    # the call on both peaks raised, then the call on alpha = 5's peak alone
    assert raised == [2, 1]
    assert list(failures_1) == [2] and str(failures_1[2]) == "no value at the peak of alpha = 5"
    (_, alone, alone_errors, no_failures), = gaussian_weighted_columns([(f, [0.5, 3.0], 0.0, 1.0)])
    assert not no_failures and np.isfinite(alone).all()
    assert same_bits(values_1[:2], alone) and same_bits(errors_1[:2], alone_errors)
    assert np.isnan(values_1[2])


def test_a_raise_on_a_level_sum_block_fails_the_first_row_whose_own_points_raise():
    # alphas 3 and 5 share the first level's block; only alpha = 5's window
    # reaches beyond t = 7.5
    raised = []

    def f(t):
        if (t > 7.5).any():
            raised.append(t.size)
            raise ValueError("no value beyond 7.5")
        return np.exp(-t)

    _, values, errors, failures = gaussian_weighted_column(f, [3.0, 5.0])
    # the block of both rows raised, then alpha = 5's row alone
    assert len(raised) == 2 and raised[0] == 2 * raised[1]
    assert list(failures) == [1] and str(failures[1]) == "no value beyond 7.5"
    _, alone, alone_errors, no_failures = gaussian_weighted_column(f, [3.0])
    assert not no_failures and np.isfinite(alone).all()
    assert same_bits(values[:1], alone) and same_bits(errors[:1], alone_errors)
    assert np.isnan(values[1])


def test_a_pass_sums_no_later_part_in_the_level_that_overflows():
    # part 0's integrand is infinite beyond t = 9, which only alpha = 360's
    # window (R ~ 45) reaches: its first level sum is not finite, the pass
    # refuses there, so part 1's rows, after the failed one, are summed at no level
    calls = []

    def later(t):
        calls.append(t.size)
        return np.exp(-t)

    def overflowing(t):
        return np.where(t > 9.0, np.inf, np.exp(-1.3 * t))

    parts = [(overflowing, [2.0, 360.0], 0.0, 1.0), (later, [3.0, 5.0], 0.0, 1.0)]
    (_, values, errors, failures), = gaussian_weighted_columns(parts)
    assert list(failures) == [1] and failures[1].estimate == math.inf
    assert "level sum is not finite" in str(failures[1])
    assert calls == [2]  # the one call on its two rows' peaks
    alone = gaussian_weighted_column(parts[0][0], [2.0, 360.0])
    assert same_bits(values[:1], alone[1][:1]) and same_bits(errors[:1], alone[2][:1])
    # alone, the later part is summed
    assert not gaussian_weighted_columns(parts[1:])[0][3] and len(calls) > 2


@pytest.mark.parametrize("alpha", [344.4, 700.0, 1000.0, 1300.0])
def test_columns_past_the_old_overflow_lie_within_their_estimates_of_mpmath(alpha):
    # mantissa * e^log_scale against 60-digit closed forms, compared in units
    # of e^log_scale:
    #   int_0^inf e^(-ct) t^(a-1) e^(-t^2) dt = 2^(-a/2) Gamma(a) e^(c^2/8) D_{-a}(c / sqrt 2),
    #   int_0^inf t^p e^(-b t^2) t^(a-1) e^(-t^2) dt = Gamma((a+p)/2) / (2 (1+b)^((a+p)/2))
    mpmath = pytest.importorskip("mpmath")
    exponential = [(c, lambda t, c=c: np.exp(-c * t), 0.0) for c in (0.3, 1.3)]
    gaussian = [
        ((p, b), lambda t, p=p, b=b: t**p * np.exp(-b * t * t), float(p)) for p, b in ((0, 0.25), (2, 1.0))
    ]
    parts = [(f, [alpha], growth, 1.0) for _, f, growth in exponential + gaussian]
    columns = gaussian_weighted_columns(parts)
    assert len(columns) == len(parts)
    with mpmath.workdps(60):
        a = mpmath.mpf(alpha)
        exact = [
            2 ** (-a / 2) * mpmath.gamma(a) * mpmath.exp(mpmath.mpf(c) ** 2 / 8)
            * mpmath.pcfd(-a, mpmath.mpf(c) / mpmath.sqrt(2))
            for c, _, _ in exponential
        ] + [
            mpmath.gamma((a + p) / 2) / (2 * (1 + mpmath.mpf(b)) ** ((a + p) / 2))
            for (p, b), _, _ in gaussian
        ]
        for (log_scale, values, errors, failures), integral in zip(columns, exact):
            assert not failures and log_scale[0] == pytest.approx(reference_log_mass(alpha))
            mantissa = complex(integral / mpmath.exp(mpmath.mpf(float(log_scale[0]))))
            assert abs(values[0] - mantissa) <= errors[0], (alpha, values[0], mantissa, errors[0])
            # not vacuous: the estimate is a small share of the value
            assert errors[0] <= 1e-11 * abs(values[0])
