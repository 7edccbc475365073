import cmath
import contextlib
import math
import re
from dataclasses import replace

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


def reference_level_sum(f, alpha, cutoff, h, odd=False):
    """One level's sum and L1 mass over every node at step h, or over the
    odd-index ones only."""
    k = int(math.floor(6.0 / h))
    index = np.arange(-k, k + 1)
    u = h * (index[index % 2 == 1] if odd else index)
    y = 0.5 * math.pi * np.sinh(u)
    ey = np.exp(-2.0 * np.abs(y))
    t = np.where(y >= 0.0, cutoff / (1.0 + ey), cutoff * ey / (1.0 + ey))
    sech2 = 4.0 * ey / (1.0 + ey) ** 2
    w = h * (cutoff / 2.0) * (0.5 * math.pi) * np.cosh(u) * sech2
    mask = (w > 0.0) & (t > 0.0) & (t < cutoff)
    t, w = t[mask], w[mask]
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        weights = w * np.exp((alpha - 1.0) * np.log(t) - t * t)
        live = weights != 0.0
        t, weights = t[live], weights[live]
        if t.size == 0:
            return 0j, 0.0
        terms = weights * np.asarray(f(t))
        return complex(np.sum(terms)), float(np.sum(np.abs(terms)))


def reference_integral(f, alpha, spec, growth_exponent=0.0, nested=True):
    """The scalar level loop, with R widened to cover alpha + growth_exponent:
    (value, error estimate, level it stopped at).

    ``nested`` is the rule in use: a level adds its odd-node sum to half the
    previous level's sum.  Otherwise every level sums all of its nodes, the
    rule before nesting, kept as a value oracle."""
    cutoff = max(spec.tail_cutoff, reference_tail_radius(alpha + growth_exponent, spec.abs_tol))
    tail_log = (alpha + growth_exponent) * math.log(cutoff) - cutoff * cutoff
    tail_bound = math.exp(tail_log) if tail_log < 700.0 else math.inf
    h = 2.0 * 6.0 / spec.node_count
    eps = float(np.finfo(float).eps)
    previous, previous_mass = 0j, 0.0
    for level in range(9):
        if nested and level:
            total, mass = reference_level_sum(f, alpha, cutoff, h, odd=True)
            current, l1_mass = 0.5 * previous + total, 0.5 * previous_mass + mass
        else:
            current, l1_mass = reference_level_sum(f, alpha, cutoff, h)
        h *= 0.5
        if not (cmath.isfinite(current) and math.isfinite(l1_mass)):
            raise AccuracyError(
                "quadrature level sum is not finite (overflows double range) "
                f"for alpha={alpha:g}",
                estimate=math.inf,
            )
        if level:
            diff = abs(current - previous)
            rounding = (8.0 + math.sqrt(spec.node_count * 2**level)) * eps * l1_mass
            if diff <= max(spec.abs_tol, spec.rel_tol * abs(current)):
                return current, diff + tail_bound + rounding, level
        previous, previous_mass = current, l1_mass
    estimate = diff + tail_bound + rounding
    raise AccuracyError(
        f"quadrature did not reach tolerance (abs_tol={spec.abs_tol:g}, "
        f"rel_tol={spec.rel_tol:g}) for alpha={alpha:g}: "
        f"error estimate {estimate:.3e} after 8 refinements",
        estimate=estimate,
    )


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
        alphas = np.linspace(0.5, 400.0, 2000)
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

    def test_accuracy_error_carries_estimate(self):
        # A jump integrand defeats the smoothness assumption.
        ragged = QuadratureSpec(node_count=8, tail_cutoff=8.0, abs_tol=1e-15, rel_tol=1e-15)
        with pytest.raises(AccuracyError) as info:
            integral(lambda t: np.sign(t - 2.0), 1.0, ragged)
        assert info.value.estimate is not None
        assert info.value.estimate > 0.0

    @pytest.mark.parametrize("alpha", [343.7, 344.0])
    def test_overflowing_level_sum_raises(self, alpha):
        # the level sum of e^{-1.3t} t^(alpha-1) e^{-t^2} overflows (at 343.7 in
        # the node weights, at 344 already in the density); an infinite sum
        # passes the relative stopping test, so it must be refused explicitly
        spec = QuadratureSpec.for_exponent(alpha)
        with pytest.raises(AccuracyError, match=f"alpha={alpha:g}") as info:
            gaussian_weighted_integral_with_estimate(lambda t: np.exp(-1.3 * t), alpha, spec)
        assert info.value.estimate == math.inf

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
)
specs = st.sampled_from([DEFAULT_QUADRATURE, WIDE, RAGGED, QuadratureSpec(node_count=20)])


class TestNestedLevels:
    """Each level evaluates only its odd-index nodes and reuses the rest."""

    @pytest.mark.parametrize("node_count", [7, 8, 20, 48])
    def test_odd_nodes_and_coarse_nodes_are_the_fine_nodes(self, node_count):
        from fock_toeplitz.special_functions import _unit_nodes

        def sides(nodes):
            lower, *arrays = nodes
            rows = list(zip(*(array.tolist() for array in arrays)))
            return sorted(rows[:lower]), sorted(rows[lower:])

        h = 2.0 * 6.0 / node_count
        for _ in range(8):
            h *= 0.5
            coarse, odd = sides(_unit_nodes(2.0 * h)), sides(_unit_nodes(h, True))
            assert sides(_unit_nodes(h)) == tuple(sorted(c + o) for c, o in zip(coarse, odd))

    @pytest.mark.parametrize("rate", [0.3, 1.3, 2.9])
    @pytest.mark.parametrize("node_count", [7, 48])
    def test_rows_stop_at_the_full_level_rule_level(self, monkeypatch, rate, node_count):
        import fock_toeplitz.special_functions as special_functions

        spec = QuadratureSpec(node_count=node_count)
        level_sums = special_functions._level_sums
        last_step = {}

        def recording(f, alpha, cutoff, h, odd):
            last_step.update(dict.fromkeys(alpha.tolist(), h))
            return level_sums(f, alpha, cutoff, h, odd)

        monkeypatch.setattr(special_functions, "_level_sums", recording)
        f = decaying(rate, 0, 1.0)
        alphas = np.linspace(0.5, 340.0, 25)
        _, _, failures = gaussian_weighted_column(f, alphas, spec)
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
        values, errors, failures = gaussian_weighted_column(
            f, alphas, spec, growth_exponent=growth
        )
        for row, alpha in enumerate(alphas):
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
            assert row not in failures
            assert abs(values[row] - expected) <= max(1e-13 * abs(expected), estimate)
            # a row at the stopping threshold may stall under one rule only
            with contextlib.suppress(AccuracyError):
                full, _, _ = reference_integral(f, alpha, spec, growth, nested=False)
                assert abs(values[row] - full) <= max(1e-13 * abs(full), estimate)
            # a row does not depend on the rows beside it
            single = gaussian_weighted_integral_with_estimate(
                f, alpha, spec, growth_exponent=growth
            )
            assert single == (values[row], errors[row])

    def test_rows_do_not_depend_on_chunking(self, monkeypatch):
        import fock_toeplitz.special_functions as special_functions

        f = decaying(1.3, 1, 0.5 - 0.25j)
        alphas = np.linspace(1.0, 340.0, 60)
        whole = gaussian_weighted_column(f, alphas, growth_exponent=1.0)
        monkeypatch.setattr(special_functions, "_MAX_BATCH", 1)
        one_row_per_chunk = gaussian_weighted_column(f, alphas, growth_exponent=1.0)
        assert whole[0].tolist() == one_row_per_chunk[0].tolist()
        assert whole[1].tolist() == one_row_per_chunk[1].tolist()

    def test_failed_rows_are_nan_and_leave_the_others(self):
        alphas = [3.0, 344.0, 5.0]
        values, errors, failures = gaussian_weighted_column(
            lambda t: np.exp(-1.3 * t), alphas, QuadratureSpec.for_exponent(344.0)
        )
        assert list(failures) == [1] and failures[1].estimate == math.inf
        assert math.isnan(values[1].real) and math.isnan(errors[1])
        assert np.isfinite(values[[0, 2]]).all() and np.isfinite(errors[[0, 2]]).all()

    def test_bad_alpha_is_a_domain_error(self):
        with pytest.raises(DomainError, match="got -1.0"):
            gaussian_weighted_column(lambda t: t, [2.0, -1.0])
