import math

import numpy as np
import pytest

from fock_toeplitz.errors import AccuracyError, DomainError
from fock_toeplitz.special_functions import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    gaussian_weighted_integral_with_estimate,
    log_gamma,
    tail_radius,
)

WIDE = QuadratureSpec.for_exponent(92.0)


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

    def test_tail_radius_bound(self):
        for alpha in (1.0, 10.0, 80.0):
            r = tail_radius(alpha, 1e-13)
            assert math.exp(-r * r) * r**alpha < 1e-13

    def test_covering_widens_only_when_needed(self):
        spec = QuadratureSpec()
        assert spec.covering(1.0) is spec
        widened = spec.covering(90.0)
        assert widened.tail_cutoff > spec.tail_cutoff
        assert math.exp(-widened.tail_cutoff**2) * widened.tail_cutoff**90.0 < spec.abs_tol


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
