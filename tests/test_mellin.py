import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fock_toeplitz.mellin as mellin
import fock_toeplitz.operators as operators
from fock_toeplitz.criterion import functional_equation_residuals
from fock_toeplitz.errors import AccuracyError, DomainError
from fock_toeplitz.mellin import MellinValue, mellin_weighted, mellin_weighted_cached
from fock_toeplitz.operators import matrix_to_csv, toeplitz_matrix
from fock_toeplitz.special_functions import QuadratureSpec
from fock_toeplitz.symbols import RadialProfile, SymbolSpec

QUAD = QuadratureSpec.for_exponent(80.0)

ONE = RadialProfile.monomial(0.0)
EXP_DECAY = RadialProfile.from_callable(
    lambda r: np.exp(-np.asarray(r, dtype=float)), growth_exponent=0.0, growth_constant=1.0
)


def via_quadrature(profile):
    """The same function as an evaluator profile, transformed by quadrature."""
    return RadialProfile.from_callable(profile, profile.growth_exponent, profile.growth_constant)


def transform(v, s, zeta, quad=QUAD):
    """M[v G_s](zeta) as one number, value * exp(log_scale)."""
    result = mellin_weighted(v, s, zeta, quad)
    return result.value * math.exp(result.log_scale)


def closed_form(p, s, zeta):
    """M[r^p G_s](zeta) = Gamma((zeta + p + 2s)/2) / (2 pi)."""
    return math.exp(math.lgamma((zeta + p + 2.0 * s) / 2.0)) / (2.0 * math.pi)


class TestClosedForm:
    def test_gaussian_density_anchor(self):
        # M[G](2z) = Gamma(z) / (2 pi) at z = 1
        assert transform(ONE, 0.0, 2.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)

    def test_trivial_gamma_two(self):
        assert transform(RadialProfile.monomial(2.0), 0.0, 2.0) == pytest.approx(
            1.0 / (2.0 * math.pi), rel=1e-14
        )
        assert transform(RadialProfile.monomial(1.0), 0.0, 3.0) == pytest.approx(
            1.0 / (2.0 * math.pi), rel=1e-14
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            mellin_weighted(ONE, 0.0, 0.0)
        with pytest.raises(DomainError):
            mellin_weighted(ONE, 0.0, -4.0)

    def test_gaussian_term(self):
        # c r^p e^{-b r^2}: c Gamma(a) / (2 pi (1+b)^a), a = (zeta + 2s + p)/2
        profile = RadialProfile.gaussian_terms([(0.7 - 0.2j, 1.5, 0.8)])
        a = (3.0 + 2.0 * 1.2 + 1.5) / 2.0
        expected = (0.7 - 0.2j) * math.exp(math.lgamma(a) - a * math.log(1.8)) / (2.0 * math.pi)
        assert transform(profile, 1.2, 3.0) == pytest.approx(expected, rel=1e-13)

    def test_log_scale_keeps_overflowing_transforms(self):
        # Gamma(250) / (2 pi) is far outside double range; the log domain keeps it
        result = mellin_weighted(ONE, 0.0, 500.0)
        assert result.log_scale == pytest.approx(math.lgamma(250.0), rel=1e-15)
        assert result.value == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)
        assert 0.0 < result.abs_error_estimate < 1e-11

    @pytest.mark.parametrize("s, zeta", [(0.5, 4.0), (0.0, 1.0), (0.0, 0.5), (172.0, 3.0)])
    def test_quadrature_values_carry_the_weight_s_log_mass(self, s, zeta):
        # log_scale is Laplace's estimate of log Gamma(alpha/2) - log 2, alpha =
        # zeta + 2s, or 0 for alpha <= 1; value alone is not the transform
        alpha = zeta + 2.0 * s
        half = 0.5 * (alpha - 1.0)
        laplace = half * (math.log(half) - 1.0) + 0.5 * math.log(0.5 * math.pi) if half > 0 else 0.0
        result = mellin_weighted(via_quadrature(ONE), s, zeta, QUAD)
        assert result.log_scale == pytest.approx(laplace, rel=1e-15, abs=0.0)
        # M[G_s](zeta) = Gamma(alpha/2) / (2 pi), beyond double range at s = 172
        exact = math.lgamma(0.5 * alpha) - math.log(2.0 * math.pi)
        assert math.log(result.value.real) + result.log_scale == pytest.approx(exact, rel=1e-13)

    def test_zero_profile(self):
        result = mellin_weighted(RadialProfile.zero(), 1.0, 3.0)
        assert (result.value, result.abs_error_estimate) == (0.0, 0.0)


class TestMellinWeighted:
    def test_density_example(self):
        assert transform(ONE, 0.0, 2.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)

    @pytest.mark.parametrize("quadrature", [False, True])
    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.3])
    def test_shifted_density_example(self, s, quadrature):
        # M[G_s](2) = Gamma(s+1) / (2 pi)
        profile = via_quadrature(ONE) if quadrature else ONE
        expected = math.exp(math.lgamma(s + 1.0)) / (2.0 * math.pi)
        assert transform(profile, s, 2.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.3])
    def test_monomial_oracle_agreement(self, p, s):
        # the quadrature against the closed Gamma form, on the same function
        profile = RadialProfile.monomial(p)
        quadrature = via_quadrature(profile)
        for zeta in range(1, 61, 7):
            exact = transform(profile, s, float(zeta))
            assert exact == pytest.approx(closed_form(p, s, float(zeta)), rel=1e-13)
            value = transform(quadrature, s, float(zeta))
            assert abs(value - exact) / abs(exact) <= 1e-10

    @pytest.mark.parametrize(
        "profile",
        [RadialProfile.monomial(1.0), via_quadrature(RadialProfile.monomial(1.0)), EXP_DECAY],
    )
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.3])
    def test_shift_relation(self, profile, s):
        # M[v G_s](zeta) = M[v G](2s + zeta)
        for zeta in (1.0, 2.0, 5.0, 11.0):
            shifted = mellin_weighted(profile, s, zeta, QUAD)
            unshifted = mellin_weighted(profile, 0.0, zeta + 2.0 * s, QUAD)
            budget = (shifted.abs_error_estimate + unshifted.abs_error_estimate) * math.exp(
                shifted.log_scale
            )
            difference = transform(profile, s, zeta) - transform(profile, 0.0, zeta + 2.0 * s)
            assert abs(difference) <= max(budget, 1e-14)

    @pytest.mark.parametrize("quadrature", [False, True])
    def test_linearity(self, quadrature):
        a, b = 2.0, -0.5
        wrap = via_quadrature if quadrature else (lambda profile: profile)
        combined = wrap(RadialProfile.polynomial([a, b]))  # a + b r
        lhs = transform(combined, 1.0, 3.0)
        rhs = a * transform(wrap(ONE), 1.0, 3.0) + b * transform(
            wrap(RadialProfile.monomial(1.0)), 1.0, 3.0
        )
        assert abs(lhs - rhs) <= 1e-12

    def test_error_estimate_is_finite_nonnegative(self):
        value = mellin_weighted(EXP_DECAY, 0.5, 4.0, QUAD)
        assert math.isfinite(value.abs_error_estimate)
        assert value.abs_error_estimate >= 0.0

    def test_holomorphy_domain(self):
        with pytest.raises(DomainError):
            mellin_weighted(ONE, 0.0, 0.0, QUAD)
        with pytest.raises(DomainError):
            mellin_weighted(ONE, 1.0, -2.0, QUAD)
        # zeta + 2s > 0 admits negative zeta for positive s
        value = mellin_weighted(via_quadrature(ONE), 1.0, -1.5, QUAD)
        assert isinstance(value, MellinValue)
        assert transform(via_quadrature(ONE), 1.0, -1.5) == pytest.approx(
            transform(ONE, 1.0, -1.5), rel=1e-10
        )

    def test_quadrature_failure_is_re_raised(self):
        # the level sums of an infinite profile are not finite at every argument
        infinite = RadialProfile(0.0, 1.0, evaluator=lambda r: np.full(np.shape(r), np.inf))
        with pytest.raises(AccuracyError, match="level sum is not finite") as info:
            mellin_weighted(infinite, 0.0, 2.0, QUAD)
        assert info.value.estimate == math.inf


FAMILY = RadialProfile.gaussian_terms([(0.7 - 0.2j, 1.5, 0.8), (1.0, 0.0, 0.0)])


class TestColumn:
    def test_column_matches_uncached_points(self):
        zetas = np.array([2.0, 3.5, 7.0, 41.0])
        log_scale, values, errors, failures = mellin._column(EXP_DECAY, 1.25, zetas, QUAD)
        assert failures == {} and log_scale.all()
        for zeta, scale, value, error in zip(zetas, log_scale, values, errors):
            point = mellin_weighted(EXP_DECAY, 1.25, zeta, QUAD)
            assert (point.log_scale, point.value, point.abs_error_estimate) == (scale, value, error)

    def test_failures_are_named(self):
        # infinite beyond r = 20, which only alpha = 344's window (R ~ 44) reaches
        decay = RadialProfile(
            0.0, 1.0, evaluator=lambda r: np.where(r > 20.0, np.inf, np.exp(-1.3 * r))
        )
        _, values, _, failures = mellin._column(decay, 0.0, np.array([2.0, 344.0, 4.0]), QUAD)
        assert list(failures) == [1] and isinstance(failures[1], AccuracyError)
        assert "alpha=344" in str(failures[1]) and np.isnan(values[1])

    @pytest.mark.parametrize("profile", [FAMILY, via_quadrature(FAMILY)])
    def test_cached_equals_uncached_at_non_integer_and_negative_zetas(self, profile):
        before = mellin_weighted_cached.cache_info()
        # zeta + 2s > 0 admits negative zeta for positive s
        for zeta in (-1.5, -0.25, 2.7, 33.125):
            first = mellin_weighted_cached(profile, 1.0, zeta, QUAD)
            assert first == mellin_weighted(profile, 1.0, zeta, QUAD)
            assert first == mellin_weighted_cached(profile, 1.0, zeta, QUAD)
        after = mellin_weighted_cached.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (4, 4)

    @pytest.mark.parametrize("profile", [FAMILY, EXP_DECAY])
    @pytest.mark.parametrize("zeta", [np.nan, np.inf, -np.inf, -7.0, -2.0])
    def test_arguments_outside_the_half_plane_are_refused_by_name(self, profile, zeta):
        # zeta + 2s must be finite and > 0 for both kinds (s = 1 here)
        refusal = f"zeta + 2s = {zeta + 2.0:g} must be finite and > 0 (zeta={zeta!r}, s=1.0)"
        with pytest.raises(DomainError, match=re.escape(refusal)):
            mellin._column(profile, 1.0, np.array([3.0, zeta]), QUAD)
        for transform in (mellin_weighted, mellin_weighted_cached, mellin_weighted_cached):
            with pytest.raises(DomainError, match=re.escape(refusal)):
                transform(profile, 1.0, zeta, QUAD)
        assert mellin_weighted_cached.cache_info().currsize == 0


family_profiles = st.lists(
    st.tuples(
        st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0, allow_nan=False),
        st.floats(0.0, 3.0),
        st.floats(0.0, 2.0),
    ),
    min_size=1,
    max_size=2,
).map(RadialProfile.gaussian_terms).filter(lambda profile: not profile.is_zero)
profiles = st.one_of(family_profiles, family_profiles.map(via_quadrature))


@settings(max_examples=30)
@given(
    modes=st.dictionaries(st.integers(-3, 3), profiles, min_size=1, max_size=2),
    s=st.floats(0.0, 5.0),
    n=st.integers(4, 24),
    smaller=st.integers(1, 23),
    k_max=st.integers(1, 4),
)
def test_matrix_bytes_do_not_depend_on_how_the_memo_was_warmed(modes, s, n, smaller, k_max):
    v = SymbolSpec.from_modes(modes, name="v")

    def csv_after(*warm_up):
        operators._memo.clear()
        for warm in warm_up:
            warm()  # the build reads what the warm-up left in the memo
        return matrix_to_csv(toeplitz_matrix(v, s, n))

    cold = csv_after()
    assert csv_after(lambda: toeplitz_matrix(v, s, n)) == cold
    assert csv_after(lambda: toeplitz_matrix(v, s, min(smaller, n))) == cold
    u = RadialProfile.monomial(2.0)
    # a report refuses a k_max below |j| of a negative mode j, which has no cell
    k_max = max(k_max, -min(v.mode_indices))
    assert csv_after(lambda: functional_equation_residuals(u, v, s, k_max)) == cold
