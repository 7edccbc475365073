import cmath
import math
import re

import numpy as np
import pytest

from fock_toeplitz.errors import ClassificationError, DomainError, PreconditionError
from fock_toeplitz.special_functions import (
    QuadratureSpec,
    gaussian_weighted_integral_with_estimate,
)
from fock_toeplitz.symbols import (
    RadialProfile,
    SymbolSpec,
    decompose,
    evaluate,
    polar_l2_norm,
    sample_polar,
)


def radial(profile, name="sym"):
    return SymbolSpec.from_modes({0: profile}, name=name)


RE_Z = SymbolSpec.from_modes(
    {1: RadialProfile.polynomial([0.0, 0.5]), -1: RadialProfile.polynomial([0.0, 0.5])},
    name="re_z",
)


class TestRadialProfile:
    def test_monomial_vectorised(self):
        p = RadialProfile.monomial(2.0)
        assert p(3.0) == 9.0
        np.testing.assert_allclose(p(np.array([1.0, 2.0])), [1.0, 4.0])

    def test_monomial_rejects_negative_power(self):
        with pytest.raises(DomainError):
            RadialProfile.monomial(-1.0)

    def test_polynomial_growth_metadata(self):
        p = RadialProfile.polynomial([1.0, 0.0, 2.0])
        assert p.growth_exponent == 2.0
        r = np.linspace(0.1, 50.0, 50)
        assert np.all(np.abs(p(r)) <= p.growth_constant * (1.0 + r) ** p.growth_exponent)

    def test_polynomial_trims_zero_tail(self):
        assert RadialProfile.polynomial([0.0, 1.0, 0.0]).growth_exponent == 1.0
        assert RadialProfile.polynomial([0.0]).is_zero

    def test_callable_bound_enforced(self):
        with pytest.raises(DomainError):
            RadialProfile.from_callable(
                lambda r: np.exp(np.asarray(r, dtype=float)),
                growth_exponent=2.0,
                growth_constant=1.0,
            )

    @pytest.mark.parametrize(
        "evaluator, shape",
        [
            (lambda r: 1.0, ()),
            (lambda r: np.ones(1), (1,)),
            (lambda r: np.exp(-np.asarray(r))[:, None], (128, 1)),
        ],
    )
    def test_callable_of_the_wrong_shape_is_refused(self, evaluator, shape):
        # a value that would broadcast is not one value per point
        refusal = re.escape(f"evaluator returned shape {shape} for points of shape (128,)")
        with pytest.raises(DomainError, match="^" + refusal + "$"):
            RadialProfile.from_callable(evaluator, 0.0, 1.0)

    @pytest.mark.parametrize(
        "growth, field",
        [
            (("x", 1.0), "growth_exponent"),
            ((None, 1.0), "growth_exponent"),
            ((0.0, "y"), "growth_constant"),
            ((0.0, None), "growth_constant"),
            ((0.0, 1j), "growth_constant"),
        ],
    )
    def test_growth_that_is_not_a_number_is_refused_by_name(self, growth, field):
        # float() alone raises ValueError for 'x' and TypeError for None
        value = growth[field == "growth_constant"]
        domain = "finite and >= 0" if field == "growth_exponent" else "finite and > 0"
        refusal = re.escape(f"{field} must be {domain}, got {value!r}")
        with pytest.raises(DomainError, match="^" + refusal + "$"):
            RadialProfile.from_callable(lambda r: np.exp(-np.asarray(r)), *growth)
        with pytest.raises(DomainError, match="^" + refusal + "$"):
            RadialProfile(*growth)

    def test_callable_accepts_valid_declaration(self):
        p = RadialProfile.from_callable(
            lambda r: np.exp(-np.asarray(r, dtype=float)),
            growth_exponent=0.0,
            growth_constant=1.0,
        )
        assert p(0.5) == pytest.approx(math.exp(-0.5))

    def test_conjugate(self):
        p = RadialProfile.polynomial([1.0 + 2.0j])
        assert p.conjugate()(1.0) == pytest.approx(1.0 - 2.0j)

    def test_gaussian_terms(self):
        # (2 + 0.5 - 1.5) r e^{-r^2/2} + 3 = r e^{-r^2/2} + 3
        p = RadialProfile.gaussian_terms(
            [(2.0, 1.0, 0.5), (0.5, 1.0, 0.5), (3.0, 0, 0), (-1.5, 1, 0.5)]
        )
        assert p.terms == ((3.0 + 0j, 0.0, 0.0), (1.0 + 0j, 1.0, 0.5))
        assert p.evaluator is None
        r = np.linspace(0.0, 6.0, 13)
        np.testing.assert_allclose(p(r), r * np.exp(-0.5 * r**2) + 3.0, rtol=1e-14)
        assert np.all(np.abs(p(r)) <= p.growth_constant * (1.0 + r) ** p.growth_exponent)
        assert RadialProfile.gaussian_terms([(1.0, 2.0, 1.0), (-1.0, 2.0, 1.0)]).is_zero

    @pytest.mark.parametrize(
        "bad",
        [
            (1.0, -1.0, 0.0),
            (1.0, 1.0, -0.5),
            (math.nan, 1.0, 0.0),
            (1.0, math.inf, 0.0),
            (1.0, 0.0, math.nan),
        ],
    )
    def test_gaussian_terms_rejects(self, bad):
        with pytest.raises(DomainError):
            RadialProfile.gaussian_terms([bad])

    def test_conjugate_stays_in_family(self):
        p = RadialProfile.gaussian_terms([(1.0 + 2.0j, 1.5, 0.3)])
        assert p.conjugate().terms == ((1.0 - 2.0j, 1.5, 0.3),)

    def test_from_samples_interpolates(self):
        r = np.linspace(0.1, 10.0, 60)
        p = RadialProfile.from_samples(r, r**2)
        assert p(r[17]) == pytest.approx(r[17] ** 2, rel=1e-12)
        assert p(5.05) == pytest.approx(5.05**2, rel=1e-6)

    def test_from_samples_needs_monotone_radii(self):
        with pytest.raises(PreconditionError):
            RadialProfile.from_samples([1.0, 0.5, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])


class TestSymbolSpec:
    def test_drops_zero_modes(self):
        spec = SymbolSpec.from_modes({0: RadialProfile.monomial(1.0), 2: RadialProfile.zero()})
        assert spec.mode_indices == (0,)
        assert spec.is_radial

    def test_radiality(self):
        assert radial(RadialProfile.monomial(2.0)).is_radial
        assert not RE_Z.is_radial

    @pytest.mark.parametrize(
        "modes, refusal",
        [
            # it was truncated to mode 1
            ({1.5: RadialProfile.monomial(1.0)}, "mode index must be an integer, got 1.5"),
            # it was taken as mode 1
            ({True: RadialProfile.monomial(1.0)}, "mode index must be an integer, got True"),
            # it raised an AttributeError
            (
                [(1, RadialProfile.monomial(1.0))],
                "modes must be a mapping of index to profile, got list",
            ),
        ],
    )
    def test_from_modes_refuses_malformed_modes(self, modes, refusal):
        with pytest.raises(DomainError, match="^" + re.escape(f"symbol 'v': {refusal}") + "$"):
            SymbolSpec.from_modes(modes, name="v")

    def test_an_index_given_twice_is_refused(self):
        # T_v was built from the second profile, v.mode(1) read the first
        items = ((1, RadialProfile.monomial(1.0)), (1, RadialProfile.monomial(2.0)))
        with pytest.raises(DomainError, match=re.escape("symbol 'v': mode index 1 is given more than once")):
            SymbolSpec(items, "v")

    @pytest.mark.parametrize("index", [0.5, "1", None, math.nan, math.inf, True, np.bool_(False)])
    def test_an_index_that_is_not_an_integer_is_refused(self, index):
        refusal = f"symbol 'v': mode index must be an integer, got {index!r}"
        with pytest.raises(DomainError, match="^" + re.escape(refusal) + "$"):
            SymbolSpec(((index, RadialProfile.monomial(1.0)),), "v")

    @pytest.mark.parametrize("profile", [lambda r: r, 2.0, None])
    def test_a_mode_that_is_not_a_profile_is_refused(self, profile):
        kind = type(profile).__name__
        refusal = f"symbol 'v': mode index 1: profile must be a RadialProfile, got {kind}"
        with pytest.raises(DomainError, match=re.escape(refusal)):
            SymbolSpec(((1, profile),), "v")

    # (1, 2) is the pair's parts, not a pair: it raised a bare TypeError
    @pytest.mark.parametrize(
        "items, item", [((1, 2), "1"), (((1,),), "(1,)"), (((1, 2, 3),), "(1, 2, 3)"), ((None,), "None")]
    )
    def test_a_mode_that_is_not_a_pair_is_refused(self, items, item):
        refusal = f"symbol 'v': mode {item} is not an (index, profile) pair"
        with pytest.raises(DomainError, match="^" + re.escape(refusal) + "$"):
            SymbolSpec(items, "v")

    def test_integral_indices_are_stored_as_ints(self):
        profile = RadialProfile.monomial(1.0)
        spec = SymbolSpec(((2.0, profile), (np.int64(-1), profile)), "v")
        assert spec.mode_indices == (2, -1)
        assert [type(j) for j in spec.mode_indices] == [int, int]
        assert spec.max_mode == 2 and type(spec.max_mode) is int

    def test_conjugate_flips_modes(self):
        spec = SymbolSpec.from_modes({1: RadialProfile.polynomial([0.0, 1.0j])})
        conj = spec.conjugate()
        assert conj.mode_indices == (-1,)
        z = 1.3 * cmath.exp(0.7j)
        assert evaluate(conj, z) == pytest.approx(evaluate(spec, z).conjugate(), rel=1e-13)


class TestEvaluate:
    def test_radial_example(self):
        spec = radial(RadialProfile.monomial(2.0))
        assert evaluate(spec, 2.0j) == pytest.approx(4.0)

    def test_re_z(self):
        for r, theta in [(1.0, 0.3), (2.5, -1.2), (0.7, 3.0)]:
            z = r * cmath.exp(1j * theta)
            assert evaluate(RE_Z, z) == pytest.approx(z.real, abs=1e-13)

    def test_z_squared_mode(self):
        spec = SymbolSpec.from_modes({2: RadialProfile.monomial(2.0)})
        value = evaluate(spec, cmath.exp(1j * math.pi / 4.0))
        assert value == pytest.approx(1.0j, abs=1e-14)

    def test_origin_radial_only(self):
        spec = radial(RadialProfile.polynomial([3.0, 1.0]))
        assert evaluate(spec, 0.0) == pytest.approx(3.0)

    def test_origin_rejects_nonvanishing_angular_mode(self):
        spec = SymbolSpec.from_modes({1: RadialProfile.monomial(0.0)})
        with pytest.raises(DomainError):
            evaluate(spec, 0.0)

    def test_origin_allows_vanishing_angular_mode(self):
        spec = SymbolSpec.from_modes({1: RadialProfile.monomial(1.0)})
        assert evaluate(spec, 0.0) == 0.0


class TestDecompose:
    def test_re_z_modes(self):
        radii = np.linspace(0.05, 6.0, 40)
        samples = sample_polar(RE_Z, radii, 16)
        spec = decompose(radii, samples, j_max=2)
        assert spec.mode_indices == (-1, 1)
        np.testing.assert_allclose(spec.mode(1)(radii), radii / 2.0, atol=1e-12)

    def test_radial_symbol_single_mode(self):
        radii = np.linspace(0.05, 6.0, 40)
        source = radial(
            RadialProfile.from_callable(
                lambda r: np.exp(-np.asarray(r, dtype=float)),
                growth_exponent=0.0,
                growth_constant=1.0,
            )
        )
        spec = decompose(radii, sample_polar(source, radii, 12), j_max=3)
        assert spec.mode_indices == (0,)
        assert spec.is_radial
        np.testing.assert_allclose(spec.mode(0)(radii), np.exp(-radii), atol=1e-12)

    def test_z_squared(self):
        radii = np.linspace(0.05, 4.0, 30)
        source = SymbolSpec.from_modes({2: RadialProfile.monomial(2.0)})
        spec = decompose(radii, sample_polar(source, radii, 10), j_max=3)
        assert spec.mode_indices == (2,)
        np.testing.assert_allclose(spec.mode(2)(radii), radii**2, atol=1e-10)

    def test_round_trip_random_trig_polynomials(self):
        rng = np.random.default_rng(20240817)
        radii = np.linspace(0.05, 8.0, 120)
        for _ in range(5):
            modes = {}
            for j in range(-4, 5):
                if rng.random() < 0.5:
                    continue
                coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
                modes[j] = RadialProfile.polynomial(list(coeffs))
            if not modes:
                modes[0] = RadialProfile.monomial(1.0)
            source = SymbolSpec.from_modes(modes)
            samples = sample_polar(source, radii, 14)
            spec = decompose(radii, samples, j_max=4)
            reconstruction = sample_polar(spec, radii, 14)
            assert np.max(np.abs(reconstruction - samples)) <= 1e-10

    def test_aliasing_precondition(self):
        radii = np.linspace(0.1, 3.0, 10)
        samples = np.ones((10, 3), dtype=complex)
        with pytest.raises(PreconditionError, match="M = 3"):
            decompose(radii, samples, j_max=2)

    def test_drop_floor_removes_noise_modes(self):
        radii = np.linspace(0.05, 5.0, 30)
        base = radial(RadialProfile.monomial(2.0))
        samples = sample_polar(base, radii, 12)
        samples[:, 3] += 1e-14  # angular noise far below the floor
        spec = decompose(radii, samples, j_max=3, drop_floor=1e-10)
        assert spec.mode_indices == (0,)

    def test_parseval_identity(self):
        # sum_j int |v_j|^2 r^(2s+1) e^(-r^2) dr = ||u||^2 / 2, both by quadrature
        spec = SymbolSpec.from_modes(
            {
                0: RadialProfile.polynomial([1.0, 0.5]),
                1: RadialProfile.monomial(1.0),
                -2: RadialProfile.polynomial([0.0, 0.0, 0.25]),
            }
        )
        quad = QuadratureSpec.for_exponent(16.0)
        for s in (0.0, 1.0, 2.3):
            lhs = 0.0
            for j, profile in spec.mode_items:
                lhs += gaussian_weighted_integral_with_estimate(
                    lambda r, p=profile: np.abs(p(r)) ** 2,
                    2.0 * s + 2.0,
                    quad,
                    growth_exponent=2.0 * profile.growth_exponent,
                )[0].real
            # independent 2D polar evaluation of the squared norm
            nodes, weights = np.polynomial.legendre.leggauss(400)
            r = 0.5 * 10.0 * (nodes + 1.0)
            w = 0.5 * 10.0 * weights
            values = sample_polar(spec, r, 32)
            mean_sq = np.mean(np.abs(values) ** 2, axis=1)
            norm_sq = 2.0 * float(np.sum(w * mean_sq * r ** (2.0 * s + 1.0) * np.exp(-(r**2))))
            assert lhs == pytest.approx(norm_sq / 2.0, rel=1e-6)


class TestFromSamplesGrowthLadder:
    # the growth ladder of sampled profiles, which decompose() relies on
    GRID = np.linspace(0.5, 50.0, 200)

    def test_constant(self):
        profile = RadialProfile.from_samples(self.GRID, np.ones(self.GRID.size))
        assert profile.growth_exponent == 0.0
        assert profile.growth_constant == pytest.approx(1.1, rel=1e-9)

    def test_cubic(self):
        assert RadialProfile.from_samples(self.GRID, self.GRID**3).growth_exponent == 3.0

    def test_bound_holds_with_headroom(self):
        values = 1.0 + 2.0 * self.GRID**2
        profile = RadialProfile.from_samples(self.GRID, values)
        bound = profile.growth_constant * (1.0 + self.GRID) ** profile.growth_exponent
        assert np.all(values <= bound)

    def test_super_polynomial_rejected(self):
        with pytest.raises(ClassificationError):
            RadialProfile.from_samples(self.GRID, np.exp(self.GRID))


class TestPolarL2Norm:
    @pytest.mark.parametrize("s", [0.0, 1.0, 2.3])
    def test_constant_symbol_norm(self, s):
        # ||1||_{L^2(G_s)} = sqrt(Gamma(s+1))
        radii = np.linspace(1e-4, 10.0, 20_000)
        samples = np.ones((radii.size, 8), dtype=complex)
        expected = math.sqrt(math.exp(math.lgamma(s + 1.0)))
        assert polar_l2_norm(radii, samples, s) == pytest.approx(expected, rel=1e-6)
