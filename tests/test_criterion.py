import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fock_toeplitz.criterion as criterion
from fock_toeplitz.criterion import (
    Cell,
    commutator_cross_check,
    functional_equation_residuals,
    periodicity_probe,
    phi,
    psi,
)
from fock_toeplitz.errors import AccuracyError, DomainError, PreconditionError
from fock_toeplitz.mellin import mellin_weighted
from fock_toeplitz.operators import radial_eigenvalues, toeplitz_matrix, commutator
from fock_toeplitz.special_functions import DEFAULT_QUADRATURE, QuadratureSpec
from fock_toeplitz.symbols import RadialProfile, SymbolSpec

QUAD = QuadratureSpec.for_exponent(80.0)

R2 = RadialProfile.monomial(2.0)
R2_CALLABLE = RadialProfile.from_callable(lambda r: np.asarray(r, dtype=float) ** 2, 2.0, 1.0)
# exp(-1.3 r) at s = 12: the quadrature level sum at zeta = 320 overflows
DECAY = RadialProfile.from_callable(
    lambda r: np.exp(-1.3 * np.asarray(r, dtype=float)), growth_exponent=0.0, growth_constant=1.0
)
ONE = RadialProfile.monomial(0.0)
Z = SymbolSpec.from_modes({1: RadialProfile.monomial(1.0)}, name="z")
Z2 = SymbolSpec.from_modes({2: RadialProfile.monomial(2.0)}, name="z2")
RADIAL_V = SymbolSpec.from_modes({0: RadialProfile.polynomial([1.0, 0.0, 0.5])}, name="radial")


class TestPhi:
    def test_zero_mode_vanishes(self):
        for k in (0, 3, 9):
            assert phi(0, k, 1.0, R2, QUAD)[0] == 0.0

    @pytest.mark.parametrize("s", [0.0, 0.5, 2.3])
    def test_constant_symbol_vanishes(self, s):
        for j in (1, 2):
            for k in (0, 2, 7):
                value, err = phi(j, k, s, ONE, QUAD)
                assert abs(value) <= 3.0 * err

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.3])
    def test_quadratic_symbol_closed_form(self, s):
        # Phi_j(k+s) = -j / (2 pi) for u = r^2, independent of k
        for j in (1, 2, 3):
            for k in (0, 1, 5):
                value, _ = phi(j, k, s, R2, QUAD)
                assert value.real == pytest.approx(-j / (2.0 * math.pi), rel=1e-10)
                assert abs(value.imag) <= 1e-15

    def test_matches_eigenvalue_differences(self):
        # Phi_1(k+s) = (lambda(k) - lambda(k+1)) / (2 pi) via the diagonal
        s = 0.5
        lam = radial_eigenvalues(R2, s, 8, QUAD).real
        for k in range(6):
            expected = (lam[k] - lam[k + 1]) / (2.0 * math.pi)
            assert phi(1, k, s, R2, QUAD)[0].real == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("s", [0.0, 2.3])
    def test_index_symmetry(self, s):
        # Phi_j(k) = -Phi_{-j}(k+j)
        for u in (R2, RadialProfile.polynomial([1.0, 0.0, 1.0])):
            for j in (1, 2, 3):
                for k in (0, 1, 4):
                    forward, _ = phi(j, k, s, u, QUAD)
                    backward, _ = phi(-j, k + j, s, u, QUAD)
                    assert abs(forward + backward) <= 1e-12

    def test_evaluator_profile_matches_closed_form(self):
        # the quadrature column of a callable r^2 gives the same -j / (2 pi)
        for j in (-1, 1, 2):
            for k in (1, 4):
                value, err = phi(j, k, 0.5, R2_CALLABLE, QUAD)
                assert abs(value - (-j / (2.0 * math.pi))) <= 1e-10 + 3.0 * err

    def test_evaluator_quadrature_failure_names_the_column(self):
        # H(k + j) reads u's column at m = 159, where the level sum overflows
        with pytest.raises(AccuracyError, match=r"symbol 'u' at mode j=0, column m=159: "):
            phi(1, 158, 12.0, DECAY)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            phi(1, -1, 0.0, R2, QUAD)
        with pytest.raises(DomainError):
            phi(-3, 2, 0.0, R2, QUAD)

    @pytest.mark.filterwarnings("error")
    def test_h_beyond_double_range_is_named(self):
        huge = RadialProfile.monomial(1000.0)  # H(0) = Gamma(501) / (2 pi)
        with pytest.raises(DomainError, match=r"^H\(m\+s\) .* at m=0, s=0 leaves double range$"):
            phi(1, 0, 0.0, huge, QUAD)
        with pytest.raises(DomainError, match=r"at m=0.5, s=0 leaves double range$"):
            periodicity_probe(huge, 0.0, 1, [0.5], QUAD)


class TestPsi:
    def test_zero_profile(self):
        assert psi(1, 0, 0.0, RadialProfile.zero(), QUAD)[0] == 0.0

    @pytest.mark.parametrize("s", [0.0, 0.5, 2.3])
    def test_linear_profile(self, s):
        # Psi_1(k+s) = Gamma(s+k+2) / (2 pi)
        for k in (0, 1, 4):
            expected = math.exp(math.lgamma(s + k + 2.0)) / (2.0 * math.pi)
            assert psi(1, k, s, RadialProfile.monomial(1.0), QUAD)[0].real == pytest.approx(
                expected, rel=1e-11
            )

    def test_monomial_general(self):
        # Psi_j = Gamma((p + j + 2k + 2 + 2s)/2) / (2 pi)
        p, j, k, s = 3.0, 2, 1, 0.5
        expected = math.exp(math.lgamma((p + j + 2 * k + 2 + 2 * s) / 2.0)) / (2.0 * math.pi)
        assert psi(j, k, s, RadialProfile.monomial(p), QUAD)[0].real == pytest.approx(
            expected, rel=1e-11
        )

    def test_error_estimate_available(self):
        value, err = psi(1, 0, 0.0, RadialProfile.monomial(1.0), QUAD)
        assert err >= 0.0 and math.isfinite(err)

    def test_overflow_names_the_cell(self):
        # Psi_1(k+s) = Gamma(k + s + 2) / (2 pi) is finite at k = 1, s = 168
        # and leaves double range at k = 2
        assert math.isfinite(abs(psi(1, 1, 168.0, RadialProfile.monomial(1.0))[0]))
        with pytest.raises(DomainError, match=r"^Psi_1\(k\+s\) at k=2, s=168 "):
            psi(1, 2, 168.0, RadialProfile.monomial(1.0))

    @pytest.mark.parametrize("k", [-5, math.nan, 1.5])
    def test_k_is_checked_as_phi_checks_it(self, k):
        # the Mellin integral diverges at k = -5; phi refuses the same k
        refusal = rf"^k must be a nonnegative integer, got {k!r}$"
        for factor in (phi, psi):
            with pytest.raises(DomainError, match=refusal):
                factor(1, k, 0.0, R2, QUAD)

    def test_j_plus_k_is_checked_as_phi_checks_it(self):
        for factor in (phi, psi):
            with pytest.raises(DomainError, match=r"^need integer j with j \+ k >= 0, got j=-3, k=2$"):
                factor(-3, 2, 0.0, R2, QUAD)

    def test_evaluator_quadrature_failure_names_the_column(self):
        with pytest.raises(AccuracyError, match=r"symbol 'v' at mode j=0, column m=159: ") as info:
            psi(0, 159, 12.0, DECAY)
        assert info.value.estimate == math.inf


class TestFunctionalEquationResiduals:
    def test_radial_v_consistent(self):
        report = functional_equation_residuals(R2, RADIAL_V, 0.0, 6, QUAD)
        assert report.verdict.kind == "consistent_radial"
        assert all(j == 0 for (j, _) in report.cells)

    def test_constant_u_inconclusive(self):
        report = functional_equation_residuals(ONE, Z, 0.0, 6, QUAD)
        assert report.verdict.kind == "inconclusive"
        assert report.verdict.reason == "u constant"
        # Psi is nonzero even though the products vanish
        assert max(abs(cell.psi) for cell in report.cells.values()) > 0.1

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.3])
    def test_nonradial_detection(self, s):
        report = functional_equation_residuals(R2, Z, s, 8, QUAD)
        assert report.verdict.kind == "nonradial_mode_detected"
        assert report.verdict.modes == (1,)

    def test_product_value_example(self):
        # u = r^2, v = z, s = 0, k = 0: product = -1/(4 pi^2)
        report = functional_equation_residuals(R2, Z, 0.0, 4, QUAD)
        assert report.cells[(1, 0)].product.real == pytest.approx(
            -1.0 / (4.0 * math.pi**2), rel=1e-10
        )

    def test_products_stored_exactly(self):
        report = functional_equation_residuals(R2, Z2, 1.0, 5, QUAD)
        for cell in report.cells.values():
            assert cell.product == cell.phi * cell.psi

    def test_matrix_residuals_filled(self):
        report = functional_equation_residuals(R2, Z, 0.5, 6, QUAD)
        assert report.cells
        assert max(cell.matrix_residual for cell in report.cells.values()) <= 1e-8
        # largest windowed commutator entry sits at the window edge (W, W-1)
        # with value sqrt(s + W), W = N - 1 - band = 8
        assert report.matrix_window_residual == pytest.approx(math.sqrt(0.5 + 8.0), rel=1e-9)

    def test_phi_and_psi_alive_at_different_k_without_a_product_is_inconsistent(self):
        # Phi_1 exceeds its error bar only at k = 0 and Psi_1 only at k = 1, so
        # no product does: the cells contradict each other.
        cells = {
            (1, 0): Cell(1, 0, 1.0 + 0j, 1e-3, 0j, 1e-3, 0.0),
            (1, 1): Cell(1, 1, 0j, 1e-3, 1.0 + 0j, 1e-3, 0.0),
        }
        verdict = criterion._decide(cells, (1,), 0.0, True, 3.0)
        assert verdict.kind == "inconclusive"
        assert verdict.reason.startswith("internal inconsistency: products vanish")

    def test_hypothesis_flag_off_without_observation(self):
        report = functional_equation_residuals(
            R2, Z, 0.0, 6, QUAD, assert_commutation=False
        )
        # commutator residual is sqrt(s+1) != 0, so nothing is in force
        assert report.verdict.kind == "inconclusive"
        assert "commutation hypothesis" in report.verdict.reason

    def test_hypothesis_observed_for_radial_pair(self):
        # commuting pair: the measured residual certifies the hypothesis even
        # when the caller does not assert it
        report = functional_equation_residuals(
            R2, RADIAL_V, 0.0, 6, QUAD, assert_commutation=False
        )
        assert report.verdict.kind == "consistent_radial"

    def test_undersized_truncation_refused(self):
        # k_max = 10 with a j = 2 mode needs N >= 10 + 2*2 + 1 = 15 so that
        # every cell is cross-checked against the commutator matrix
        with pytest.raises(PreconditionError, match=r"N = 14 .*k_max = 10 .*max\|j\| = 2"):
            functional_equation_residuals(R2, Z2, 0.0, 10, QUAD, N=14)
        report = functional_equation_residuals(R2, Z2, 0.0, 10, QUAD, N=15)
        assert len(report.cells) == 11

    def test_one_report_builds_two_matrices(self, monkeypatch):
        import fock_toeplitz.criterion as criterion

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return toeplitz_matrix(*args, **kwargs)

        monkeypatch.setattr(criterion, "toeplitz_matrix", counting)
        functional_equation_residuals(R2, Z, 0.5, 6, QUAD)
        assert len(calls) == 2

    def test_overflow_names_first_failing_cell(self):
        # at s = 168, Psi_1(k+s) = Gamma(k + s + 2) / (2 pi) leaves double range
        # at k = 2; with |Phi| ~ 1e5 the products of mode -1 already do
        v = SymbolSpec.from_modes(
            {-1: RadialProfile.monomial(0.0), 1: RadialProfile.monomial(1.0)}, name="v"
        )
        with pytest.raises(DomainError, match=r"^Psi_1\(k\+s\) at k=2, s=168 "):
            functional_equation_residuals(R2, v, 168.0, 3)
        with pytest.raises(DomainError, match=r"^Phi_-1 \* Psi_-1\(k\+s\) at k=2, s=168 "):
            functional_equation_residuals(RadialProfile.polynomial([0, 0, 1e6]), v, 168.0, 3)

    def test_cells_match_public_phi_and_psi(self):
        # the report's column path and the public one-cell functions agree
        u = RadialProfile.polynomial([1.0, 0.0, 0.5, 0.0, 0.25])
        v = SymbolSpec.from_modes(
            {-1: RadialProfile.gaussian_terms([(1.0, 1.0, 0.5)]), 0: R2, 2: R2_CALLABLE}, name="v"
        )
        s = 0.5
        report = functional_equation_residuals(u, v, s, 5, QUAD)
        for (j, k), cell in report.cells.items():
            for (value, err), (expected, expected_err) in (
                ((cell.phi, cell.phi_err), phi(j, k, s, u, QUAD)),
                ((cell.psi, cell.psi_err), psi(j, k, s, v.mode(j), QUAD)),
            ):
                assert value == pytest.approx(expected, rel=1e-14, abs=1e-300), (j, k)
                assert err == pytest.approx(expected_err, rel=1e-14, abs=1e-300), (j, k)

    def test_json_and_csv_stable(self):
        report = functional_equation_residuals(R2, Z, 2.3, 5, QUAD)
        first, second = report.to_json(), report.to_json()
        assert first == second
        payload = json.loads(first)
        assert payload["verdict"]["kind"] == "nonradial_mode_detected"
        assert payload["verdict"]["modes"] == [1]
        assert payload["cells"]
        csv_text = report.to_csv()
        header, *rows = csv_text.strip().split("\n")
        assert header == "s,j,k,abs_phi,abs_psi,abs_product,matrix_discrepancy"
        assert len(rows) == len(report.cells)


def scalar_reference_cell(j, k, s, u, v_j, quad):
    """Cell (j, k) from the closed formulas, one scalar transform at a time
    through the public uncached ``mellin_weighted``."""
    phi_value, phi_err = 0j, 0.0
    if j != 0:
        for sign, index in ((1.0, k), (-1.0, k + j)):
            transform = mellin_weighted(u, s, 2 * index + 2, quad)
            inv_gamma = math.exp(transform.log_scale - math.lgamma(index + s + 1.0))
            phi_value += sign * transform.value * inv_gamma
            phi_err += transform.abs_error_estimate * inv_gamma
    transform = mellin_weighted(v_j, s, 2 * k + j + 2, quad)
    scale = math.exp(transform.log_scale)
    psi_value, psi_err = transform.value * scale, transform.abs_error_estimate * scale
    return Cell(j, k, phi_value, phi_err, psi_value, psi_err, 0.0)


family_profiles = st.lists(
    st.tuples(
        st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0, allow_nan=False),
        st.floats(0.0, 3.0),
        st.floats(0.0, 2.0),
    ),
    min_size=1,
    max_size=2,
).map(RadialProfile.gaussian_terms).filter(lambda profile: not profile.is_zero)
profiles = st.one_of(
    family_profiles,
    family_profiles.map(
        lambda p: RadialProfile.from_callable(p, p.growth_exponent, p.growth_constant)
    ),
)


class TestAgainstScalarReference:
    @settings(max_examples=40, deadline=None)
    @given(
        u=profiles,
        modes=st.dictionaries(st.integers(-3, 3), profiles, min_size=1, max_size=3),
        s=st.floats(0.0, 5.0),
        k_max=st.integers(1, 6),
    )
    def test_cells_and_verdict_match_scalar_formulas(self, u, modes, s, k_max):
        v = SymbolSpec.from_modes(modes, name="v")
        report = functional_equation_residuals(u, v, s, k_max)
        reference = {
            key: scalar_reference_cell(*key, s, u, v.mode(key[0]), DEFAULT_QUADRATURE)
            for key in report.cells
        }
        for key, cell in report.cells.items():
            ref = reference[key]
            for value, expected, error in (
                (cell.phi, ref.phi, cell.phi_err),
                (cell.psi, ref.psi, cell.psi_err),
                (cell.product, ref.product, cell.product_err),
            ):
                assert abs(value - expected) <= 1e-13 * abs(expected) + error, key
            for error, expected in (
                (cell.phi_err, ref.phi_err),
                (cell.psi_err, ref.psi_err),
                (cell.product_err, ref.product_err),
            ):
                assert error == pytest.approx(expected, rel=1e-13, abs=0.0), key
            assert cell.matrix_residual <= 1e-8, key
        verdict = criterion._decide(
            reference,
            v.mode_indices,
            report.matrix_window_residual,
            True,
            report.verdict_multiplier,
        )
        assert report.verdict == verdict


class TestCommutatorCrossCheck:
    def test_radial_pair_zero_discrepancy(self):
        cells = commutator_cross_check(R2, RADIAL_V, 1.0, 10, QUAD)
        assert cells
        assert all(value == 0.0 for value in cells.values())

    @pytest.mark.parametrize("s", [0.0, 1.0])
    def test_z_mode_formula_matches_matrix(self, s):
        cells = commutator_cross_check(R2, Z, s, 12, QUAD)
        assert max(cells.values()) <= 1e-10

    def test_z_squared_explicit_oracle(self):
        # matrix side at (j,k) = (2,0), s = 0: (lambda(2)-lambda(0)) <T e_0, e_2>
        op_u = toeplitz_matrix(SymbolSpec.from_modes({0: R2}), 0.0, 4, QUAD)
        op_v = toeplitz_matrix(Z2, 0.0, 4, QUAD)
        comm = commutator(op_u, op_v)
        entry = op_v.entries[2, 0] * (op_u.entries[2, 2] - op_u.entries[0, 0])
        assert comm.entries[2, 0] == pytest.approx(entry, rel=1e-12)
        assert entry.real == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-10)
        cells = commutator_cross_check(R2, Z2, 0.0, 10, QUAD)
        assert cells[(2, 0)] <= 1e-10

    def test_window_precondition(self):
        with pytest.raises(PreconditionError):
            commutator_cross_check(R2, Z2, 0.0, 4, QUAD, k_max=10)


class TestPeriodicityProbe:
    @pytest.mark.parametrize("j", [1, 2])
    def test_constant_u_periodic(self, j):
        diff, err = periodicity_probe(ONE, 0.0, j, [0.0, 0.5, 1.0], QUAD)
        assert diff <= 3.0 * err

    def test_evaluator_constant_periodic(self):
        constant = RadialProfile.from_callable(lambda r: np.full(np.shape(r), 1.5), 0.0, 1.5)
        diff, err = periodicity_probe(constant, 0.5, 2, [0.0, 0.75, 3.0], QUAD)
        assert diff <= 3.0 * err

    def test_scaled_constant(self):
        profile = RadialProfile.polynomial([4.2])
        diff, err = periodicity_probe(profile, 1.0, 1, [0.0, 1.0, 2.0], QUAD)
        assert diff <= 3.0 * err

    def test_quadratic_breaks_periodicity(self):
        # H(z) = (z+1)/(2 pi) for u = r^2, so |H(z) - H(z+1)| = 1/(2 pi)
        value, _ = periodicity_probe(R2, 0.0, 1, [0.0, 0.5, 1.0], QUAD)
        assert value == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            periodicity_probe(R2, 0.0, 1, [-1.5], QUAD)
        with pytest.raises(DomainError):
            periodicity_probe(R2, 0.0, 0, [0.0], QUAD)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("point", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("u", [R2, R2_CALLABLE])
    def test_non_finite_grid_point_is_named(self, u, point):
        with pytest.raises(DomainError, match=rf"^grid point {point!r} must be finite"):
            periodicity_probe(u, 0.0, 1, [0.5, point], QUAD)
