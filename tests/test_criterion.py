import json
import math

import pytest

from fock_toeplitz.criterion import (
    commutator_cross_check,
    functional_equation_residuals,
    moment_vanishing_probe,
    periodicity_probe,
    phi,
    psi,
)
from fock_toeplitz.errors import DomainError, PreconditionError
from fock_toeplitz.operators import radial_eigenvalues, toeplitz_matrix, commutator
from fock_toeplitz.special_functions import QuadratureSpec
from fock_toeplitz.symbols import RadialProfile, SymbolSpec

QUAD = QuadratureSpec.for_exponent(80.0)

R2 = RadialProfile.monomial(2.0)
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

    def test_preconditions(self):
        with pytest.raises(DomainError):
            phi(1, -1, 0.0, R2, QUAD)
        with pytest.raises(DomainError):
            phi(-3, 2, 0.0, R2, QUAD)


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


class TestMomentVanishingProbe:
    def test_zero_function(self):
        probes = moment_vanishing_probe(RadialProfile.zero(), 1.0, [1, 2, 3], QUAD)
        assert all(p.value == 0.0 and p.below_tolerance for p in probes)

    def test_constant_function_gamma_moments(self):
        probes = moment_vanishing_probe(ONE, 1.0, [1, 2, 5], QUAD)
        for p in probes:
            assert p.value.real == pytest.approx(math.exp(math.lgamma(p.k + 1.0)), rel=1e-10)
            assert not p.below_tolerance

    def test_one_minus_t(self):
        # int (1-t) e^{-t} t dt = Gamma(2) - Gamma(3) = -1
        profile = RadialProfile.polynomial([1.0, -1.0])
        probes = moment_vanishing_probe(profile, 1.0, [1], QUAD)
        assert probes[0].value.real == pytest.approx(-1.0, rel=1e-10)
        assert not probes[0].below_tolerance

    def test_fractional_exponent(self):
        # a = 0.5, k = 2: int e^{-t} t dt = 1
        probes = moment_vanishing_probe(ONE, 0.5, [2], QUAD)
        assert probes[0].value.real == pytest.approx(1.0, rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            moment_vanishing_probe(ONE, 2.5, [1], QUAD)
        with pytest.raises(DomainError):
            moment_vanishing_probe(ONE, 1.0, [0], QUAD)


class TestPeriodicityProbe:
    @pytest.mark.parametrize("j", [1, 2])
    def test_constant_u_periodic(self, j):
        diff, err = periodicity_probe(ONE, 0.0, j, [0.0, 0.5, 1.0], QUAD)
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
