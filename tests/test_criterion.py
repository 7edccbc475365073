import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fock_toeplitz.criterion as criterion
import fock_toeplitz.operators as operators
from fock_toeplitz.criterion import (
    Cell,
    commutator_cross_check,
    functional_equation_residuals,
    periodicity_probe,
    phi,
    psi,
)
from fock_toeplitz.errors import AccuracyError, DomainError, PreconditionError
from fock_toeplitz.mellin import mellin_weighted, mellin_weighted_cached
from fock_toeplitz.operators import radial_eigenvalues, toeplitz_matrix, commutator
from fock_toeplitz.special_functions import DEFAULT_QUADRATURE, QuadratureSpec
from fock_toeplitz.symbols import RadialProfile, SymbolSpec

QUAD = QuadratureSpec.for_exponent(80.0)

R2 = RadialProfile.monomial(2.0)
R2_CALLABLE = RadialProfile.from_callable(lambda r: np.asarray(r, dtype=float) ** 2, 2.0, 1.0)
DECAY = RadialProfile.from_callable(
    lambda r: np.exp(-1.3 * np.asarray(r, dtype=float)), growth_exponent=0.0, growth_constant=1.0
)
# exp(-1.3 r) up to r = 9, then infinite: the level sum of a column whose
# window reaches beyond r = 9 (alpha above ~ 100) is not finite
INFINITE_TAIL = RadialProfile(
    0.0, 1.0, evaluator=lambda r: np.where(r > 9.0, np.inf, np.exp(-1.3 * r))
)
ONE = RadialProfile.monomial(0.0)
Z = SymbolSpec.from_modes({1: RadialProfile.monomial(1.0)}, name="z")
Z2 = SymbolSpec.from_modes({2: RadialProfile.monomial(2.0)}, name="z2")
GAUSS = RadialProfile.gaussian_terms([(0.7, 1.0, 0.5)])  # 0.7 r exp(-r^2 / 2)
RADIAL_V = SymbolSpec.from_modes({0: RadialProfile.polynomial([1.0, 0.0, 0.5])}, name="radial")


class TestPhi:
    def test_zero_mode_vanishes(self):
        for k in (0, 3, 9):
            assert phi(0, k, 1.0, R2, QUAD)[0] == 0.0

    # at s = 1e4 a Gaussian profile's entries underflow; a constant's do not
    @pytest.mark.parametrize("s", [0.0, 0.5, 2.3, 1e4])
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
        # H(k + j) reads u's column at m = 159 (alpha = 320), where the level sum
        # is not finite; H(k) reads m = 0 (alpha = 2, R = 8)
        with pytest.raises(AccuracyError, match=r"symbol 'u' at mode j=0, column m=159: ") as info:
            phi(159, 0, 0.0, INFINITE_TAIL)
        assert "level sum is not finite" in str(info.value) and info.value.estimate == math.inf

    def test_preconditions(self):
        with pytest.raises(DomainError):
            phi(1, -1, 0.0, R2, QUAD)
        with pytest.raises(DomainError):
            phi(-3, 2, 0.0, R2, QUAD)

    @pytest.mark.filterwarnings("error")
    def test_h_beyond_double_range_is_named(self):
        # H(0) = Gamma(501) / (2 pi) is u's diagonal entry at m = 0 over 2 pi
        huge = RadialProfile.monomial(1000.0)
        refusal = r"^entry of symbol 'u' at mode j=0, column m={} leaves double range$"
        with pytest.raises(DomainError, match=refusal.format(0)):
            phi(1, 0, 0.0, huge, QUAD)
        with pytest.raises(DomainError, match=refusal.format(r"0\.5")):
            periodicity_probe(huge, 0.0, 1, [0.5], QUAD)


class TestPsi:
    @pytest.mark.parametrize("s", [0.0, 1e4])
    def test_zero_profile(self, s):
        # all-zero entries of the zero profile are its value, not an underflow
        assert psi(1, 0, s, RadialProfile.zero(), QUAD) == (0j, 0.0)

    @pytest.mark.parametrize("s", [0.0, 0.5, 2.3])
    def test_linear_profile(self, s):
        # Psi~_1(k+s) = Gamma(s+k+2) / (2 pi sqrt(Gamma(s+k+1) Gamma(s+k+2)))
        # = sqrt(s+k+1) / (2 pi), the entry <T_z e_k, e_{k+1}> over 2 pi
        for k in (0, 1, 4):
            expected = math.sqrt(s + k + 1.0) / (2.0 * math.pi)
            assert psi(1, k, s, RadialProfile.monomial(1.0), QUAD)[0].real == pytest.approx(
                expected, rel=1e-11
            )

    def test_monomial_general(self):
        # Psi~_j = Gamma((p + j + 2k + 2 + 2s)/2) / (2 pi sqrt(Gamma(s+k+1) Gamma(s+k+j+1)))
        p, j, k, s = 3.0, 2, 1, 0.5
        log_norm = 0.5 * (math.lgamma(s + k + 1.0) + math.lgamma(s + k + j + 1.0))
        log_psi = math.lgamma((p + j + 2 * k + 2 + 2 * s) / 2.0) - log_norm
        expected = math.exp(log_psi) / (2.0 * math.pi)
        assert psi(j, k, s, RadialProfile.monomial(p), QUAD)[0].real == pytest.approx(
            expected, rel=1e-11
        )

    def test_matches_matrix_entry(self):
        # Psi~_j(k+s) = T_v[k+j, k] / (2 pi), bit for bit
        v = SymbolSpec.from_modes({-1: R2, 2: R2_CALLABLE}, name="v")
        op = toeplitz_matrix(v, 0.5, 8, QUAD)
        for j in (-1, 2):
            for k in range(max(0, -j), 8 - max(0, j)):
                assert psi(j, k, 0.5, v.mode(j), QUAD)[0] == op.entries[k + j, k] / (2.0 * math.pi)

    def test_error_estimate_available(self):
        value, err = psi(1, 0, 0.0, RadialProfile.monomial(1.0), QUAD)
        assert err >= 0.0 and math.isfinite(err)

    def test_matrix_scale_stays_finite_where_raw_psi_overflows(self):
        # the raw transform Gamma(k + s + 2) / (2 pi) leaves double range at
        # k = 2, s = 168; on the matrix's scale Psi~ is sqrt(s + k + 1) / (2 pi)
        for s in (168.0, 1e6):
            value, _ = psi(1, 2, s, RadialProfile.monomial(1.0))
            assert value.real == pytest.approx(math.sqrt(s + 3.0) / (2.0 * math.pi), rel=1e-9)

    @pytest.mark.parametrize("k", [-5, math.nan, 1.5, True, False])
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
            psi(0, 159, 12.0, INFINITE_TAIL)
        assert info.value.estimate == math.inf


class TestGammaArgumentGuard:
    """Factors whose entries reach a Gamma argument s + m + max(j, 0) + 1
    beyond 1e12 are refused by name: the error bars are not validated there."""

    @staticmethod
    def refusal(argument, s, m, j):
        head = f"Gamma argument s + m + max(j, 0) + 1 = {argument} (s={s}, m={m}, j={j})"
        return "^" + re.escape(head + " exceeds 1e+12")

    def test_phi_and_psi(self):
        # j = 2 reaches k + 2: s + k + 3 = 1e12 passes, one more does not
        for factor, profile in ((phi, R2), (psi, RadialProfile.monomial(1.0))):
            assert math.isfinite(abs(factor(2, 10**12 - 3, 0.0, profile, QUAD)[0]))
            with pytest.raises(DomainError, match=self.refusal("1e+12", 0, 10**12 - 2, 2)):
                factor(2, 10**12 - 2, 0.0, profile, QUAD)
            with pytest.raises(DomainError, match=self.refusal("1e+20", 0, 10**20, 1)):
                factor(1, 10**20, 0.0, profile, QUAD)
        with pytest.raises(DomainError, match=self.refusal("1e+13", "1e+13", 1, -1)):
            psi(-1, 1, 1e13, R2, QUAD)

    def test_report(self):
        with pytest.raises(DomainError, match=self.refusal("1e+13", "1e+13", 4, 1)):
            functional_equation_residuals(R2, Z, 1e13, 4, QUAD)

    def test_probe(self):
        # H is read at order 0, so the argument is z + j + 1, whatever s
        with pytest.raises(DomainError, match=self.refusal("9.22337e+18", 0, 0.5, 2**63)):
            periodicity_probe(R2, 0.0, 2**63, [0.5], QUAD)


class TestUnderflowRefusal:
    """A nonzero profile whose entries underflow to exactly 0 is refused by
    name, in every reader of a factor, rather than read as a vanishing one."""

    # r exp(-r^2 / 2) and r^2 exp(-r^2 / 2): entries carry (1.5)^-(s+k) and underflow by s = 1e4
    LINEAR_DECAY = RadialProfile.gaussian_terms([(1.0, 1.0, 0.5)])
    QUADRATIC_DECAY = RadialProfile.gaussian_terms([(1.0, 2.0, 0.5)])

    @staticmethod
    def refusal(name, j, where):
        return re.escape(
            f"entries of symbol {name!r} at mode j={j} underflow to 0 {where}: "
            "the criterion cannot resolve them"
        )

    def test_psi_is_refused_as_the_report_is(self):
        refusal = "^" + self.refusal("v", 1, "at s=10000") + "$"
        with pytest.raises(DomainError, match=refusal):
            psi(1, 0, 1e4, self.LINEAR_DECAY)
        v = SymbolSpec.from_modes({1: self.LINEAR_DECAY}, name="v")
        with pytest.raises(DomainError, match=refusal):
            functional_equation_residuals(R2, v, 1e4, 4)

    def test_phi(self):
        with pytest.raises(DomainError, match="^" + self.refusal("u", 0, "at s=10000") + "$"):
            phi(1, 0, 1e4, self.QUADRATIC_DECAY)

    def test_subnormal_entries_without_error_bars_are_refused(self):
        # at s = 1835 the mode's entries at k <= 5 are subnormal (2.5e-323 down to
        # 5e-324) with error bars of exactly 0, and read 0 +- 0 beyond: no verdict
        v = SymbolSpec.from_modes({1: self.LINEAR_DECAY}, name="v")
        refusal = "^" + self.refusal("v", 1, "at s=1835") + "$"
        with pytest.raises(DomainError, match=refusal):
            functional_equation_residuals(R2, v, 1835, 20)
        with pytest.raises(DomainError, match=refusal):
            psi(1, 0, 1835, self.LINEAR_DECAY)
        # well inside double range the same mode is read and detected
        verdict = functional_equation_residuals(R2, v, 100, 20).verdict
        assert (verdict.kind, verdict.modes) == ("nonradial_mode_detected", (1,))

    def test_probe_names_the_grid_point_not_the_order(self):
        # H is read at order 0, so s = 100 is not where it underflows
        refusal = "^" + self.refusal("u", 0, "from grid point z=10000") + "$"
        with pytest.raises(DomainError, match=refusal):
            periodicity_probe(self.QUADRATIC_DECAY, 100, 1, [1e4, 2e4])


class TestFunctionalEquationResiduals:
    def test_radial_v_consistent(self):
        report = functional_equation_residuals(R2, RADIAL_V, 0.0, 6, QUAD)
        assert report.verdict.kind == "consistent_radial"
        assert all(j == 0 for (j, _) in report.cells)

    def test_constant_u_inconclusive(self):
        report = functional_equation_residuals(ONE, Z, 0.0, 6, QUAD)
        assert report.verdict.kind == "inconclusive"
        assert report.verdict.reason == "u constant or Phi unresolved"
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
        # largest windowed commutator entry sits at the window edge (W, W-1)
        # with value sqrt(s + W), W = N - 1 - band = 8
        assert report.matrix_window_residual == pytest.approx(math.sqrt(0.5 + 8.0), rel=1e-9)

    def test_phi_and_psi_alive_at_different_k_without_a_product_is_inconsistent(self):
        # Phi_1 exceeds its error bar only at k = 0 and Psi_1 only at k = 1, so
        # no product does: the cells contradict each other.
        cells = {
            (1, 0): Cell(1, 0, 1.0 + 0j, 1e-3, 0j, 1e-3),
            (1, 1): Cell(1, 1, 0j, 1e-3, 1.0 + 0j, 1e-3),
        }
        verdict = criterion._decide(cells, (1,), 0.0, True, 3.0)
        assert verdict.kind == "inconclusive"
        assert verdict.reason.startswith("internal inconsistency: products vanish")

    def test_vanishing_nonradial_mode_is_consistent_radial(self):
        # a j = 1 mode that is identically zero: Phi_1 is alive, Psi_1 never
        # is, so the closing rule of the verdict applies
        zero = RadialProfile.from_callable(lambda r: 0.0 * np.asarray(r, dtype=float), 0.0, 1.0)
        report = functional_equation_residuals(R2, SymbolSpec.from_modes({1: zero}), 0.0, 6, QUAD)
        assert report.verdict == criterion.Verdict("consistent_radial")
        assert str(report.verdict) == "consistent_radial"

    def test_verdict_text(self):
        verdict = criterion.Verdict("inconclusive", reason="u constant")
        assert str(verdict) == "inconclusive('u constant')"
        assert str(criterion.Verdict("nonradial_mode_detected", modes=(-1, 2))) == (
            "nonradial_mode_detected([-1, 2])"
        )

    def test_k_max_must_be_positive(self):
        with pytest.raises(DomainError, match=r"^k_max must be a positive integer, got 0$"):
            functional_equation_residuals(R2, Z, 0.0, 0, QUAD)

    def test_verdict_multiplier_leaves_the_cells_alone(self):
        # the multiplier decides which cells count as alive, not what they hold;
        # an explicit 3.0 is the default, byte for byte
        default = functional_equation_residuals(R2, Z2, 0.5, 6, QUAD)
        wide = functional_equation_residuals(R2, Z2, 0.5, 6, QUAD, verdict_multiplier=1e30)
        assert wide.cells == default.cells
        same = functional_equation_residuals(R2, Z2, 0.5, 6, QUAD, verdict_multiplier=3.0)
        assert same.to_json() == default.to_json()

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
        # k_max = 10 with a j = 2 mode needs N >= 10 + 2*2 + 1 = 15: cell (j, k)
        # stands for C[k+j, k], which the truncation gives exactly only there
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

    def test_reports_past_the_raw_psi_overflow(self):
        # raw Psi_1(k+s) = Gamma(k + s + 2) / (2 pi) leaves double range at
        # s = 168, k = 2; the cells, on the matrix's scale, do not
        v = SymbolSpec.from_modes(
            {-1: RadialProfile.monomial(0.0), 1: RadialProfile.monomial(1.0)}, name="v"
        )
        for u in (R2, RadialProfile.polynomial([0, 0, 1e6])):
            report = functional_equation_residuals(u, v, 168.0, 3)
            assert report.verdict == criterion.Verdict("nonradial_mode_detected", modes=(-1, 1))

    def test_gaussian_mode_detected_until_it_underflows(self):
        # mode -2 carries (1.5)^-(s+k) and underflows to 0 by s = 2e3, where
        # the report is refused rather than dropping the mode
        v = SymbolSpec.from_modes({1: RadialProfile.monomial(1.0), -2: GAUSS}, name="v")
        for s in (160.0, 300.0, 1e3):
            report = functional_equation_residuals(R2, v, s, 10)
            assert report.verdict == criterion.Verdict("nonradial_mode_detected", modes=(-2, 1))
        refusal = r"^entries of symbol 'v' at mode j=-2 underflow to 0 at s=2000: "
        with pytest.raises(DomainError, match=refusal):
            functional_equation_residuals(R2, v, 2e3, 10)

    def test_underflowing_u_is_refused(self):
        # lambda_k of r^2 exp(-3 r^2) is (s+k+1) 4^-(s+k+2): 0 at s = 600
        u = RadialProfile.gaussian_terms([(1.0, 2.0, 3.0)])
        refusal = r"^entries of symbol 'u' at mode j=0 underflow to 0 at s=600: "
        with pytest.raises(DomainError, match=refusal):
            functional_equation_residuals(u, Z, 600.0, 4)

    def test_large_order(self):
        assert functional_equation_residuals(R2, Z, 1e6, 4).verdict.modes == (1,)
        # from s ~ 1e8, Phi_1 = -1/(2 pi) of r^2 is inside its error bars
        report = functional_equation_residuals(R2, Z, 1e9, 4)
        unresolved = criterion.Verdict("inconclusive", reason="u constant or Phi unresolved")
        assert report.verdict == unresolved

    def test_k_max_below_a_negative_mode_is_refused(self):
        # mode -3 has cells only at k >= 3: at k_max = 2 the verdict would drop it
        v = SymbolSpec.from_modes({-3: RadialProfile.monomial(3.0)}, name="v")
        refusal = r"^k_max = 2 is below \|j\| = 3, so mode j=-3 would have no cell"
        with pytest.raises(PreconditionError, match=refusal):
            functional_equation_residuals(R2, v, 1.0, 2)
        with pytest.raises(PreconditionError, match=refusal):
            commutator_cross_check(R2, v, 1.0, 20, k_max=2)
        # the cross-check's default k_max, the exactness window N - 2*3 - 1 = 1,
        # is refused too
        with pytest.raises(PreconditionError, match=r"^k_max = 1 is below \|j\| = 3"):
            commutator_cross_check(R2, v, 1.0, 8)
        assert functional_equation_residuals(R2, v, 1.0, 3).verdict.modes == (-3,)

    @pytest.mark.parametrize("multiplier", [-1.0, 0.0, math.nan, math.inf, "3", True])
    def test_verdict_multiplier_must_be_finite_and_positive(self, multiplier):
        refusal = rf"^verdict_multiplier must be finite and > 0, got {re.escape(repr(multiplier))}$"
        with pytest.raises(DomainError, match=refusal):
            functional_equation_residuals(ONE, Z, 0.0, 4, verdict_multiplier=multiplier)

    @pytest.mark.parametrize("N", [math.nan, math.inf, "12", 0, 161, 12.5, True, False])
    def test_truncation_size_is_checked_as_toeplitz_matrix_checks_it(self, N):
        refusal = rf"^N must be an integer in \[1, 160\], got {re.escape(repr(N))}$"
        with pytest.raises(DomainError, match=refusal):
            toeplitz_matrix(Z, 0.0, N)
        with pytest.raises(DomainError, match=refusal):
            functional_equation_residuals(R2, Z, 0.0, 4, N=N)
        with pytest.raises(DomainError, match=refusal):
            commutator_cross_check(R2, Z, 0.0, N)

    def test_integral_float_truncation_size_is_accepted(self):
        report = functional_equation_residuals(R2, Z, 0.5, 4, N=12.0)
        assert report.to_json() == functional_equation_residuals(R2, Z, 0.5, 4, N=12).to_json()
        assert commutator_cross_check(R2, Z, 0.5, 12.0) == commutator_cross_check(R2, Z, 0.5, 12)

    @pytest.mark.parametrize(
        "u", [RadialProfile.polynomial([1.0, 0.0, 0.5, 0.0, 0.25]), R2_CALLABLE]
    )
    def test_cells_match_public_phi_and_psi(self, u):
        # the report reads its cells off the matrices, and the public
        # one-cell functions compute the same entries: bit for bit
        v = SymbolSpec.from_modes(
            {-1: RadialProfile.gaussian_terms([(1.0, 1.0, 0.5)]), 0: R2, 2: R2_CALLABLE}, name="v"
        )
        s = 0.5
        report = functional_equation_residuals(u, v, s, 5, QUAD)
        for (j, k), cell in report.cells.items():
            assert (cell.phi, cell.phi_err) == phi(j, k, s, u, QUAD), (j, k)
            assert (cell.psi, cell.psi_err) == psi(j, k, s, v.mode(j), QUAD), (j, k)

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
        assert header == "s,j,k,abs_phi,abs_psi,abs_product"
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
    log_norm = 0.5 * (math.lgamma(s + k + 1.0) + math.lgamma(s + k + j + 1.0))
    scale = math.exp(transform.log_scale - log_norm)
    psi_value, psi_err = transform.value * scale, transform.abs_error_estimate * scale
    return Cell(j, k, phi_value, phi_err, psi_value, psi_err)


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
        # a k_max below |j| of a negative mode j is refused: that mode has no cell
        report = functional_equation_residuals(u, v, s, max(k_max, -min(v.mode_indices)))
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
        verdict = criterion._decide(
            reference,
            v.mode_indices,
            report.matrix_window_residual,
            True,
            report.verdict_multiplier,
        )
        assert report.verdict == verdict


def test_report_computes_one_column_per_mode(monkeypatch):
    # H and every Psi~ column are read off the diagonals the report builds
    computed = []
    columns = operators._columns

    def counting(parts, s, spec):
        computed.extend((v, zetas.size) for v, zetas in parts)
        return columns(parts, s, spec)

    monkeypatch.setattr(operators, "_columns", counting)
    v = SymbolSpec.from_modes({0: ONE, 1: DECAY, -2: RadialProfile.monomial(1.0)}, name="v")
    functional_equation_residuals(R2, v, 0.5, 8, QUAD, N=20)
    expected = [(R2, 20), (ONE, 20), (DECAY, 19), (v.mode(-2), 18)]
    assert sorted(computed, key=repr) == sorted(expected, key=repr)


@pytest.mark.parametrize("s, k", [(3.0, 3), (2.7, 2), (5.25, 1), (12.5, 4)])
def test_order_shift_is_exact_for_phi_and_psi(s, k):
    # z^k maps order s - k isometrically onto order s, so cell (j, c) at order s
    # is cell (j, c + k) at order s - k: H and Psi~ are diagonal entries over 2 pi
    exp_decay = RadialProfile.from_callable(
        lambda r: np.exp(-np.asarray(r, dtype=float)), growth_exponent=0.0, growth_constant=1.0
    )
    v = SymbolSpec.from_modes({1: exp_decay, 2: RadialProfile.monomial(1.5), -3: GAUSS}, "v")
    fields = ("phi", "phi_err", "psi", "psi_err")
    for u in (RadialProfile.polynomial([1.0, -0.5, 0.25]), exp_decay):
        high = functional_equation_residuals(u, v, s, 12)
        low = functional_equation_residuals(u, v, s - k, 12 + k)
        for (j, c), cell in high.cells.items():
            shifted = low.cells[(j, c + k)]
            assert repr([getattr(cell, f) for f in fields]) == repr(
                [getattr(shifted, f) for f in fields]
            )
            assert repr(phi(j, c, s, u)) == repr(phi(j, c + k, s - k, u))
            assert repr(psi(j, c, s, v.mode(j))) == repr(psi(j, c + k, s - k, v.mode(j)))


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

    @pytest.mark.parametrize("k_max", [2.5, -1, math.nan, math.inf, "3", True, False])
    def test_k_max_must_be_a_nonnegative_integer(self, k_max):
        with pytest.raises(DomainError, match=rf"^k_max must be an integer >= 0, got {k_max!r}$"):
            commutator_cross_check(R2, Z2, 0.0, 10, QUAD, k_max=k_max)

    def test_each_scalar_transform_is_computed_once(self, monkeypatch):
        # check 5's three symbols at one (u, s): H(m+s) is shared by all of them,
        # and re z's two modes share their profile and most of their arguments
        from fock_toeplitz import acceptance

        symbols = (acceptance.symbol_z(), acceptance.symbol_z_squared(), acceptance.symbol_re_z())
        cached = [commutator_cross_check(R2, v, 0.5, 26, acceptance.QUAD, k_max=20) for v in symbols]
        keys = set()
        for v, cells in zip(symbols, cached):
            for j, k in cells:
                if j != 0:
                    keys |= {(R2, 2 * k + 2), (R2, 2 * (k + j) + 2), (v.mode(j), 2 * k + j + 2)}
        assert mellin_weighted_cached.cache_info().misses == len(keys)
        monkeypatch.setattr(criterion, "mellin_weighted_cached", mellin_weighted)
        uncached = [commutator_cross_check(R2, v, 0.5, 26, acceptance.QUAD, k_max=20) for v in symbols]
        assert repr(cached) == repr(uncached)

    def test_off_basis_norms_are_caught(self, monkeypatch):
        # log-norms 1e-6 too large in the matrix path scale C by about 1 - 2e-6;
        # the factors the cross-check compares it with do not take that path
        from fock_toeplitz.acceptance import check_05_criterion_matrix_equivalence

        log_gamma_array = operators.log_gamma_array
        monkeypatch.setattr(operators, "log_gamma_array", lambda x: log_gamma_array(x) + 1e-6)
        operators._memo.clear()
        assert max(commutator_cross_check(R2, Z, 0.5, 12).values()) >= 1e-6
        assert check_05_criterion_matrix_equivalence().passed is False


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

    @pytest.mark.parametrize("s", [0.0, 1e4, 1e15])
    def test_large_order_does_not_round_the_grid(self, s):
        # H(z) = (z+2)(z+1)/(2 pi) for u = r^4, so |H(z) - H(z+1)| = (z+2)/pi
        # whatever s; reading H through m = z - s rounded z away
        value, error = periodicity_probe(RadialProfile.monomial(4.0), s, 1, [0.3], QUAD)
        assert abs(value - 2.3 / math.pi) <= error

    def test_quadratic_breaks_periodicity(self):
        # H(z) = (z+1)/(2 pi) for u = r^2, so |H(z) - H(z+1)| = 1/(2 pi)
        value, _ = periodicity_probe(R2, 0.0, 1, [0.0, 0.5, 1.0], QUAD)
        assert value == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-10)

    def test_empty_grid(self):
        assert periodicity_probe(R2, 0.0, 1, [], QUAD) == (0.0, 0.0)

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


magnitudes = st.floats(0.1, 2.0).flatmap(lambda m: st.sampled_from([m, -m]))


def polynomials(min_degree):
    """Real polynomials in r of degree min_degree to 3, the top coefficient of magnitude >= 0.1."""
    lower = st.lists(st.floats(-2.0, 2.0), min_size=min_degree, max_size=3)
    return lower.flatmap(
        lambda low: magnitudes.map(lambda top: RadialProfile.polynomial(low + [top]))
    )


gaussian_terms = st.tuples(magnitudes, st.integers(0, 3), st.floats(0.05, 3.0)).map(
    lambda term: RadialProfile.gaussian_terms([term])
)


@settings(max_examples=100, deadline=None)
@given(
    u=polynomials(1),
    modes=st.dictionaries(
        st.integers(-3, 3), st.one_of(polynomials(0), gaussian_terms), min_size=1, max_size=3
    ),
    s=st.one_of(st.floats(0.0, 1e6), st.floats(0.0, 200.0)),
    k_max=st.integers(3, 6),
)
def test_verdict_finds_exactly_the_nonradial_modes(u, modes, s, k_max):
    # the paper's theorem: a nonconstant radial u commutes only with radial
    # v, so every nonzero mode of v is an obstruction.  A Gaussian mode whose
    # entries underflow to 0 is refused by name, never dropped.
    v = SymbolSpec.from_modes(modes, name="v")
    try:
        verdict = functional_equation_residuals(u, v, s, k_max).verdict
    except DomainError as exc:
        assert re.match(r"entries of symbol 'v' at mode j=-?\d underflow to 0 at s=", str(exc))
        return
    nonradial = tuple(j for j in v.mode_indices if j != 0)
    if nonradial:
        assert verdict == criterion.Verdict("nonradial_mode_detected", modes=nonradial)
    else:
        assert verdict == criterion.Verdict("consistent_radial")
