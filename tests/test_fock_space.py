import cmath
import math
import re

import numpy as np
import pytest

from fock_toeplitz.criterion import phi
from fock_toeplitz.errors import DomainError, ResourceError
from fock_toeplitz.fock_space import (
    SobolevOrder,
    density,
    kernel_eval,
    order_value,
)
from fock_toeplitz.operators import radial_eigenvalues, toeplitz_matrix
from fock_toeplitz.symbols import RadialProfile, SymbolSpec


class TestSobolevOrder:
    def test_accepts_nonnegative(self):
        assert order_value(0.0) == 0.0
        assert order_value(2.3) == 2.3
        assert order_value(SobolevOrder(1.5)) == 1.5

    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf, True, False])
    def test_rejects(self, bad):
        with pytest.raises(DomainError):
            SobolevOrder(bad)

    @pytest.mark.parametrize(
        "bad", ["x", None, 1j, pytest.param(10**400, id="10**400"), True, False, np.True_]
    )
    def test_non_numbers_are_refused_by_name(self, bad):
        refusal = "^" + re.escape(f"Sobolev order must be finite and >= 0, got {bad!r}") + "$"
        with pytest.raises(DomainError, match=refusal):
            order_value(bad)

    def test_entry_points_refuse_a_non_number_order_by_name(self):
        spec = SymbolSpec.from_modes({1: RadialProfile.monomial(1.0)}, name="z")
        with pytest.raises(DomainError, match=r"^Sobolev order must be finite and >= 0, got 'x'$"):
            toeplitz_matrix(spec, "x", 8)
        with pytest.raises(DomainError, match=r"^Sobolev order must be finite and >= 0, got None$"):
            phi(1, 0, None, RadialProfile.monomial(2.0))
        # a bool is no order: True read as s = 1.0, False as s = 0
        with pytest.raises(DomainError, match=r"^Sobolev order must be finite and >= 0, got True$"):
            toeplitz_matrix(spec, True, 4)
        with pytest.raises(DomainError, match=r"^Sobolev order must be finite and >= 0, got False$"):
            radial_eigenvalues(RadialProfile.monomial(2.0), False, 3)


class TestDensity:
    def test_origin(self):
        assert density(0.0, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-15)
        assert density(0.0, 1.0) == 0.0

    def test_unit_point(self):
        assert density(1.0, 0.0) == pytest.approx(math.exp(-1.0) / math.pi, rel=1e-14)

    def test_underflow_is_zero(self):
        # |z|^(2s) = 1e1200 overflows, the density exp(2763 - 1e6) / pi underflows
        assert density(1e3, 200.0) == 0.0
        assert density(1e200, 3.0) == 0.0

    def test_overflow_is_refused_by_name(self):
        with pytest.raises(DomainError, match=r"density at z=30, s=1000000.0 exceeds double range"):
            density(30, 1e6)

    @pytest.mark.parametrize("z", [math.nan, math.inf, complex(1.0, -math.inf)])
    def test_non_finite_point_is_refused_by_name(self, z):
        with pytest.raises(DomainError, match=re.escape(f"density point z must be finite, got {z!r}")):
            density(z, 1.0)

    def test_radial_invariance(self):
        for s in (0.0, 0.5, 2.3):
            base = density(1.7, s)
            for angle in (0.4, 2.0, -1.1):
                assert density(1.7 * cmath.exp(1j * angle), s) == pytest.approx(base, rel=1e-13)


class TestBasisNormSq:
    @pytest.mark.parametrize("s", [0.0, 1.0, 2.3])
    @pytest.mark.parametrize("n", [0, 1, 4, 10])
    def test_moment_identity(self, s, n):
        # 2D polar integration of |z|^(2n) against the density over a
        # truncated disk reproduces Gamma(s+n+1): independent of log_gamma.
        nodes, weights = np.polynomial.legendre.leggauss(600)
        radius = 0.5 * 14.0 * (nodes + 1.0)
        scaled = 0.5 * 14.0 * weights
        n_angles = 8
        total = 0.0
        for m in range(n_angles):
            z = radius * cmath.exp(2j * math.pi * m / n_angles)
            dens = np.array([density(value, s) for value in z])
            total += np.sum(scaled * dens * radius ** (2 * n) * radius) * (
                2.0 * math.pi / n_angles
            )
        assert total == pytest.approx(math.exp(math.lgamma(s + n + 1.0)), rel=1e-8)


class TestKernel:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_point_is_refused_by_name(self, bad):
        for name, args in (("z", (bad, 1.0)), ("w", (1.0, bad))):
            with pytest.raises(DomainError, match=rf"^kernel point {name} must be finite, got "):
                kernel_eval(*args, 0.0)
    def test_w_zero(self):
        for s in (0.0, 0.5, 2.0):
            value = kernel_eval(1.7 + 0.3j, 0.0, s)
            assert value.value == pytest.approx(1.0 / math.exp(math.lgamma(s + 1.0)), rel=1e-13)
            assert value.truncation_order == 1

    def test_exponential_at_one(self):
        assert kernel_eval(1.0, 1.0, 0.0).value == pytest.approx(math.e, rel=1e-13)

    def test_closed_form_s_one(self):
        # sum 4^n / (n+1)! = (e^4 - 1) / 4, plus direct partial-sum oracle
        oracle = sum(4.0**n / math.exp(math.lgamma(n + 2.0)) for n in range(120))
        assert oracle == pytest.approx((math.exp(4.0) - 1.0) / 4.0, rel=1e-13)
        value = kernel_eval(2.0, 2.0, 1.0, abs_tol=1e-13)
        assert value.value.real == pytest.approx(oracle, rel=1e-12)
        assert value.tail_bound <= 1e-13

    def test_s_zero_reduction_grid(self):
        points = [complex(x, y) for x in (-1.4, 0.0, 1.4) for y in (-1.4, 0.0, 1.4)]
        for z in points:
            for w in points:
                value = kernel_eval(z, w, 0.0, abs_tol=1e-15).value
                assert abs(value - cmath.exp(z * w.conjugate())) <= 1e-12

    def test_hermitian_symmetry(self):
        pairs = [(1.2 + 0.5j, -0.3 + 2.0j), (0.0, 1.0j), (2.5, 2.5j)]
        for s in (0.0, 1.0, 2.3):
            for z, w in pairs:
                a = kernel_eval(z, w, s, abs_tol=1e-14)
                b = kernel_eval(w, z, s, abs_tol=1e-14)
                assert abs(a.value - b.value.conjugate()) <= 2e-14

    def test_diagonal_positive(self):
        for s in (0.0, 0.5, 2.3):
            floor = 1.0 / math.exp(math.lgamma(s + 1.0))
            for z in (0.0, 1.0 + 1.0j, 3.0, 5.0j):
                value = kernel_eval(z, z, s, abs_tol=1e-12).value
                assert abs(value.imag) <= 1e-12
                assert value.real >= floor - 1e-12

    def test_pointwise_bound_stays_bounded(self):
        # ||K_z|| (1+|z|)^s e^(-|z|^2/2) bounded on |z| <= 6, ||K_z||^2 = K(z, z)
        for s in (0.0, 1.0, 2.3):
            ratios = []
            for r in np.linspace(0.0, 6.0, 25):
                norm = math.sqrt(kernel_eval(r, r, s, abs_tol=1e-12).value.real)
                ratio = norm * (1.0 + r) ** s * math.exp(-r * r / 2.0)
                ratios.append(ratio)
            assert all(math.isfinite(v) for v in ratios)
            assert max(ratios) < 50.0

    def test_truncation_cap(self):
        with pytest.raises(ResourceError):
            kernel_eval(30.0, 30.0, 0.0)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(DomainError):
            kernel_eval(1.0, 1.0, 0.0, abs_tol=0.0)
