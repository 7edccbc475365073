import cmath
import functools
import json
import math
import re
import warnings

import numpy as np
import pytest

from fock_toeplitz.errors import AccuracyError, DomainError, PreconditionError
from fock_toeplitz.operators import (
    TruncatedOperator,
    _basis_log_norms,
    berezin,
    commutator,
    compose,
    matrix_to_csv,
    matrix_to_json,
    min_truncation_size,
    radial_eigenvalues,
    toeplitz_matrix,
    window_max_abs,
)
from fock_toeplitz.special_functions import QuadratureSpec, log_gamma
from fock_toeplitz.symbols import RadialProfile, SymbolSpec, evaluate

QUAD = QuadratureSpec.for_exponent(80.0)

ONE = SymbolSpec.from_modes({0: RadialProfile.monomial(0.0)}, name="one")
ABS2 = SymbolSpec.from_modes({0: RadialProfile.monomial(2.0)}, name="abs2")
Z = SymbolSpec.from_modes({1: RadialProfile.monomial(1.0)}, name="z")
RE_Z = SymbolSpec.from_modes(
    {1: RadialProfile.polynomial([0.0, 0.5]), -1: RadialProfile.polynomial([0.0, 0.5])},
    name="re_z",
)
EXP_DECAY = SymbolSpec.from_modes(
    {
        0: RadialProfile.from_callable(
            lambda r: np.exp(-np.asarray(r, dtype=float)),
            growth_exponent=0.0,
            growth_constant=1.0,
        )
    },
    name="exp_decay",
)


ORACLE_ANGLES = 2.0 * math.pi * np.arange(64) / 64
ORACLE_RADII = np.linspace(1e-9, 10.0, 3_001)


@functools.cache
def polar_grid(symbol):
    """The symbol on the oracle's polar grid, sampled point by point through
    `evaluate` rather than through sample_polar.  The grid does not depend
    on s, so it is sampled once per symbol."""
    u_grid = np.empty((ORACLE_RADII.size, ORACLE_ANGLES.size), dtype=complex)
    for col, theta in enumerate(ORACLE_ANGLES):
        point = cmath.exp(1j * theta)
        u_grid[:, col] = [evaluate(symbol, rr * point) for rr in ORACLE_RADII]
    u_grid.flags.writeable = False  # shared by every call for this symbol
    return u_grid


def brute_force_entries(symbol, s, size):
    """<u e_m, e_n>_s by dense trapezoid integration in polar coordinates,
    fully independent of the Mellin quadrature path."""
    thetas, r = ORACLE_ANGLES, ORACLE_RADII
    n_angles = thetas.size
    u_grid = polar_grid(symbol)
    out = np.empty((size, size), dtype=complex)
    for m in range(size):
        for n in range(size):
            phases = np.exp(1j * (m - n) * thetas)
            angular_integral = u_grid @ phases * (2.0 * math.pi / n_angles)
            radial_integrand = angular_integral * r ** (m + n + 2.0 * s + 1.0) * np.exp(-(r**2))
            norm = math.exp(0.5 * (math.lgamma(s + m + 1.0) + math.lgamma(s + n + 1.0)))
            out[n, m] = np.trapezoid(radial_integrand, r) / (math.pi * norm)
    return out


class TestToeplitzMatrix:
    @pytest.mark.parametrize("s", [0.0, 0.5, 2.3])
    def test_constant_symbol_is_identity(self, s):
        op = toeplitz_matrix(ONE, s, 6, QUAD)
        np.testing.assert_allclose(op.entries, np.eye(6), atol=1e-12)
        assert op.exact_band == 0

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.3])
    def test_abs_squared_diagonal(self, s):
        op = toeplitz_matrix(ABS2, s, 8, QUAD)
        expected = np.diag(s + np.arange(8) + 1.0)
        np.testing.assert_allclose(op.entries, expected, rtol=1e-11, atol=1e-12)

    @pytest.mark.parametrize("s", [0.0, 0.5, 2.3])
    def test_z_subdiagonal(self, s):
        op = toeplitz_matrix(Z, s, 6, QUAD)
        sub = np.diagonal(op.entries, offset=-1)
        expected = np.sqrt(s + np.arange(5) + 1.0)
        np.testing.assert_allclose(sub, expected, rtol=1e-11)
        assert op.exact_band == 1
        # everything off the declared band is exactly zero
        assert np.all(op.entries[np.triu_indices(6, 1)] == 0)

    @pytest.mark.parametrize("symbol", [Z, RE_Z, ABS2])
    @pytest.mark.parametrize("s", [0.0, 1.0])
    def test_against_brute_force_oracle(self, symbol, s):
        op = toeplitz_matrix(symbol, s, 3, QUAD)
        oracle = brute_force_entries(symbol, s, 3)
        np.testing.assert_allclose(op.entries, oracle, rtol=2e-6, atol=1e-9)

    def test_radial_symbol_stays_diagonal(self):
        op = toeplitz_matrix(EXP_DECAY, 1.0, 10, QUAD)
        off = op.entries - np.diag(np.diagonal(op.entries))
        assert np.max(np.abs(off)) == 0.0

    def test_overflowing_quadrature_names_the_entry(self):
        # exp(-1.3 r) at s = 12: the level sum of column m = 159 overflows,
        # which used to surface as an anonymous non-finite-entries DomainError
        decay = SymbolSpec.from_modes(
            {
                0: RadialProfile.from_callable(
                    lambda r: np.exp(-1.3 * np.asarray(r, dtype=float)),
                    growth_exponent=0.0,
                    growth_constant=1.0,
                )
            },
            name="decay",
        )
        with pytest.raises(AccuracyError, match="j=0, column m=159") as info:
            toeplitz_matrix(decay, 12.0, 160)
        assert info.value.estimate == math.inf

    def test_failure_set_is_pinned(self):
        # exp(-1.3 r) at j=2 on N x s: the builds that fail and the column
        # they name, as the per-entry scalar quadrature failed before the
        # column quadrature replaced it; none may be added or lost
        decay = SymbolSpec.from_modes(
            {
                2: RadialProfile.from_callable(
                    lambda r: np.exp(-1.3 * np.asarray(r, dtype=float)),
                    growth_exponent=0.0,
                    growth_constant=1.0,
                )
            },
            name="decay",
        )
        failed = {}
        for N in (20, 100, 160):
            for s in (0.0, 12.0, 20.0, 150.0):
                try:
                    toeplitz_matrix(decay, s, N)
                except AccuracyError as exc:
                    failed[(N, s)] = str(exc)
        message = (
            "entry quadrature failed for symbol 'decay' at mode j=2, column m={}: quadrature "
            "level sum is not finite (overflows double range) for alpha=344"
        )
        assert failed == {
            (100, 150.0): message.format(20),
            (160, 20.0): message.format(150),
            (160, 150.0): message.format(20),
        }

    def test_family_entry_beyond_double_range_names_the_entry(self):
        # r^300 at s = 0: entry m is Gamma(m + 151) / Gamma(m + 1), which
        # leaves double range from m = 46 on; this used to end in the anonymous
        # non-finite-entries DomainError after numpy overflow warnings
        big = SymbolSpec.from_modes({0: RadialProfile.monomial(300.0)}, name="big")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match=r"symbol 'big' at mode j=0, column m=46 "):
                toeplitz_matrix(big, 0.0, 60)

    def test_size_validation(self):
        with pytest.raises(DomainError):
            toeplitz_matrix(ONE, 0.0, 0, QUAD)
        with pytest.raises(DomainError):
            toeplitz_matrix(ONE, 0.0, 1000, QUAD)


class TestRadialEigenvalues:
    def test_constant(self):
        np.testing.assert_allclose(
            radial_eigenvalues(RadialProfile.monomial(0.0), 1.0, 5, QUAD).real,
            np.ones(5),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("s", [0.0, 0.5, 2.3])
    def test_quadratic(self, s):
        values = radial_eigenvalues(RadialProfile.monomial(2.0), s, 6, QUAD).real
        np.testing.assert_allclose(values, s + np.arange(6) + 1.0, rtol=1e-11)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("s", [0.0, 2.3])
    def test_even_monomials_gamma_ratio(self, p, s):
        values = radial_eigenvalues(RadialProfile.monomial(2.0 * p), s, 5, QUAD).real
        # Gamma(s+k+p+1) / Gamma(s+k+1)
        expected = [math.exp(math.lgamma(s + k + p + 1) - math.lgamma(s + k + 1)) for k in range(5)]
        np.testing.assert_allclose(values, expected, rtol=1e-10)

    def test_beyond_double_range_refused(self):
        # Gamma(k + 201) / Gamma(k + 1) is past double range from k = 0; this
        # used to return inf+nanj entries without an error
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match=r"symbol 'radial' at mode j=0, column m=0 "):
                radial_eigenvalues(RadialProfile.monomial(400.0), 0.0, 4)

    def test_matches_toeplitz_diagonal(self):
        op = toeplitz_matrix(EXP_DECAY, 0.5, 6, QUAD)
        values = radial_eigenvalues(EXP_DECAY.mode(0), 0.5, 6, QUAD)
        np.testing.assert_allclose(np.diagonal(op.entries), values, rtol=1e-10)


class TestCommutator:
    def test_self_commutator_vanishes(self):
        op = toeplitz_matrix(Z, 0.0, 6, QUAD)
        assert np.max(np.abs(commutator(op, op).entries)) == 0.0

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.3])
    def test_radial_radial_commutes(self, s):
        a = toeplitz_matrix(ABS2, s, 12, QUAD)
        b = toeplitz_matrix(EXP_DECAY, s, 12, QUAD)
        comm = commutator(a, b)
        assert window_max_abs(comm, comm.exactness_window) <= 1e-10

    @pytest.mark.parametrize("s", [0.0, 1.0, 3.0])
    def test_window_entry_against_explicit_product(self, s):
        # explicit 3x3 oracle: diag(lambda) and the shift matrix
        lam = np.diag([s + 1.0, s + 2.0, s + 3.0])
        shift = np.zeros((3, 3))
        shift[1, 0] = math.sqrt(s + 1.0)
        shift[2, 1] = math.sqrt(s + 2.0)
        oracle = lam @ shift - shift @ lam
        assert oracle[1, 0] == pytest.approx(math.sqrt(s + 1.0), rel=1e-15)

        a = toeplitz_matrix(ABS2, s, 3, QUAD)
        b = toeplitz_matrix(Z, s, 3, QUAD)
        comm = commutator(a, b)
        np.testing.assert_allclose(comm.entries.real, oracle, rtol=1e-10, atol=1e-11)
        assert comm.exact_band == 1
        assert comm.exactness_window == 1
        assert window_max_abs(comm, 1) == pytest.approx(math.sqrt(s + 1.0), rel=1e-11)

    def test_mismatch_rejected(self):
        a = toeplitz_matrix(ONE, 0.0, 4, QUAD)
        b = toeplitz_matrix(ONE, 0.0, 5, QUAD)
        with pytest.raises(PreconditionError):
            commutator(a, b)
        c = toeplitz_matrix(ONE, 1.0, 4, QUAD)
        with pytest.raises(PreconditionError):
            commutator(a, c)


class TestBerezin:
    def test_identity_is_exactly_one(self):
        identity = TruncatedOperator({0: np.ones(16)}, 16, 0.0, 0, "id")
        for z in (0.0, 0.3 + 0.2j, 1.0j):
            assert berezin(identity, z) == 1.0 + 0.0j

    def test_zero_matrix(self):
        zero = TruncatedOperator({}, 16, 0.5, 0, "zero")
        assert berezin(zero, 0.7j) == 0.0

    @pytest.mark.parametrize("s", [0.0, 1.5])
    def test_origin_picks_first_eigenvalue(self, s):
        op = toeplitz_matrix(ABS2, s, 8, QUAD)
        assert berezin(op, 0.0) == pytest.approx(s + 1.0, rel=1e-11)

    def test_tail_precondition(self):
        op = toeplitz_matrix(ONE, 0.0, 4, QUAD)
        with pytest.raises(DomainError, match="N = 4"):
            berezin(op, 3.0)

    @pytest.mark.parametrize(
        "z",
        [complex("nan"), complex(0.5, math.nan), complex(math.inf, 0.0), complex(0.0, -math.inf)],
    )
    def test_non_finite_point_is_refused_by_name(self, z):
        op = toeplitz_matrix(Z, 0.5, 6, QUAD)
        with pytest.raises(DomainError, match=re.escape(f"z must be finite, got {z!r}")):
            berezin(op, z)

    def test_vanishing_probe(self):
        # zero operator has zero transform everywhere; nonzero test matrices
        # show a nonzero maximum over the grid |z| <= 3
        grid = [0.5 * k * cmath.exp(0.7j * k) for k in range(7)]
        n_size = min_truncation_size(3.0, 0.0)
        zero = TruncatedOperator({}, n_size, 0.0, 0, "zero")
        assert all(berezin(zero, z) == 0.0 for z in grid)
        for op in (toeplitz_matrix(Z, 0.0, n_size, QUAD), toeplitz_matrix(ABS2, 0.0, n_size, QUAD)):
            assert max(abs(berezin(op, z)) for z in grid) > 0.0

    @pytest.mark.parametrize("s", [0.0, 2.3])
    def test_adjoint_symmetry_on_window(self, s):
        u = SymbolSpec.from_modes(
            {
                0: RadialProfile.from_callable(
                    lambda r: np.exp(-np.asarray(r, dtype=float)), 0.0, 1.0
                ),
                1: RadialProfile.from_callable(
                    lambda r: 0.4 * np.asarray(r) * np.exp(-np.asarray(r, dtype=float) ** 2),
                    0.0,
                    0.2,
                ),
            },
            name="u",
        )
        v = SymbolSpec.from_modes(
            {
                -2: RadialProfile.from_callable(
                    lambda r: 0.5 * np.exp(-2.0 * np.asarray(r, dtype=float)), 0.0, 0.51
                )
            },
            name="v",
        )
        n_size = min_truncation_size(2.0, s)
        forward = compose(toeplitz_matrix(u, s, n_size, QUAD), toeplitz_matrix(v, s, n_size, QUAD))
        backward = compose(
            toeplitz_matrix(v.conjugate(), s, n_size, QUAD),
            toeplitz_matrix(u.conjugate(), s, n_size, QUAD),
        )
        for z in (0.0, 1.0, 2.0j, 1.4 + 1.4j):
            assert abs(berezin(forward, z) - berezin(backward, z).conjugate()) <= 1e-8


class TestWindowMaxAbs:
    def test_examples(self):
        zero = TruncatedOperator({}, 5, 0.0, 0, "zero")
        assert window_max_abs(zero, 3) == 0.0
        identity = TruncatedOperator({0: np.ones(5)}, 5, 0.0, 0, "id")
        assert window_max_abs(identity, 0) == 1.0

    def test_bounds(self):
        identity = TruncatedOperator({0: np.ones(5)}, 5, 0.0, 0, "id")
        with pytest.raises(PreconditionError):
            window_max_abs(identity, 5)
        with pytest.raises(PreconditionError):
            window_max_abs(identity, -1)


class TestTruncatedOperator:
    @pytest.mark.parametrize("d", [2, -2, 3])
    def test_diagonal_beyond_band_refused(self, d):
        diagonals = {0: np.ones(4), d: np.full(4 - abs(d), -1e-300)}
        message = rf"'bad': diagonal d={d} lies outside declared band 1"
        with pytest.raises(DomainError, match=message):
            TruncatedOperator(diagonals, 4, 0.0, 1, "bad")

    @pytest.mark.parametrize("d, length", [(0, 3), (1, 4), (-1, 2), (4, 1), (-5, 0)])
    def test_diagonal_of_wrong_length_refused(self, d, length):
        with pytest.raises(DomainError, match=rf"'short': diagonal d={d} at N=4 needs shape"):
            TruncatedOperator({d: np.ones(length)}, 4, 0.0, 9, "short")

    def test_band_at_or_beyond_size_accepts_every_diagonal(self):
        dense = {d: np.ones(3 - abs(d)) for d in range(-2, 3)}
        full = TruncatedOperator(dense, 3, 0.0, 2, "dense")
        np.testing.assert_array_equal(full.entries, np.ones((3, 3)))
        TruncatedOperator(dense, 3, 0.0, 7, "wide")
        with pytest.raises(DomainError, match="'narrow': diagonal d=-2"):
            TruncatedOperator(dense, 3, 0.0, 1, "narrow")

    def test_nonfinite_rejected(self):
        values = np.zeros(2, dtype=complex)
        values[1] = complex(0.0, math.nan)
        message = r"'bad': diagonal d=-1: entry at column m=2 is not finite"
        with pytest.raises(DomainError, match=message):
            TruncatedOperator({0: np.ones(3), -1: values}, 3, 0.0, 1, "bad")

    @pytest.mark.parametrize(
        "product, label", [(commutator, r"\[big,big\]"), (compose, r"big\*big")]
    )
    def test_overflowing_product_names_the_operator(self, product, label):
        big = TruncatedOperator({0: np.array([1e300, 1.0]), 1: np.array([1e300])}, 2, 0.0, 1, "big")
        message = rf"'{label}': diagonal d=0: entry at column m=0 is not finite"
        with pytest.raises(DomainError, match=message):
            product(big, big)

    def test_entries_view_and_diagonals_read_only(self):
        op = toeplitz_matrix(RE_Z, 0.5, 4, QUAD)
        assert op.entries is op.entries
        for d, values in op.diagonals.items():
            np.testing.assert_array_equal(np.diagonal(op.entries, -d), values)
            with pytest.raises(ValueError):
                values[0] = 5.0
        assert np.count_nonzero(op.entries) == sum(v.size for v in op.diagonals.values())
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0


class TestBasisLogNorms:
    @pytest.mark.parametrize("s", [0.0, 0.1, 0.5, 2.3, 1 / 3, 29.97, 150.0])
    def test_equals_scalar_log_gamma_exactly(self, s):
        expected = np.array([log_gamma(s + m + 1.0) for m in range(160)])
        got = _basis_log_norms(s, 160)
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()

    def test_cached_and_read_only(self):
        first = _basis_log_norms(2.5, 40)
        assert _basis_log_norms(2.5, 40) is first
        with pytest.raises(ValueError, match="read-only"):
            first[0] = 0.0


def _unit_operator(size):
    return TruncatedOperator({0: np.ones(3)}, size, 0.0, 0, "unit")


SIZED_CALLS = {
    "toeplitz_matrix": (lambda x: toeplitz_matrix(ONE, 0.0, x), DomainError, "N must"),
    "radial_eigenvalues": (
        lambda x: radial_eigenvalues(RadialProfile.monomial(0.0), 0.0, x),
        DomainError,
        "N must",
    ),
    "TruncatedOperator": (_unit_operator, DomainError, "size must"),
    "window_max_abs": (lambda x: window_max_abs(_unit_operator(3), x), PreconditionError, "window must"),
    "QuadratureSpec": (lambda x: QuadratureSpec(node_count=x), DomainError, "node_count must"),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, None, "4", 2.5])
@pytest.mark.parametrize("call", sorted(SIZED_CALLS))
def test_size_that_is_not_a_finite_integer_is_refused_by_name(call, value):
    build, error, name = SIZED_CALLS[call]
    with pytest.raises(error, match=f"{name}.*got {re.escape(repr(value))}$"):
        build(value)


class TestMinTruncationSize:
    @pytest.mark.parametrize("s", [0.0, 0.5, 2.3])
    def test_indicator_below_tolerance(self, s):
        n = min_truncation_size(2.0, s)
        indicator = 2.0 * n * math.log(2.0) - math.lgamma(s + n + 1.0)
        assert indicator <= math.log(1e-12)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_radius_that_is_not_finite_and_nonnegative_is_refused_by_name(self, radius):
        refusal = f"max_abs_z must be finite and >= 0, got {radius!r}"
        with pytest.raises(DomainError, match=re.escape(refusal)):
            min_truncation_size(radius, 0.0)

    def test_radius_no_truncation_within_the_cap_meets_is_refused_by_name(self):
        refusal = "no truncation within the cap 160 meets tail_tol=1e-12 at |z| = 1000"
        with pytest.raises(DomainError, match=re.escape(refusal)):
            min_truncation_size(1e3, 0.0)

    def test_zero_radius_needs_only_the_floor(self):
        assert min_truncation_size(0.0, 0.0) == min_truncation_size(0.0, 3.0) == 8


class TestExports:
    def test_csv_round_trip(self):
        op = toeplitz_matrix(Z, 0.5, 3, QUAD)
        text = matrix_to_csv(op)
        lines = text.strip().split("\n")
        assert lines[0] == "row,col,re,im"
        assert len(lines) == 1 + 9
        row, col, re, im = lines[1 + 3 * 1 + 0].split(",")
        assert (int(row), int(col)) == (1, 0)
        assert float(re) == pytest.approx(math.sqrt(1.5), rel=1e-11)
        assert float(im) == 0.0

    def test_json_envelope(self):
        op = toeplitz_matrix(Z, 0.5, 3, QUAD)
        payload = json.loads(matrix_to_json(op))
        assert payload["N"] == 3
        assert payload["s"] == 0.5
        assert payload["exact_band"] == 1
        assert payload["label"] == "z"
        assert len(payload["entries"]) == 9

    def test_deterministic_bytes(self):
        op = toeplitz_matrix(RE_Z, 2.3, 4, QUAD)
        assert matrix_to_csv(op) == matrix_to_csv(op)
        assert matrix_to_json(op) == matrix_to_json(op)
