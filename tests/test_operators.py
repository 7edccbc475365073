import cmath
import functools
import json
import math
import re
import warnings

import numpy as np
import pytest

from fock_toeplitz import mellin, operators, special_functions
from fock_toeplitz.errors import AccuracyError, DomainError, PreconditionError
from fock_toeplitz.operators import (
    TruncatedOperator,
    _basis_grid,
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
from fock_toeplitz.special_functions import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    log_gamma,
    log_gamma_array,
)
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

# family modes of every shape beside an evaluator mode
MIXED = SymbolSpec.from_modes(
    {
        0: RadialProfile.polynomial([1.0, -0.5, 0.25]),
        1: RadialProfile.from_callable(
            lambda r: np.exp(-np.asarray(r, dtype=float)), growth_exponent=0.0, growth_constant=1.0
        ),
        2: RadialProfile.monomial(1.5),
        -3: RadialProfile.gaussian_terms([(0.8, 2.0, 0.5), (-0.3j, 0.0, 1.2)]),
    },
    name="mixed",
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

    def test_a_level_sum_that_is_not_finite_names_the_entry(self):
        # infinite beyond r = 12: the first column whose window reaches there,
        # m = 22 (alpha = 46), has a level sum that is not finite, which used
        # to surface as an anonymous non-finite-entries DomainError
        infinite = SymbolSpec.from_modes({0: infinite_beyond(12.0)}, name="tail")
        messages = []
        for _ in range(2):  # the diagonal memo never stores a failure
            with pytest.raises(AccuracyError, match="j=0, column m=22: .* for alpha=46$") as info:
                toeplitz_matrix(infinite, 0.0, 40)
            assert info.value.estimate == math.inf
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert len(operators._memo) == 0

    def test_the_builds_that_overflowed_build(self):
        # exp(-1.3 r) at j=2 on N x s: (100, 150), (160, 20) and (160, 150)
        # failed at alpha = 344 while the weight's mass was in the exponent;
        # now every build is finite, and the entry that failed first at (160, 20),
        # column m = 150, is its value by the parabolic cylinder closed form
        # int_0^inf t^(a-1) e^(-t^2 - ct) dt = 2^(-a/2) Gamma(a) e^(c^2/8) D_{-a}(c / sqrt 2)
        mpmath = pytest.importorskip("mpmath")
        symbol = SymbolSpec.from_modes({2: decay(1.3)}, name="decay")
        for N in (20, 100, 160):
            for s in (0.0, 12.0, 20.0, 150.0):
                op = toeplitz_matrix(symbol, s, N)
                assert np.isfinite(op.diagonals[2]).all() and math.isfinite(op.entry_error)
        op = toeplitz_matrix(symbol, 20.0, 160)
        with mpmath.workdps(60):
            a, c, s, m = mpmath.mpf(344), mpmath.mpf("1.3"), 20, 150
            integral = 2 ** (-a / 2) * mpmath.gamma(a) * mpmath.exp(c * c / 8)
            integral *= mpmath.pcfd(-a, c / mpmath.sqrt(2))
            norms = mpmath.sqrt(mpmath.gamma(s + m + 1) * mpmath.gamma(s + m + 3))
            exact = complex(2 * integral / norms)
        assert abs(op.diagonals[2][m] - exact) <= op.entry_error

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


class TestDiagonalMemo:
    def test_rebuild_is_bit_identical(self):
        first = toeplitz_matrix(MIXED, 2.7, 40)
        assert len(operators._memo) == 4
        again = toeplitz_matrix(MIXED, 2.7, 40)
        assert operators._memo_counts["hits"] == 4
        assert again is not first
        assert again.entries.tobytes() == first.entries.tobytes()
        assert (again.entry_error, again.label) == (first.entry_error, first.label)

    def test_memo_arrays_are_read_only(self):
        op = toeplitz_matrix(MIXED, 1.0, 12)
        memo = operators._diagonals(MIXED.mode_items, 1.0, 12, DEFAULT_QUADRATURE, "mixed")
        for (j, _), (values, errors, error, peak) in zip(MIXED.mode_items, memo):
            # the entries and their errors; no transforms are kept
            for array in (values, errors):
                assert array.shape == (12 - abs(j),)
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0.0
            assert isinstance(error, float)
            assert error == float(np.max(errors))
            assert isinstance(peak, float)
            assert peak == float(np.max(np.abs(values)))
        assert operators._memo_counts["hits"] == 4
        assert not op.diagonals[2].flags.writeable

    def test_a_memo_hit_rebuild_runs_no_constructor_checks(self, monkeypatch):
        toeplitz_matrix(MIXED, 1.0, 12)
        checked, post_init = [], TruncatedOperator.__post_init__

        def counting(op):
            checked.append(op.label)
            post_init(op)

        monkeypatch.setattr(TruncatedOperator, "__post_init__", counting)
        op = toeplitz_matrix(MIXED, 1.0, 12)
        assert operators._memo_counts["hits"] == 4
        assert checked == []
        # the memo's largest |entry| per diagonal: no pass over the diagonals
        assert "max_abs" in vars(op)
        assert op.max_abs == max(float(np.abs(values).max()) for values in op.diagonals.values())

    def test_memo_key_leaves_out_the_symbol_name(self):
        toeplitz_matrix(ABS2, 0.5, 8)
        assert len(operators._memo) == 1
        renamed = SymbolSpec.from_modes({0: ABS2.mode(0)}, name="other")
        assert toeplitz_matrix(renamed, 0.5, 8).label == "other"
        radial_eigenvalues(ABS2.mode(0), 0.5, 8)
        assert len(operators._memo) == 1
        assert operators._memo_counts["hits"] == 2

    def test_refusal_names_each_symbol_that_shares_a_profile(self):
        # a refusal is never stored, so the same failing diagonal names the
        # symbol of every call
        profile = RadialProfile.monomial(300.0)
        for name in ("big", "huge"):
            symbol = SymbolSpec.from_modes({0: profile}, name=name)
            with pytest.raises(DomainError, match=rf"symbol '{name}' at mode j=0, column m=46 "):
                toeplitz_matrix(symbol, 0.0, 60)
        with pytest.raises(DomainError, match=r"symbol 'radial' at mode j=0, column m=46 "):
            radial_eigenvalues(profile, 0.0, 60)
        assert len(operators._memo) == 0

    @pytest.mark.parametrize("symbol", [MIXED, RE_Z, EXP_DECAY])
    def test_entry_error_is_the_largest_diagonal_error_cold_and_warm(self, symbol):
        s, n = 2.7, 40
        largest = 0.0
        for j, profile in symbol.mode_items:
            m = np.arange(max(0, -j), n - max(0, j))
            _, errors = operators._entries(profile, j, m, s, DEFAULT_QUADRATURE, symbol.name)
            largest = max(largest, float(np.max(errors)))
        for memo in ("cold", "warm"):
            assert toeplitz_matrix(symbol, s, n).entry_error == largest, memo

    @staticmethod
    def counting_columns(monkeypatch):
        """Record the profiles of every column ``_diagonals`` transforms."""
        computed, columns = [], operators._columns

        def counting(parts, s, spec):
            computed.extend(profile for profile, _ in parts)
            return columns(parts, s, spec)

        monkeypatch.setattr(operators, "_columns", counting)
        return computed

    def test_the_memo_holds_at_most_its_bound_and_drops_the_least_recently_read(
        self, monkeypatch
    ):
        bound = operators._MAX_MEMO_DIAGONALS
        symbols = [
            SymbolSpec.from_modes({0: RadialProfile.monomial(float(p))}, name=f"r{p}")
            for p in range(bound + 1)
        ]
        first = [toeplitz_matrix(symbol, 0.5, 4) for symbol in symbols[:bound]]
        assert len(operators._memo) == bound
        toeplitz_matrix(symbols[0], 0.5, 4)  # read just before the memo overflows
        toeplitz_matrix(symbols[bound], 0.5, 4)
        assert len(operators._memo) == bound
        computed = self.counting_columns(monkeypatch)
        # symbol 0 was read after symbol 1, which the overflow dropped
        assert toeplitz_matrix(symbols[0], 0.5, 4).entries.tobytes() == first[0].entries.tobytes()
        assert computed == []
        again = toeplitz_matrix(symbols[1], 0.5, 4)
        assert computed == [symbols[1].mode(0)]
        assert again.entries.tobytes() == first[1].entries.tobytes()
        assert again.entry_error == first[1].entry_error
        assert len(operators._memo) == bound

    def test_hits_and_misses_count_the_modes_of_each_build(self):
        toeplitz_matrix(MIXED, 2.7, 40)  # four misses
        toeplitz_matrix(MIXED, 2.7, 40)  # four hits
        assert dict(operators._memo_counts) == {"hits": 4, "misses": 4}
        toeplitz_matrix(SymbolSpec.from_modes({0: MIXED.mode(0), 7: ABS2.mode(0)}), 2.7, 40)
        radial_eigenvalues(MIXED.mode(0), 2.7, 40)
        assert dict(operators._memo_counts) == {"hits": 6, "misses": 5}
        assert len(operators._memo) == 5

    def test_a_refused_build_changes_neither_the_memo_size_nor_earlier_entries(self):
        # r^300 at mode 1 leaves double range from column m=45 at s = 0
        earlier = {-1: RE_Z.mode(-1), 0: ABS2.mode(0)}
        toeplitz_matrix(SymbolSpec.from_modes(earlier), 0.0, 60)
        before = dict(operators._memo)
        refused = SymbolSpec.from_modes({**earlier, 1: RadialProfile.monomial(300.0)}, name="big")
        with pytest.raises(DomainError, match=r"^entry of symbol 'big' at mode j=1, column m=45 "):
            toeplitz_matrix(refused, 0.0, 60)
        assert len(operators._memo) == len(before) == 2
        for key, entry in operators._memo.items():
            assert all(part is kept for part, kept in zip(entry, before[key]))

    def test_eigenvalues_are_a_writable_copy(self):
        first = radial_eigenvalues(ABS2.mode(0), 0.5, 8)
        expected = first.copy()
        first[:] = 7.0
        assert np.array_equal(radial_eigenvalues(ABS2.mode(0), 0.5, 8), expected)
        assert np.array_equal(toeplitz_matrix(ABS2, 0.5, 8).diagonals[0], expected)


@pytest.mark.parametrize("s, k", [(3.0, 3), (2.7, 2), (5.25, 1), (12.5, 4)])
def test_order_shift_is_exact(s, k):
    # z^k maps order s - k isometrically onto order s: every transform depends
    # on zeta + 2s alone and every basis norm on s + m alone
    for memo in ("cold", "warm"):
        high = toeplitz_matrix(MIXED, s, 40)
        low = toeplitz_matrix(MIXED, s - k, 40 + k)
        assert high.entries.tobytes() == low.entries[k:, k:].tobytes(), memo


def test_each_basis_log_gamma_is_computed_once_and_entries_keep_their_bits(monkeypatch):
    # the norms Gamma(s+m+1) and Gamma(s+m+j+1) of every mode's columns are
    # among the N of Gamma(s+k+1), k < N: one array per build, not two per mode
    modes = {**dict(MIXED.mode_items), -1: RadialProfile.monomial(0.5)}
    five = SymbolSpec.from_modes(modes, name="five")
    s, n = 2.7, 160
    expected = {}
    with np.errstate(over="ignore"):
        for j, profile in five.mode_items:
            m = np.arange(max(0, -j), n - max(0, j))
            log_scale, values, _, _ = mellin._column(profile, s, 2.0 * m + j + 2, QUAD)
            two_arrays = log_gamma_array(s + m + 1.0) + log_gamma_array(s + (m + j) + 1.0)
            expected[j] = values * (2.0 * math.pi * np.exp(log_scale - 0.5 * two_arrays))
    sizes = []

    def counted(x):
        sizes.append(x.size)
        return log_gamma_array(x)

    monkeypatch.setattr(operators, "log_gamma_array", counted)
    op = toeplitz_matrix(five, s, n, QUAD)
    assert sizes == [n]
    for j, values in expected.items():
        assert op.diagonals[j].tobytes() == values.tobytes(), j


def decay(rate):
    return RadialProfile.from_callable(
        lambda r: np.exp(-rate * np.asarray(r, dtype=float)), growth_exponent=0.0, growth_constant=1.0
    )


def infinite_beyond(radius):
    """exp(-1.3 r) up to ``radius``, infinite beyond it."""
    def evaluator(r):
        return np.where(r > radius, np.inf, np.exp(-1.3 * r))

    return RadialProfile(0.0, 1.0, evaluator=evaluator)


class TestOneColumnPassPerBuild:
    """A build's evaluator modes that miss the memo share one column pass."""

    @staticmethod
    def recording(monkeypatch):
        """Record every _level_sums call as (h, alpha, part) and count tail_radius calls."""
        level_sums, tail_radius = special_functions._level_sums, special_functions.tail_radius
        calls, radii = [], []

        def recording_sums(f, alpha, cutoff, h, odd, floor, sampled, log_mass, *part):
            tags = part[0] if part else np.zeros(alpha.size, dtype=int)
            calls.append((h, alpha.copy(), tags.copy()))
            return level_sums(f, alpha, cutoff, h, odd, floor, sampled, log_mass, *part)

        def counting_radius(*args):
            radii.append(args)
            return tail_radius(*args)

        monkeypatch.setattr(special_functions, "_level_sums", recording_sums)
        monkeypatch.setattr(special_functions, "tail_radius", counting_radius)
        return calls, radii

    def test_three_evaluator_modes_make_one_level_sums_call_per_level(self, monkeypatch):
        modes = {-3: decay(0.5), -1: RadialProfile.polynomial([0.0, 1.0]), 0: decay(1.3), 2: decay(2.9)}
        symbol = SymbolSpec.from_modes(modes, name="three")
        alone = {
            j: toeplitz_matrix(SymbolSpec.from_modes({j: profile}), 2.7, 40).diagonals[j]
            for j, profile in modes.items()
        }
        operators._memo.clear()
        calls, radii = self.recording(monkeypatch)
        op = toeplitz_matrix(symbol, 2.7, 40)
        assert len(radii) == 1
        steps = [h for h, _, _ in calls]
        assert len(steps) >= 2 and steps == [steps[0] / 2**level for level in range(len(steps))]
        # the first level sums the 37 + 40 + 38 columns of the three evaluator modes
        assert np.bincount(calls[0][2]).tolist() == [37, 40, 38]
        for j, values in alone.items():
            assert op.diagonals[j].tobytes() == values.tobytes(), j
        # a rebuild runs no quadrature
        again = toeplitz_matrix(symbol, 2.7, 40)
        assert len(calls) == len(steps) and len(radii) == 1
        assert again.entries.tobytes() == op.entries.tobytes()

    def test_a_failing_mode_ends_the_pass_and_the_modes_before_it_stay_memoized(
        self, monkeypatch
    ):
        # at s = 0 mode 0's level sums are not finite from column m = 22 (alpha = 46) on
        modes = {-2: decay(0.5), 0: infinite_beyond(12.0), 2: decay(2.9)}
        m = np.arange(40)
        with pytest.raises(AccuracyError) as alone:
            operators._entries(modes[0], 0, m, 0.0, DEFAULT_QUADRATURE, "x")
        assert "mode j=0, column m=22: quadrature level sum is not finite" in str(alone.value)
        calls, _ = self.recording(monkeypatch)
        symbol = SymbolSpec.from_modes(modes, name="x")
        with pytest.raises(AccuracyError, match="^" + re.escape(str(alone.value)) + "$"):
            toeplitz_matrix(symbol, 0.0, 40)
        # every row is summed at the first level, where the failure shows; no
        # row after the failed entry is summed at a later level
        assert np.bincount(calls[0][2]).tolist() == [38, 40, 38]
        assert len(calls) > 1
        for _, alpha, part in calls[1:]:
            assert part.max() <= 1 and (alpha[part == 1] < 46.0).all()
        assert len(operators._memo) == 1
        toeplitz_matrix(SymbolSpec.from_modes({-2: modes[-2]}), 0.0, 40)
        assert operators._memo_counts["hits"] == 1

    def test_an_evaluator_refusal_names_its_mode(self):
        # the second mode passes the 128-point spot check, then returns one value
        short = RadialProfile.from_callable(
            lambda r: np.exp(-r) if r.size <= 128 else np.exp(-r[:1]), 0.0, 1.0
        )
        symbol = SymbolSpec.from_modes({0: decay(1.3), 1: short}, name="v")
        refusal = r"^entry quadrature failed for symbol 'v' at mode j=1, column m=\d+: "
        with pytest.raises(DomainError, match=refusal + r"evaluator returned shape \(1,\)"):
            toeplitz_matrix(symbol, 0.0, 8)
        # the first mode is built and kept
        assert len(operators._memo) == 1

    def test_a_later_evaluator_refusal_waits_for_the_modes_before_it(self):
        # mode 0 fails from column 22 on; mode 1's evaluator refuses on its first
        # level, in the same pass, but the build names mode 0's entry first
        short = RadialProfile.from_callable(
            lambda r: np.exp(-r) if r.size <= 128 else np.exp(-r[:1]), 0.0, 1.0
        )
        symbol = SymbolSpec.from_modes({0: infinite_beyond(12.0), 1: short}, name="v")
        refusal = r"^entry quadrature failed for symbol 'v' at mode j=0, column m=22: quadrature"
        with pytest.raises(AccuracyError, match=refusal):
            toeplitz_matrix(symbol, 0.0, 40)


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

    @pytest.mark.parametrize("s", [0.0, 1.5, 300.0])
    def test_origin_picks_first_eigenvalue(self, s):
        op = toeplitz_matrix(ABS2, s, 8, QUAD)
        assert berezin(op, 0.0) == op.diagonals[0][0]
        assert berezin(op, 0.0) == pytest.approx(s + 1.0, rel=1e-11)

    def test_tail_precondition(self):
        op = toeplitz_matrix(ONE, 0.0, 4, QUAD)
        with pytest.raises(DomainError, match="N = 4"):
            berezin(op, 3.0)

    @pytest.mark.parametrize(
        "z",
        [
            complex("nan"),
            complex(0.5, math.nan),
            complex(math.inf, 0.0),
            complex(0.0, -math.inf),
            "x",
            None,
        ],
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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("s", math.nan, "s must be finite and >= 0, got nan"),
            ("s", -0.5, "s must be finite and >= 0, got -0.5"),
            ("s", math.inf, "s must be finite and >= 0, got inf"),
            ("s", "x", "s must be finite and >= 0, got 'x'"),
            ("s", None, "s must be finite and >= 0, got None"),
            # a bool is no number here, as is_integer and SobolevOrder hold
            ("s", True, "s must be finite and >= 0, got True"),
            ("s", np.True_, "s must be finite and >= 0, got np.True_"),
            ("exact_band", 1.5, "exact_band must be an integer >= 0, got 1.5"),
            ("exact_band", -1, "exact_band must be an integer >= 0, got -1"),
            ("exact_band", True, "exact_band must be an integer >= 0, got True"),
            ("entry_error", math.nan, "entry_error must be >= 0, got nan"),
            ("entry_error", -1e-16, "entry_error must be >= 0, got -1e-16"),
            ("entry_error", "e", "entry_error must be >= 0, got 'e'"),
            ("entry_error", None, "entry_error must be >= 0, got None"),
            ("entry_error", True, "entry_error must be >= 0, got True"),
        ],
    )
    def test_bad_scalar_field_refused_by_label_and_field(self, field, value, message):
        fields = {"s": 0.5, "exact_band": 1, "entry_error": 0.0, field: value}
        with pytest.raises(DomainError, match=re.escape(f"operator 'bad': {message}")):
            TruncatedOperator({0: np.ones(3)}, 3, label="bad", **fields)

    def test_diagonal_key_that_is_not_an_integer_refused(self):
        with pytest.raises(DomainError, match=r"'bad': diagonal key 0.5 is not an integer"):
            TruncatedOperator({0: np.ones(3), 0.5: np.ones(3)}, 3, 0.0, 1, "bad")

    @pytest.mark.parametrize("values", [["a", "b", "c"], [1.0, 2.0, "x"], [1.0, object(), 2.0]])
    def test_diagonal_that_is_not_numbers_refused_by_label_and_key(self, values):
        with pytest.raises(DomainError, match=r"^operator 'bad': diagonal d=0: entries must be numbers$"):
            TruncatedOperator({0: values}, 3, 0.0, 0, "bad")

    @pytest.mark.parametrize("product", [commutator, compose])
    def test_an_infinite_bound_stands_beside_an_all_zero_factor(self, product):
        # inf * 0 is nan, which the constructor refuses as a bound
        unknown = TruncatedOperator({0: np.ones(3)}, 3, 0.0, 0, "unknown", math.inf)
        zero = TruncatedOperator({}, 3, 0.0, 0, "zero")
        for a, b in [(unknown, zero), (zero, unknown), (unknown, unknown)]:
            assert product(a, b).entry_error == math.inf

    @pytest.mark.parametrize("product", [commutator, compose])
    def test_an_exact_factor_adds_no_error_beside_an_overflowing_max_abs(self, product):
        # |1.5e308 (1 + i)| overflows, and 0 * inf is nan
        big = TruncatedOperator({0: np.full(3, 1.5e308 + 1.5e308j)}, 3, 0.0, 0, "big", 1e-16)
        zero = TruncatedOperator({}, 3, 0.0, 0, "zero")
        assert big.max_abs == math.inf
        for a, b in [(zero, big), (big, zero)]:
            assert product(a, b).entry_error == 0.0

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


class TestBasisGrid:
    @pytest.mark.parametrize("s", [0.0, 0.1, 0.5, 2.3, 1 / 3, 29.97, 150.0])
    def test_log_norms_equal_scalar_log_gamma_exactly(self, s):
        expected = np.array([log_gamma(s + m + 1.0) for m in range(160)])
        got = _basis_grid(s, 160)[0]
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()

    def test_cached_read_only_and_read_by_berezin(self):
        grid = _basis_grid(2.5, 40)
        assert _basis_grid(2.5, 40) is grid
        log_norms, k, half_log_norms, ones = grid
        assert k.tolist() == list(range(40))
        assert half_log_norms.tobytes() == (0.5 * log_norms).tobytes()
        assert ones.dtype == complex and (ones == 1.0).all()
        for array in grid:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        op = toeplitz_matrix(ABS2, 2.5, 40, QUAD)
        for z in (0.3, 0.2 - 0.4j, 1.0j):
            berezin(op, z)
        assert _basis_grid.cache_info().misses == 1


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, None, "4", 2.5, True, False])
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

    @pytest.mark.parametrize(
        "radius", [math.nan, math.inf, -math.inf, -1.0, -1e-300, "x", None, True, False, np.True_]
    )
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
