"""Products, Berezin transforms and window maxima read an operator's stored
diagonals.  The dense N x N forms they replaced are kept here as references:
the products sum the same terms in another order, so they agree to a bound
set from the float64 epsilon and the number of terms per entry.  Builds and
products skip the constructor's checks that their parts pass by
construction; the public constructor of the same parts is their reference."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fock_toeplitz import operators
from fock_toeplitz.errors import DomainError, PreconditionError
from fock_toeplitz.operators import (
    TruncatedOperator,
    _basis_log_norms,
    berezin,
    commutator,
    compose,
    toeplitz_matrix,
    window_max_abs,
)
from fock_toeplitz.special_functions import DEFAULT_QUADRATURE
from fock_toeplitz.symbols import RadialProfile, SymbolSpec

EPS = sys.float_info.epsilon


def dense_compose(a, b):
    return a.entries @ b.entries


def dense_commutator(a, b):
    return a.entries @ b.entries - b.entries @ a.entries


def kernel_coefficients(z, s, n):
    """conj(z)^k / sqrt(Gamma(s+k+1)) for k < n, divided by the largest
    magnitude among them (the unit vector e_0 at z = 0), which a Berezin
    ratio does not see."""
    z = complex(z)
    if z == 0.0:
        return np.eye(1, n, dtype=complex)[0]
    k = np.arange(n)
    log_abs = k * math.log(abs(z)) - 0.5 * _basis_log_norms(s, n)
    return (z.conjugate() / abs(z)) ** k * np.exp(log_abs - np.max(log_abs))


def dense_berezin(a, z):
    coeff = kernel_coefficients(z, a.s, a.size)
    numerator = np.vdot(coeff, a.entries @ coeff)
    denominator = float(np.vdot(coeff, coeff).real)
    return complex(float(numerator.real) / denominator, float(numerator.imag) / denominator)


def dense_window_max_abs(a, window):
    w = window + 1
    return float(np.max(np.abs(a.entries[:w, :w])))


def max_abs(a):
    return float(np.max(np.abs(a.entries)))


def product_bound(a, b):
    """Two t-term complex sums of products no larger than max|a| max|b| each
    err by at most (t + 2) eps t max|a| max|b|; t is at most the smaller
    number of stored diagonals, one term per diagonal of either factor."""
    t = max(min(len(a.diagonals), len(b.diagonals)), 1)
    width = 2 * t * (t + 2)
    return EPS * width * max_abs(a) * max_abs(b)


@st.composite
def banded(draw, n, s=0.0, sides=("both", "lower", "upper", "empty")):
    band = draw(st.integers(0, n + 2))
    reach = min(band, n - 1)  # a band at or beyond N - 1 is clipped there
    side = draw(st.sampled_from(sides))
    low, high = {
        "both": (-reach, reach),
        "lower": (1, reach),
        "upper": (-reach, -1),
        "empty": (0, -1),
    }[side]
    keys = draw(st.sets(st.integers(low, high), max_size=7)) if low <= high else set()
    if draw(st.booleans()) and keys:
        keys.add(reach if side != "upper" else -reach)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e-150, 1e150, 3.7]))
    diagonals = {}
    for d in keys:
        values = scale * (rng.standard_normal(n - abs(d)) + 1j * rng.standard_normal(n - abs(d)))
        values[rng.random(n - abs(d)) < 0.2] = -0.0  # zeros inside the band
        diagonals[d] = values
    return TruncatedOperator(diagonals, n, s, band, "x")


@st.composite
def pairs(draw):
    n = draw(st.integers(1, 40))
    return draw(banded(n)), draw(banded(n))


@given(pairs())
def test_compose_matches_dense_product(pair):
    a, b = pair
    product = compose(a, b)
    assert product.exact_band == min(a.exact_band + b.exact_band, a.size - 1)
    assert np.max(np.abs(product.entries - dense_compose(a, b))) <= product_bound(a, b)
    assert product.entry_error == 0.0


@given(pairs())
def test_commutator_matches_dense_product(pair):
    a, b = pair
    comm = commutator(a, b)
    reference = dense_commutator(a, b)
    # two products and one rounding of their difference
    bound = 2.0 * product_bound(a, b) + EPS * float(np.max(np.abs(reference)))
    assert np.max(np.abs(comm.entries - reference)) <= bound


@given(pairs())
def test_self_commutator_is_exactly_zero(pair):
    a, _ = pair
    comm = commutator(a, a)
    assert all(not values.any() for values in comm.diagonals.values())


@given(pairs(), st.integers(0, 39))
def test_window_max_abs_equals_dense(pair, window):
    a, _ = pair
    window = min(window, a.size - 1)
    assert window_max_abs(a, window) == dense_window_max_abs(a, window)


@given(pairs())
def test_max_abs_is_the_full_window_maximum_bit_for_bit(pair):
    a, b = pair
    # one operator reads the window first, the other the cached norm first
    assert window_max_abs(a, a.size - 1) == a.max_abs == dense_window_max_abs(a, a.size - 1)
    assert b.max_abs == window_max_abs(b, b.size - 1) == max_abs(b)


@st.composite
def kernel_points(draw):
    # N >= 16 and |z| <= 1 meet the Berezin tail precondition at any s >= 0
    n = draw(st.integers(16, 40))
    # unscaled, the kernel coefficients underflow from s = 200
    s = draw(st.sampled_from([0.0, 0.5, 2.3, 200.0, 300.0, 1e3]))
    radius = draw(st.floats(0.0, 1.0))
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    return n, s, radius * complex(math.cos(angle), math.sin(angle))


@given(kernel_points(), st.data())
def test_berezin_matches_dense(point, data):
    n, s, z = point
    a = data.draw(banded(n, s))
    coeff = kernel_coefficients(z, s, n)
    absolute = np.abs(coeff) @ np.abs(a.entries) @ np.abs(coeff) / np.vdot(coeff, coeff).real
    bound = 2.0 * EPS * (n + len(a.diagonals) + 4) * absolute
    assert abs(berezin(a, z) - dense_berezin(a, z)) <= bound


def assert_berezin_matches_dense(a, z):
    coeff = kernel_coefficients(z, a.s, a.size)
    absolute = np.abs(coeff) @ np.abs(a.entries) @ np.abs(coeff) / np.vdot(coeff, coeff).real
    bound = 2.0 * EPS * (a.size + len(a.diagonals) + 4) * absolute
    assert abs(berezin(a, z) - dense_berezin(a, z)) <= bound


@given(kernel_points(), st.data())
def test_berezin_matches_dense_above_the_diagonal(point, data):
    # only negative d: every phase is a negative power of z / |z|
    n, s, z = point
    assert_berezin_matches_dense(data.draw(banded(n, s, sides=("upper",))), z)


@given(kernel_points(), st.data(), st.sampled_from([200.0, 1e3]))
def test_berezin_matches_dense_at_large_order(point, data, s):
    n, _, z = point
    assert_berezin_matches_dense(data.draw(banded(n, s)), z)


@given(kernel_points())
def test_berezin_of_identity_is_exactly_one(point):
    n, s, z = point
    identity = TruncatedOperator({0: np.ones(n)}, n, s, 0, "id")
    assert berezin(identity, z) == 1.0 + 0.0j


def test_products_refuse_mismatched_operators():
    a = TruncatedOperator({0: np.ones(4)}, 4, 0.0, 0, "a")
    for other in (
        TruncatedOperator({0: np.ones(5)}, 5, 0.0, 0, "b"),
        TruncatedOperator({0: np.ones(4)}, 4, 1.0, 0, "c"),
    ):
        for product in (commutator, compose):
            with pytest.raises(PreconditionError):
                product(a, other)


def assert_same_operator(op, public):
    """``op`` equals ``public`` field for field and bit for bit: the same
    sorted int keys, read-only complex diagonals, scalars and max_abs."""
    assert list(op.diagonals) == list(public.diagonals)
    assert all(type(d) is int for d in op.diagonals)
    for d, values in op.diagonals.items():
        assert values.dtype == complex and not values.flags.writeable
        assert values.tobytes() == public.diagonals[d].tobytes()
    for field in ("size", "s", "exact_band", "label", "entry_error"):
        mine, theirs = getattr(op, field), getattr(public, field)
        assert type(mine) is type(theirs) and mine == theirs, field
    assert op.max_abs == public.max_abs


FAMILY = [
    RadialProfile.monomial(2.0),
    RadialProfile.polynomial([1.0, -0.5j, 0.25]),
    RadialProfile.gaussian_terms([(0.8, 2.0, 0.5), (-0.3j, 0.0, 1.2)]),
]


@given(
    st.dictionaries(st.integers(-5, 5), st.sampled_from(FAMILY), max_size=4),
    st.integers(1, 24),
    st.sampled_from([0.0, 0.5, 3.0]),
)
def test_builds_equal_the_public_constructor_of_their_parts(modes, n, s):
    spec = SymbolSpec.from_modes(modes, name="v")
    name = operators._Unkeyed("v")
    for _ in range(2):  # cold, then from the memo
        op = toeplitz_matrix(spec, s, n)
        parts = {
            j: operators._diagonal(profile, j, s, n, DEFAULT_QUADRATURE, name)
            for j, profile in spec.mode_items
            if abs(j) < n
        }
        error = max((float(np.max(errors)) for _, errors, *_ in parts.values()), default=0.0)
        diagonals = {j: values for j, (values, *_) in parts.items()}
        public = TruncatedOperator(diagonals, n, float(s), spec.max_mode, "v", error)
        assert_same_operator(op, public)


def rescaled(op, peak, error):
    """``op`` with its largest entry magnitude moved to ``peak`` (a zero
    operator as it is) and ``error`` for its entry_error."""
    scale = op.max_abs or 1.0
    diagonals = {d: values / scale * peak for d, values in op.diagonals.items()}
    return TruncatedOperator(diagonals, op.size, op.s, op.exact_band, op.label, error)


@given(
    pairs(),
    st.sampled_from([commutator, compose]),
    # at a peak of 1e160 most products overflow
    st.sampled_from([1.0, 1e160]),
    st.sampled_from([0.0, 1e-16, math.inf]),
)
def test_products_equal_the_public_constructor_of_their_parts(pair, product, peak, error):
    a, b = (rescaled(op, peak, error) for op in pair)
    (ab, band), (ba, _) = operators._product(a, b), operators._product(b, a)
    bound = operators._propagated_product_error(a, b)
    if product is compose:
        diagonals, label = ab, "x*x"
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            diagonals, label, bound = {d: ab[d] - ba[d] for d in ab}, "[x,x]", 2.0 * bound
    try:
        public = TruncatedOperator(diagonals, a.size, a.s, band, label, bound)
    except DomainError as refusal:  # an overflowing product, refused alike
        with pytest.raises(DomainError, match=f"^{re.escape(str(refusal))}$"):
            product(a, b)
        return
    assert_same_operator(product(a, b), public)
