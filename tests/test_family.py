"""The exact Gaussian-polynomial path: regression grid, isolation from the
quadrature, warm rebuilds from the diagonal memo, and property tests
against mpmath."""

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fock_toeplitz.mellin as mellin
import fock_toeplitz.operators as operators
from fock_toeplitz.config import build_profile
from fock_toeplitz.criterion import functional_equation_residuals, phi
from fock_toeplitz.operators import toeplitz_matrix
from fock_toeplitz.symbols import RadialProfile, SymbolSpec

mpmath.mp.dps = 40

ABS2 = SymbolSpec.from_modes({0: RadialProfile.monomial(2.0)}, name="abs2")
MIXED = SymbolSpec.from_modes(
    {
        0: RadialProfile.polynomial([1.0, -0.5, 0.25]),
        2: RadialProfile.monomial(1.5),
        -3: RadialProfile.gaussian_terms([(0.8, 2.0, 0.5), (-0.3j, 0.0, 1.2)]),
    },
    name="mixed",
)


def mpmath_entry(profile, j, m, s):
    """<T e_m, e_{m+j}> = sum c Gamma(a) (1+b)^(-a) / sqrt(Gamma(s+m+1) Gamma(s+m+j+1)),
    a = (2m + j + 2 + 2s + p)/2, at 40 digits."""
    s = mpmath.mpf(s)
    norm = mpmath.sqrt(mpmath.gamma(s + m + 1) * mpmath.gamma(s + m + j + 1))
    total = mpmath.mpc(0)
    for c, p, b in profile.terms:
        a = (2 * m + j + 2 + 2 * s + mpmath.mpf(p)) / 2
        total += mpmath.mpc(c) * mpmath.gamma(a) * (1 + mpmath.mpf(b)) ** (-a)
    return complex(total / norm)


@pytest.mark.parametrize("N", [20, 100, 160])
@pytest.mark.parametrize("s", [0.0, 5.0, 20.0, 50.0, 150.0])
def test_regression_grid(s, N):
    # |z|^2 has eigenvalues s + k + 1
    op = toeplitz_matrix(ABS2, s, N)
    expected = s + np.arange(N) + 1.0
    assert np.max(np.abs(np.diagonal(op.entries) - expected) / expected) <= 1e-12
    assert op.entry_error > 0.0

    op = toeplitz_matrix(MIXED, s, N)
    for j, profile in MIXED.mode_items:
        columns = range(max(0, -j), N - max(0, j))
        for m in sorted({columns[0], columns[len(columns) // 2], columns[-1]}):
            exact = mpmath_entry(profile, j, m, s)
            assert abs(op.entries[m + j, m] - exact) <= op.entry_error


def test_family_columns_skip_quadrature_and_rebuilds_skip_transforms(monkeypatch):
    columns = []
    quadrature = mellin.gaussian_weighted_columns

    def counting(parts, *args, **kwargs):
        columns.extend(len(alphas) for _, alphas, *_ in parts)
        return quadrature(parts, *args, **kwargs)

    transforms = []
    uncached = mellin.mellin_weighted

    def counting_transform(*args, **kwargs):
        transforms.append(args)
        return uncached(*args, **kwargs)

    computed = []
    column = operators._columns

    def counting_column(parts, s, spec):
        computed.extend(zetas.size for _, zetas in parts)
        return column(parts, s, spec)

    monkeypatch.setattr(mellin, "gaussian_weighted_columns", counting)
    monkeypatch.setattr(mellin, "mellin_weighted", counting_transform)
    monkeypatch.setattr(operators, "_columns", counting_column)
    # modes 0, 2 and -3 at N = 40 have 40, 38 and 37 entries
    toeplitz_matrix(MIXED, 3.217, 40)
    assert sorted(computed) == [37, 38, 40]
    # a family-only criterion report at the same (s, N) computes no transform:
    # every column it reads is a prefix of a diagonal built above
    report = functional_equation_residuals(MIXED.mode(0), MIXED, 3.217, 20, N=40)
    assert report.verdict.kind == "nonradial_mode_detected"
    assert columns == [] and transforms == [] and len(computed) == 3
    # and a rebuild reads the diagonal memo
    toeplitz_matrix(MIXED, 3.217, 40)
    assert columns == [] and transforms == [] and len(computed) == 3

    # an evaluator column at the same point is one quadrature for all its entries
    evaluator = SymbolSpec.from_modes({2: RadialProfile.from_callable(MIXED.mode(2), 1.5, 1.0)})
    toeplitz_matrix(evaluator, 3.217, 4)
    assert columns == [2] and computed[3:] == [2]
    # and a rebuild runs neither a transform nor quadrature
    toeplitz_matrix(evaluator, 3.217, 4)
    assert columns == [2] and len(computed) == 4


def test_gauss_decay_config_is_a_family_profile():
    profile = build_profile({"kind": "gauss_decay", "rate": 1.3, "scale": -0.7, "power": 2}, "v")
    assert profile.terms == ((-0.7 + 0j, 2.0, 1.3),)
    assert profile.evaluator is None


terms = st.lists(
    st.tuples(
        st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0, allow_nan=False),
        st.floats(0.0, 4.0),
        st.floats(0.0, 3.0),
    ),
    min_size=1,
    max_size=3,
)
orders = st.floats(0.0, 50.0)


@given(terms=terms, j=st.integers(-4, 4), s=orders, N=st.integers(5, 160), data=st.data())
def test_entries_within_entry_error_of_mpmath(terms, j, s, N, data):
    profile = RadialProfile.gaussian_terms(terms)
    op = toeplitz_matrix(SymbolSpec.from_modes({j: profile}), s, N)
    m = data.draw(st.integers(max(0, -j), N - 1 - max(0, j)))
    exact = mpmath_entry(profile, j, m, s) if profile.terms else 0j
    assert abs(op.entries[m + j, m] - exact) <= op.entry_error


@given(terms=terms, j=st.integers(1, 4), k=st.integers(0, 60), s=orders)
def test_phi_index_symmetry(terms, j, k, s):
    # Phi_j(k) = -Phi_{-j}(k+j)
    u = RadialProfile.gaussian_terms(terms)
    forward, forward_err = phi(j, k, s, u)
    backward, backward_err = phi(-j, k + j, s, u)
    assert abs(forward + backward) <= forward_err + backward_err
