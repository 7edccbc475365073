"""The matrix CSV and JSON bytes are a stable contract: they must equal,
byte for byte, what the straightforward per-entry exporters below write."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fock_toeplitz.operators import (
    TruncatedOperator,
    matrix_to_csv,
    matrix_to_json,
    toeplitz_matrix,
)
from fock_toeplitz.special_functions import QuadratureSpec
from fock_toeplitz.symbols import RadialProfile, SymbolSpec


def reference_csv(a):
    lines = ["row,col,re,im"]
    for row in range(a.size):
        for col in range(a.size):
            value = a.entries[row, col]
            lines.append(f"{row},{col},{float(value.real)!r},{float(value.imag)!r}")
    return "\n".join(lines) + "\n"


def reference_json(a):
    payload = {
        "s": a.s,
        "N": a.size,
        "exact_band": a.exact_band,
        "label": a.label,
        "entry_error": a.entry_error,
        "entries": [
            [row, col, float(a.entries[row, col].real), float(a.entries[row, col].imag)]
            for row in range(a.size)
            for col in range(a.size)
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


SPECIAL_FLOATS = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    1e308,
    -1e308,
    1.7976931348623157e308,
    0.1,
    1 / 3,
    -2.718281828459045,
    1.2345678901234567e-5,
    9.876543210987654e100,
]
floats = st.one_of(
    st.sampled_from(SPECIAL_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
)
labels = st.one_of(
    st.sampled_from(
        ['"entries": []', 'a "quoted" label', "back\\slash", "two\nlines", "ζ·Föck"]
    ),
    st.text(max_size=12),
)


@st.composite
def operators(draw):
    n = draw(st.integers(1, 12))
    band = draw(st.integers(0, n - 1))
    matrix = np.zeros((n, n), dtype=complex)
    for row in range(n):
        for col in range(max(0, row - band), min(n, row + band + 1)):
            matrix[row, col] = complex(draw(floats), draw(floats))
    s = draw(st.one_of(st.sampled_from([0.0, 0.5, 2.3, 1 / 3]), st.floats(0.0, 200.0)))
    error = draw(st.one_of(st.sampled_from([0.0, 5e-324, 1e-17]), st.floats(0.0, 1.0)))
    return TruncatedOperator(matrix, s, band, draw(labels), error)


@given(operators())
def test_exports_match_reference_bytes(op):
    assert matrix_to_csv(op) == reference_csv(op)
    assert matrix_to_json(op) == reference_json(op)


def test_non_finite_entry_error_stays_with_json():
    op = TruncatedOperator(np.eye(2, dtype=complex), 0.0, 0, "inf", math.inf)
    assert matrix_to_json(op) == reference_json(op)
    assert '"entry_error": Infinity' in matrix_to_json(op)


def decay(r):
    return np.exp(-1.3 * np.asarray(r, dtype=float))


PROFILES = {
    "monomial": RadialProfile.monomial(1.5),
    "polynomial": RadialProfile.polynomial([0.5, -0.3j, 1.0]),
    "gauss_decay": RadialProfile.gaussian_terms([(0.8 - 0.2j, 2.0, 0.7)]),
    "exp_decay": RadialProfile.from_callable(decay, growth_exponent=0.0, growth_constant=1.0),
}


@pytest.mark.parametrize("kind", sorted(PROFILES))
def test_real_matrices_match_reference_bytes(kind):
    spec = SymbolSpec.from_modes(
        {0: RadialProfile.monomial(2.0), 2: PROFILES[kind], -1: PROFILES[kind]}, name=kind
    )
    op = toeplitz_matrix(spec, 2.3, 24, QuadratureSpec.for_exponent(80.0))
    assert matrix_to_csv(op) == reference_csv(op)
    assert matrix_to_json(op) == reference_json(op)
