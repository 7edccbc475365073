"""The matrix and criterion-report bytes are a stable contract: they must
equal, byte for byte, what the straightforward per-entry exporters below
write."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fock_toeplitz import operators as operators_module
from fock_toeplitz.criterion import Cell, CriterionReport, Verdict, functional_equation_residuals
from fock_toeplitz.operators import (
    MAX_TRUNCATION,
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
    band = draw(st.integers(0, n + 1))
    reach = min(band, n - 1)
    keys = draw(st.sets(st.integers(-reach, reach)))
    diagonals = {
        d: [complex(draw(floats), draw(floats)) for _ in range(n - abs(d))] for d in keys
    }
    s = draw(st.one_of(st.sampled_from([0.0, 0.5, 2.3, 1 / 3]), st.floats(0.0, 200.0)))
    error = draw(st.one_of(st.sampled_from([0.0, 5e-324, 1e-17]), st.floats(0.0, 1.0)))
    return TruncatedOperator(diagonals, n, s, band, draw(labels), error)


@given(operators())
def test_exports_match_reference_bytes(op):
    assert matrix_to_csv(op) == reference_csv(op)
    assert matrix_to_json(op) == reference_json(op)


def test_stored_zeros_keep_their_sign():
    # a stored -0.0 is written as such; a zero outside the stored diagonals
    # comes from the zero row as 0.0
    op = TruncatedOperator({-2: [-0.0], 1: [complex(-0.0, 0.0), 0.0]}, 3, 0.0, 2, "zeros")
    assert matrix_to_csv(op) == reference_csv(op)
    assert matrix_to_json(op) == reference_json(op)
    lines = matrix_to_csv(op).splitlines()
    assert lines[1 + 2] == "0,2,-0.0,0.0"
    assert lines[1 + 3] == "1,0,-0.0,0.0"
    assert lines[1 + 1] == "0,1,0.0,0.0"


def test_non_finite_entry_error_stays_with_json():
    op = TruncatedOperator({0: np.ones(2)}, 2, 0.0, 0, "inf", math.inf)
    assert matrix_to_json(op) == reference_json(op)
    assert '"entry_error": Infinity' in matrix_to_json(op)


# sizes where the row index gains a digit, and the cap on either side; the
# constructor does not check the cap, so N = MAX_TRUNCATION + 1 is built directly
EDGE_SIZES = [9, 10, 11, 99, 100, 101, MAX_TRUNCATION, MAX_TRUNCATION + 1]


def edge_operator(n):
    diagonals = {
        d: np.linspace(-1.0, 2.0, n - abs(d)) + 1j * np.linspace(0.5, -3.0, n - abs(d)) / (d + 3)
        for d in (0, 1, -1, n - 1, -(n - 1))
    }
    diagonals[0][0] = -0.0
    diagonals[0][n - 1] = complex(5e-324, -0.0)
    diagonals[-1][n // 2] = 1e-320j
    return TruncatedOperator(diagonals, n, 0.5, n - 1, f"edge{n}", 1e-15)


def test_exports_match_reference_bytes_across_row_digits_and_the_cap():
    # the zero rows are cached per row across all sizes, so the order in
    # which sizes are exported must not matter
    ops = [edge_operator(n) for n in EDGE_SIZES]
    expected = {op.size: (reference_csv(op), reference_json(op)) for op in ops}
    operators_module._zero_row.cache_clear()
    operators_module._tagged_row.cache_clear()
    for op in ops[::-1] + ops:
        assert (matrix_to_csv(op), matrix_to_json(op)) == expected[op.size], op.size


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


def test_real_matrix_at_the_cap_matches_reference_bytes():
    spec = SymbolSpec.from_modes(
        {0: PROFILES["polynomial"], 2: PROFILES["exp_decay"]}, name="cap"
    )
    op = toeplitz_matrix(spec, 0.5, MAX_TRUNCATION)
    assert op.size == MAX_TRUNCATION
    assert matrix_to_csv(op) == reference_csv(op)
    assert matrix_to_json(op) == reference_json(op)


def reference_report_json(report):
    """The whole report through json's indented encoder, cell by cell."""
    cells = [
        {
            "j": cell.j,
            "k": cell.k,
            "phi": {"re": cell.phi.real, "im": cell.phi.imag},
            "phi_err": cell.phi_err,
            "psi": {"re": cell.psi.real, "im": cell.psi.imag},
            "psi_err": cell.psi_err,
            "product": {"re": cell.product.real, "im": cell.product.imag},
            "product_err": cell.product_err,
        }
        for cell in (report.cells[key] for key in sorted(report.cells))
    ]
    payload = {
        "s": report.s,
        "k_range": [0, report.k_max],
        "j_range": [min(report.j_modes), max(report.j_modes)] if report.j_modes else [0, 0],
        "j_modes": list(report.j_modes),
        "verdict": {
            "kind": report.verdict.kind,
            "modes": list(report.verdict.modes),
            "reason": report.verdict.reason,
        },
        "commutation_asserted": report.commutation_asserted,
        "matrix_window_residual": report.matrix_window_residual,
        "tolerances": {
            "quad_abs": report.quad_abs_tol,
            "quad_rel": report.quad_rel_tol,
            "verdict_multiplier": report.verdict_multiplier,
        },
        "truncation_size": report.truncation_size,
        "cells": cells,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


non_finite = st.sampled_from([math.inf, -math.inf, math.nan])
any_floats = st.one_of(floats, non_finite)
# |phi| and |psi| must stay finite for Cell.product_err; the program refuses
# factors beyond double range before it builds a cell
parts = st.one_of(st.sampled_from(SPECIAL_FLOATS[:6]), st.floats(-1e300, 1e300), non_finite)
complexes = st.builds(complex, parts, parts)


@st.composite
def reports(draw):
    keys = draw(
        st.lists(st.tuples(st.integers(-4, 4), st.integers(0, 60)), unique=True, max_size=6)
    )
    cells = {
        (j, k): Cell(j, k, draw(complexes), draw(any_floats), draw(complexes), draw(any_floats))
        for j, k in keys
    }
    j_modes = tuple(sorted({j for j, _ in keys}))
    verdict = draw(
        st.sampled_from(
            [
                Verdict("consistent_radial"),
                Verdict("nonradial_mode_detected", modes=j_modes),
                Verdict("inconclusive", reason='window "cells": [] residual'),
            ]
        )
    )
    return CriterionReport(
        s=draw(floats),
        k_max=draw(st.integers(1, 60)),
        j_modes=j_modes,
        cells=cells,
        verdict=verdict,
        commutation_asserted=draw(st.booleans()),
        matrix_window_residual=draw(any_floats),
        verdict_multiplier=3.0,
        truncation_size=draw(st.integers(1, 160)),
        quad_abs_tol=1e-13,
        quad_rel_tol=1e-11,
    )


@given(reports())
def test_report_json_matches_reference_bytes(report):
    assert report.to_json() == reference_report_json(report)


def test_real_report_matches_reference_bytes():
    v = SymbolSpec.from_modes(
        {0: PROFILES["polynomial"], 2: PROFILES["exp_decay"], -1: PROFILES["gauss_decay"]},
        name="v",
    )
    report = functional_equation_residuals(PROFILES["polynomial"], v, 1.7, 20)
    assert report.to_json() == reference_report_json(report)
