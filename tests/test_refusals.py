"""The accepted domain of every scalar parameter, as one table.

Each row of ``TABLE`` is an entry point, the parameter name its refusal
gives, a call that passes a value there, and the parameter's domain in the
keywords of :func:`errors.number` (``POINT`` for a complex one).  Every value
just outside a domain (no number, not finite, one past each bound, not an
integer where one is required) is refused with a DomainError in the one
message form, "{name} must be {domain}, got {value!r}"; through
``load_config`` it is a ConfigurationError "field 'name': must be ...".
Values of every real type inside the domains give the same bytes.
"""

import math
import re

import numpy as np
import pytest
import yaml

import fock_toeplitz as ft
from fock_toeplitz import operators
from fock_toeplitz.config import load_config
from fock_toeplitz.errors import ConfigurationError, DomainError, number, point
from fock_toeplitz.special_functions import gaussian_weighted_column, tail_radius

R2 = ft.RadialProfile.monomial(2.0)
Z = ft.SymbolSpec.from_modes({1: ft.RadialProfile.monomial(1.0)}, name="z")
OP = ft.TruncatedOperator({0: np.ones(4)}, 4, 0.0, 0, "op")
RADII = np.linspace(0.1, 3.0, 8)
SAMPLES = ft.sample_polar(Z, RADII, 8)


def _decay(r):
    return np.exp(-np.asarray(r))


REAL = {}
NONNEGATIVE = {"minimum": 0.0}
POSITIVE = {"above": 0.0}
INTEGER = {"integer": True}
COUNT = {"minimum": 1, "integer": True}
INDEX = {"minimum": 0, "integer": True}
SIZE = {**COUNT, "maximum": 160}
NODES = {"minimum": 2, "maximum": 1024, "integer": True}
POINT = "point"

TABLE = [
    ("SobolevOrder", "s", lambda x: ft.SobolevOrder(x), NONNEGATIVE),
    ("toeplitz_matrix", "s", lambda x: ft.toeplitz_matrix(Z, x, 4), NONNEGATIVE),
    ("toeplitz_matrix", "N", lambda x: ft.toeplitz_matrix(Z, 0.0, x), SIZE),
    ("radial_eigenvalues", "s", lambda x: ft.radial_eigenvalues(R2, x, 4), NONNEGATIVE),
    ("radial_eigenvalues", "N", lambda x: ft.radial_eigenvalues(R2, 0.0, x), SIZE),
    ("TruncatedOperator", "operator 'op': size",
     lambda x: ft.TruncatedOperator({0: np.ones(4)}, x, 0.0, 0, "op"), COUNT),
    ("TruncatedOperator", "operator 'op': s",
     lambda x: ft.TruncatedOperator({0: np.ones(4)}, 4, x, 0, "op"), NONNEGATIVE),
    ("TruncatedOperator", "operator 'op': exact_band",
     lambda x: ft.TruncatedOperator({0: np.ones(4)}, 4, 0.0, x, "op"), INDEX),
    # an infinite bound stands (see ACCEPTED_BEYOND)
    ("TruncatedOperator", "operator 'op': entry_error",
     lambda x: ft.TruncatedOperator({0: np.ones(4)}, 4, 0.0, 0, "op", x), NONNEGATIVE),
    ("TruncatedOperator", "operator 'op': diagonal key",
     lambda x: ft.TruncatedOperator({x: np.ones(4)}, 4, 0.0, 0, "op"), INTEGER),
    ("window_max_abs", "window", lambda x: ft.window_max_abs(OP, x), {**INDEX, "maximum": 3}),
    ("berezin", "Berezin point z", lambda x: ft.berezin(OP, x), POINT),
    ("min_truncation_size", "max_abs_z", lambda x: ft.min_truncation_size(x, 0.0), NONNEGATIVE),
    ("min_truncation_size", "s", lambda x: ft.min_truncation_size(1.0, x), NONNEGATIVE),
    ("QuadratureSpec", "node_count",
     lambda x: ft.QuadratureSpec(node_count=x), NODES),
    ("QuadratureSpec", "tail_cutoff", lambda x: ft.QuadratureSpec(tail_cutoff=x), POSITIVE),
    ("QuadratureSpec", "abs_tol", lambda x: ft.QuadratureSpec(abs_tol=x), POSITIVE),
    ("QuadratureSpec", "rel_tol", lambda x: ft.QuadratureSpec(rel_tol=x), POSITIVE),
    ("QuadratureSpec.for_exponent", "abs_tol",
     lambda x: ft.QuadratureSpec.for_exponent(10.0, abs_tol=x), POSITIVE),
    ("tail_radius", "abs_tol", lambda x: tail_radius(10.0, x), POSITIVE),
    ("log_gamma", "log_gamma argument x", lambda x: ft.log_gamma(x), POSITIVE),
    ("gaussian_weighted_column", "growth_exponent",
     lambda x: gaussian_weighted_column(_decay, [2.0], growth_exponent=x), NONNEGATIVE),
    ("gaussian_weighted_column", "growth_constant",
     lambda x: gaussian_weighted_column(_decay, [2.0], growth_constant=x), POSITIVE),
    ("RadialProfile", "growth_exponent", lambda x: ft.RadialProfile(x, 1.0), NONNEGATIVE),
    ("RadialProfile", "growth_constant", lambda x: ft.RadialProfile(0.0, x), POSITIVE),
    ("RadialProfile.from_callable", "growth_exponent",
     lambda x: ft.RadialProfile.from_callable(_decay, x, 1.0), NONNEGATIVE),
    ("RadialProfile.gaussian_terms", "Gaussian term 0: c",
     lambda x: ft.RadialProfile.gaussian_terms([(x, 0.0, 0.0)]), POINT),
    ("RadialProfile.gaussian_terms", "Gaussian term 0: p",
     lambda x: ft.RadialProfile.gaussian_terms([(1.0, x, 0.0)]), NONNEGATIVE),
    ("RadialProfile.gaussian_terms", "Gaussian term 0: b",
     lambda x: ft.RadialProfile.gaussian_terms([(1.0, 0.0, x)]), NONNEGATIVE),
    ("RadialProfile.monomial", "Gaussian term 0: p",
     lambda x: ft.RadialProfile.monomial(x), NONNEGATIVE),
    ("RadialProfile.polynomial", "Gaussian term 1: c",
     lambda x: ft.RadialProfile.polynomial([1.0, x]), POINT),
    ("SymbolSpec", "symbol 'v': mode index", lambda x: ft.SymbolSpec(((x, R2),), "v"), INTEGER),
    ("SymbolSpec.from_modes", "symbol 'v': mode index",
     lambda x: ft.SymbolSpec.from_modes({x: R2}, name="v"), INTEGER),
    ("evaluate", "z", lambda x: ft.evaluate(Z, x), POINT),
    ("sample_polar", "n_angles", lambda x: ft.sample_polar(Z, RADII, x), COUNT),
    ("decompose", "j_max", lambda x: ft.decompose(RADII, SAMPLES, x), COUNT),
    ("decompose", "drop_floor",
     lambda x: ft.decompose(RADII, SAMPLES, 1, drop_floor=x), NONNEGATIVE),
    ("polar_l2_norm", "s", lambda x: ft.polar_l2_norm(RADII, SAMPLES, x), NONNEGATIVE),
    ("density", "density point z", lambda x: ft.density(x, 0.0), POINT),
    ("density", "s", lambda x: ft.density(1.0, x), NONNEGATIVE),
    ("kernel_eval", "kernel point z", lambda x: ft.kernel_eval(x, 1.0, 0.0), POINT),
    ("kernel_eval", "kernel point w", lambda x: ft.kernel_eval(1.0, x, 0.0), POINT),
    ("kernel_eval", "s", lambda x: ft.kernel_eval(1.0, 1.0, x), NONNEGATIVE),
    ("kernel_eval", "abs_tol", lambda x: ft.kernel_eval(1.0, 1.0, 0.0, abs_tol=x), POSITIVE),
    ("mellin_weighted", "s", lambda x: ft.mellin_weighted(R2, x, 2.0), NONNEGATIVE),
    ("mellin_weighted", "zeta", lambda x: ft.mellin_weighted(R2, 1.0, x), REAL),
    # at k = 0, j + k >= 0 is j >= 0
    ("phi", "j", lambda x: ft.phi(x, 0, 0.0, R2), INDEX),
    ("phi", "k", lambda x: ft.phi(1, x, 0.0, R2), INDEX),
    ("phi", "s", lambda x: ft.phi(1, 0, x, R2), NONNEGATIVE),
    ("psi", "j", lambda x: ft.psi(x, 0, 0.0, R2), INDEX),
    ("psi", "k", lambda x: ft.psi(1, x, 0.0, R2), INDEX),
    ("psi", "s", lambda x: ft.psi(1, 0, x, R2), NONNEGATIVE),
    ("functional_equation_residuals", "s",
     lambda x: ft.functional_equation_residuals(R2, Z, x, 2), NONNEGATIVE),
    ("functional_equation_residuals", "k_max",
     lambda x: ft.functional_equation_residuals(R2, Z, 0.0, x), COUNT),
    ("functional_equation_residuals", "verdict_multiplier",
     lambda x: ft.functional_equation_residuals(R2, Z, 0.0, 2, verdict_multiplier=x), POSITIVE),
    ("commutator_cross_check", "s", lambda x: ft.commutator_cross_check(R2, Z, x, 8), NONNEGATIVE),
    ("commutator_cross_check", "k_max",
     lambda x: ft.commutator_cross_check(R2, Z, 0.0, 8, k_max=x), INDEX),
    ("periodicity_probe", "s", lambda x: ft.periodicity_probe(R2, x, 1, [0.0]), NONNEGATIVE),
    ("periodicity_probe", "period j", lambda x: ft.periodicity_probe(R2, 0.0, x, [0.0]), COUNT),
    ("periodicity_probe", "z_grid[0]",
     lambda x: ft.periodicity_probe(R2, 0.0, 1, [x]), {"above": -1.0}),
]

# Values outside the domain that a parameter accepts all the same: an unknown
# bound, and the default k_max (the whole exactness window).
ACCEPTED_BEYOND = {
    ("TruncatedOperator", "operator 'op': entry_error"): [math.inf],
    ("commutator_cross_check", "k_max"): [None],
}

CONFIG = """\
s_values: [0.0]
u:
  modes:
    - {j: 0, kind: monomial, power: 2}
v:
  modes:
    - {j: 1, kind: gauss_decay, rate: 1.0, power: 0, scale: 1.0}
    - {j: 2, kind: exp_decay, rate: 0.5, scale: 1.0}
N: 8
k_max: 2
j_max: 2
tolerances:
  quad_abs: 1.0e-13
  quad_rel: 1.0e-11
  verdict_multiplier: 3.0
  drop_floor: 1.0e-12
  node_count: 48
"""

# (field, the text of its value in CONFIG, the same text with the value as {}, domain)
CONFIG_TABLE = [
    ("s_values[0]", "s_values: [0.0]", "s_values: [{}]", NONNEGATIVE),
    ("N", "N: 8", "N: {}", SIZE),
    ("k_max", "k_max: 2", "k_max: {}", COUNT),
    ("j_max", "j_max: 2", "j_max: {}", COUNT),
    ("u.modes[0].j", "{j: 0, kind: monomial", "{{j: {}, kind: monomial", INTEGER),
    ("u.modes[0].power", "power: 2}", "power: {}}}", NONNEGATIVE),
    ("v.modes[0].rate", "rate: 1.0,", "rate: {},", POSITIVE),
    ("v.modes[0].power", "power: 0,", "power: {},", NONNEGATIVE),
    ("v.modes[0].scale", "power: 0, scale: 1.0}", "power: 0, scale: {}}}", REAL),
    ("v.modes[1].rate", "rate: 0.5,", "rate: {},", POSITIVE),
    ("tolerances.quad_abs", "quad_abs: 1.0e-13", "quad_abs: {}", POSITIVE),
    ("tolerances.quad_rel", "quad_rel: 1.0e-11", "quad_rel: {}", POSITIVE),
    ("tolerances.verdict_multiplier", "multiplier: 3.0", "multiplier: {}", POSITIVE),
    ("tolerances.drop_floor", "drop_floor: 1.0e-12", "drop_floor: {}", POSITIVE),
    ("tolerances.node_count", "node_count: 48", "node_count: {}", NODES),
]

NOT_NUMBERS = [True, np.bool_(True), "3", "x", None, math.nan, math.inf, -math.inf]


def outside(domain) -> list:
    """The values just outside ``domain``: no number or not finite, -1 where it
    is outside, 2.5 where an integer is required, and one past each bound."""
    if domain == POINT:
        return NOT_NUMBERS + [complex(math.nan, 1.0), complex(1.0, -math.inf)]
    integer = domain.get("integer", False)
    minimum, above, maximum = (domain.get(key) for key in ("minimum", "above", "maximum"))
    values = list(NOT_NUMBERS)
    if (minimum is not None and -1 < minimum) or (above is not None and -1 <= above):
        values.append(-1)
    if integer:
        values.append(2.5)
    if minimum is not None:
        values.append(minimum - 1 if integer else math.nextafter(minimum, -math.inf))
    if above is not None:
        values.append(above)
    if maximum is not None:
        values.append(maximum + 1 if integer else math.nextafter(maximum, math.inf))
    unique = {}
    for value in values:  # -1 may also be one past the minimum
        unique.setdefault((type(value), repr(value)), value)
    return list(unique.values())


def _refusal(prefix: str, value) -> str:
    return "^" + re.escape(f"{prefix}must be ") + ".+" + re.escape(f", got {value!r}") + "$"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call, parameter, value",
    [
        pytest.param(call, parameter, value, id=f"{entry}-{parameter}-{value!r}")
        for entry, parameter, call, domain in TABLE
        for value in outside(domain)
        if value not in ACCEPTED_BEYOND.get((entry, parameter), [])
    ],
)
def test_a_value_outside_the_domain_is_refused_naming_the_parameter(call, parameter, value):
    with pytest.raises(DomainError, match=_refusal(f"{parameter} ", value)):
        call(value)


@pytest.mark.parametrize(
    "field, old, new, value",
    [
        pytest.param(field, old, new, value, id=f"{field}-{value!r}")
        for field, old, new, domain in CONFIG_TABLE
        for value in outside(domain)
        if not isinstance(value, np.bool_)  # YAML has no numpy bool
    ],
)
def test_a_config_value_outside_the_domain_is_refused_naming_the_field(
    tmp_path, field, old, new, value
):
    assert CONFIG.count(old) == 1
    text = yaml.safe_dump(value).split("\n")[0]  # yaml reads it back as value
    path = tmp_path / "c.yaml"
    path.write_text(CONFIG.replace(old, new.format(text)))
    with pytest.raises(ConfigurationError, match=_refusal(f"field {field!r}: ", value)):
        load_config(path)


def test_the_config_table_accepts_its_own_document(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text(CONFIG)
    assert load_config(path).N == 8


@pytest.mark.parametrize(
    "domain, words",
    [
        (REAL, "finite"),
        (NONNEGATIVE, "finite and >= 0"),
        (POSITIVE, "finite and > 0"),
        ({"above": -1.0}, "finite and > -1"),
        (INTEGER, "an integer"),
        (COUNT, "an integer >= 1"),
        ({**COUNT, "maximum": 160}, "an integer in [1, 160]"),
    ],
)
def test_the_domain_is_worded_from_its_bounds(domain, words):
    with pytest.raises(DomainError, match="^" + re.escape(f"x must be {words}, got None") + "$"):
        number("x", None, **domain)


@pytest.mark.parametrize(
    "value", [2, 2.0, np.int64(2), np.int8(2), np.uint16(2), np.float64(2.0), np.float32(2.0)]
)
def test_every_real_type_is_read_as_a_python_number(value):
    real, whole = number("x", value), number("x", value, integer=True)
    assert type(real) is float and real == 2.0
    assert type(whole) is int and whole == 2
    assert type(point("z", value)) is complex and point("z", value) == 2.0


def test_integers_are_read_exactly():
    assert number("k", 10**400, integer=True) == 10**400
    assert number("k", 2**63 + 1, integer=True, minimum=0) == 2**63 + 1
    with pytest.raises(DomainError, match=r"^x must be finite, got 1000"):
        number("x", 10**400)


@pytest.mark.parametrize("value", [1 + 2j, np.complex64(1 + 2j), np.complex128(1 + 2j)])
def test_complex_points_are_read_as_python_complex(value):
    assert type(point("z", value)) is complex and point("z", value) == 1 + 2j


def _symbol():
    decay = ft.RadialProfile.from_callable(_decay, 0.0, 1.0)
    modes = {0: R2, 1: decay, -2: ft.RadialProfile.polynomial([0.5, 1j])}
    return ft.SymbolSpec.from_modes(modes, name="v")


ORDERS = [1, 1.0, np.int64(1), np.float64(1.0), np.float32(1.0)]
SIZES = [12, 12.0, np.int64(12), np.int32(12), np.float64(12.0)]
TOLERANCES = [
    dict(node_count=48, abs_tol=1e-13, rel_tol=1e-11),
    dict(node_count=48.0, abs_tol=np.float64(1e-13), rel_tol=np.float64(1e-11)),
    dict(node_count=np.int64(48), abs_tol=np.float64(1e-13), rel_tol=1e-11),
]


def test_every_real_type_of_s_n_and_tolerances_gives_the_same_matrix_bytes():
    exports = set()
    for s, n, tolerances in zip(ORDERS, SIZES, TOLERANCES * 2):
        operators._memo.clear()  # every variant builds from its own transforms
        quad = ft.QuadratureSpec.for_exponent(60.0, **tolerances)
        exports.add(ft.matrix_to_json(ft.toeplitz_matrix(_symbol(), s, n, quad)))
    assert len(exports) == 1


def test_every_real_type_of_s_n_and_tolerances_gives_the_same_criterion_bytes():
    multipliers = [3, 3.0, np.int64(3), np.float64(3.0), np.float32(3.0)]
    k_maxes = [4, 4.0, np.int64(4), np.int16(4), np.float64(4.0)]
    reports = set()
    variants = zip(ORDERS, SIZES, k_maxes, multipliers, TOLERANCES * 2)
    for s, n, k_max, multiplier, tolerances in variants:
        operators._memo.clear()
        quad = ft.QuadratureSpec.for_exponent(60.0, **tolerances)
        report = ft.functional_equation_residuals(
            R2, _symbol(), s, k_max, quad, N=n, verdict_multiplier=multiplier
        )
        reports.add(report.to_json() + report.to_csv())
    assert len(reports) == 1
