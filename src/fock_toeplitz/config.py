"""Experiment configuration: one YAML document per reproducible run.

The file declares symbols as angular modes {j, kind, parameters}, the order
sweep, truncation and index ranges, tolerances, and output destinations.
Everything the CLI does is a pure function of this document plus any input
sample files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .criterion import DEFAULT_VERDICT_MULTIPLIER
from .errors import ConfigurationError, DomainError, number
from .operators import MAX_TRUNCATION
from .special_functions import DEFAULT_QUADRATURE, MAX_NODE_COUNT, QuadratureSpec
from .symbols import DEFAULT_DROP_FLOOR, RadialProfile, SymbolSpec

__all__ = ["ExperimentConfig", "load_config", "build_symbol", "build_profile"]

_ALLOWED_FORMATS = {"json", "csv"}


@dataclass
class ExperimentConfig:
    s_values: list[float]
    u: SymbolSpec | None
    v: SymbolSpec | None
    N: int
    k_max: int
    j_max: int
    quad: QuadratureSpec
    verdict_multiplier: float
    assert_commutation: bool
    out_dir: Path
    formats: tuple[str, ...]
    drop_floor: float

    def want(self, fmt: str) -> bool:
        return fmt in self.formats


def _fail(name: str, message: str):
    raise ConfigurationError(f"field {name!r}: {message}")


def _field(name: str, value, where: str = "", **domain):
    """:func:`errors.number` of field ``name`` (same keywords), refused by a
    :class:`ConfigurationError` "{where}field 'name': must be ..., got ..."."""
    try:
        return number(name, value, **domain)
    except DomainError as exc:
        message = str(exc).removeprefix(f"{name} ")
        raise ConfigurationError(f"{where}field {name!r}: {message}") from None


def _complex_field(name: str, value) -> complex:
    """A complex field: a real number or an [re, im] pair of them."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_field(f"{name}[0]", value[0]), _field(f"{name}[1]", value[1]))
    return complex(_field(name, value))


def build_profile(mode: dict, where: str) -> RadialProfile:
    """RadialProfile from a {kind, parameters} mapping."""
    kind = mode.get("kind")
    if kind == "monomial":
        return RadialProfile.monomial(_field(f"{where}.power", mode.get("power"), minimum=0.0))
    if kind == "polynomial":
        coefficients = mode.get("coefficients")
        if not isinstance(coefficients, list) or not coefficients:
            _fail(f"{where}.coefficients", "expected a nonempty list")
        return RadialProfile.polynomial(
            [_complex_field(f"{where}.coefficients[{i}]", c) for i, c in enumerate(coefficients)]
        )
    if kind == "exp_decay":
        rate = _field(f"{where}.rate", mode.get("rate", 1.0), above=0.0)
        scale = _complex_field(f"{where}.scale", mode.get("scale", 1.0))
        return RadialProfile.from_callable(
            lambda r, _a=scale, _b=rate: _a * np.exp(-_b * np.asarray(r, dtype=float)),
            growth_exponent=0.0,
            growth_constant=max(abs(scale), 1e-300),
        )
    if kind == "gauss_decay":
        rate = _field(f"{where}.rate", mode.get("rate", 1.0), above=0.0)
        scale = _complex_field(f"{where}.scale", mode.get("scale", 1.0))
        power = _field(f"{where}.power", mode.get("power", 0.0), minimum=0.0)
        return RadialProfile.gaussian_terms([(scale, power, rate)])
    if kind == "zero":
        return RadialProfile.zero()
    _fail(f"{where}.kind", f"unknown profile kind {kind!r}")


def build_symbol(document: dict, where: str) -> SymbolSpec:
    """SymbolSpec from {name, modes: [{j, kind, ...}]}."""
    if not isinstance(document, dict):
        _fail(where, f"expected a mapping, got {document!r}")
    name = document.get("name", where)
    modes_doc = document.get("modes")
    if not isinstance(modes_doc, list) or not modes_doc:
        _fail(f"{where}.modes", "expected a nonempty list of mode mappings")
    modes: dict[int, RadialProfile] = {}
    for index, mode in enumerate(modes_doc):
        if not isinstance(mode, dict):
            _fail(f"{where}.modes[{index}]", "expected a mapping")
        j = _field(f"{where}.modes[{index}].j", mode.get("j"), integer=True)
        if j in modes:
            _fail(f"{where}.modes[{index}].j", f"duplicate mode j={j}")
        modes[j] = build_profile(mode, f"{where}.modes[{index}]")
    return SymbolSpec.from_modes(modes, name=str(name))


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate an experiment file; all failures carry field names."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    try:
        document = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigurationError(f"config {path}: top level must be a mapping")

    known = {
        "s_values", "u", "v", "N", "k_max", "j_max",
        "assert_commutation", "tolerances", "output",
    }
    for key in document:
        if key not in known:
            _fail(key, "unknown field")

    raw_s = document.get("s_values", [0.0])
    if not isinstance(raw_s, list) or not raw_s:
        _fail("s_values", "expected a nonempty list")
    s_values = [_field(f"s_values[{i}]", v, minimum=0.0) for i, v in enumerate(raw_s)]
    for i, s in enumerate(s_values):
        if s in s_values[:i]:
            _fail(f"s_values[{i}]", f"repeats s_values[{s_values.index(s)}] = {s!r}")

    u = build_symbol(document["u"], "u") if "u" in document else None
    v = build_symbol(document["v"], "v") if "v" in document else None

    tolerances = document.get("tolerances", {}) or {}
    if not isinstance(tolerances, dict):
        _fail("tolerances", "expected a mapping")
    defaults = {
        "quad_abs": DEFAULT_QUADRATURE.abs_tol,
        "quad_rel": DEFAULT_QUADRATURE.rel_tol,
        "verdict_multiplier": DEFAULT_VERDICT_MULTIPLIER,
        "drop_floor": DEFAULT_DROP_FLOOR,
    }
    for key in tolerances:
        if key not in defaults and key != "node_count":
            _fail(f"tolerances.{key}", "unknown field")
    node_count = tolerances.get("node_count", DEFAULT_QUADRATURE.node_count)
    node_count = _field(
        "tolerances.node_count", node_count, minimum=2, maximum=MAX_NODE_COUNT, integer=True
    )
    positive = {
        key: _field(f"tolerances.{key}", tolerances.get(key, default), above=0.0)
        for key, default in defaults.items()
    }

    k_max = _field("k_max", document.get("k_max", 12), minimum=1, integer=True)
    mode_span = max(
        [abs(j) for sym in (u, v) if sym is not None for j in sym.mode_indices] or [1]
    )
    j_max = _field("j_max", document.get("j_max", mode_span), minimum=1, integer=True)
    if "N" not in document:
        _fail("N", "required field is missing")
    n_value = _field("N", document.get("N"), minimum=1, maximum=MAX_TRUNCATION, integer=True)

    assert_commutation = document.get("assert_commutation", True)
    if not isinstance(assert_commutation, bool):
        _fail("assert_commutation", f"expected true/false, got {assert_commutation!r}")

    output = document.get("output", {}) or {}
    if not isinstance(output, dict):
        _fail("output", "expected a mapping")
    out_dir = Path(output.get("directory", "out"))
    formats_raw = output.get("formats", ["json", "csv"])
    if not isinstance(formats_raw, list) or not formats_raw:
        _fail("output.formats", "expected a nonempty list")
    formats = []
    for i, fmt in enumerate(formats_raw):
        if fmt not in _ALLOWED_FORMATS:
            _fail(f"output.formats[{i}]", f"must be one of {sorted(_ALLOWED_FORMATS)}")
        if fmt not in formats:
            formats.append(fmt)

    quad = QuadratureSpec.for_exponent(
        2.0 * max(s_values) + 2.0 * (k_max + j_max + 2),
        node_count=node_count,
        abs_tol=positive["quad_abs"],
        rel_tol=positive["quad_rel"],
    )
    return ExperimentConfig(
        s_values=s_values,
        u=u,
        v=v,
        N=n_value,
        k_max=k_max,
        j_max=j_max,
        quad=quad,
        verdict_multiplier=positive["verdict_multiplier"],
        assert_commutation=assert_commutation,
        out_dir=out_dir,
        formats=tuple(formats),
        drop_floor=positive["drop_floor"],
    )
