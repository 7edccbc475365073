"""Functional-equation residuals and the radiality verdict engine.

For a radial symbol u and a second symbol v with angular modes {j -> v_j},
commutation of the two Toeplitz operators forces, for every k >= 0 and j
with j + k >= 0, the product Phi_j(k+s) * Psi_j(k+s) = 0, where

    Phi_j(k+s) = H(k) - H(k+j),   H(m) = M[u G_s](2m+2) / Gamma(m+s+1),
    Psi_j(k+s) = M[v_j G_s](j+2k+2).

Phi_0 vanishes identically, as does every Phi_j when u is constant; for a
nonconstant radial u the products can only vanish when the nonradial modes
of v do, so every surviving nonradial mode is an obstruction to commutation.

Both factors are read off the matrices: H(m) = lambda_m / (2 pi), lambda
the eigenvalues of T_u, and Psi is held on the matrix's scale,
Psi~_j(k+s) = Psi_j(k+s) / sqrt(Gamma(s+k+1) Gamma(s+k+j+1)) = T_v[k+j, k]
/ (2 pi); the positive normaliser scales a value and its error bar alike.
So cell (j, k) is the commutator entry C[k+j, k] = -(2 pi)^2 Phi_j Psi~_j up to
rounding; ``commutator_cross_check`` compares C with cached scalar transforms.

"Vanishing" always means: magnitude below ``verdict_multiplier`` times the
propagated error estimate (quadrature error for evaluator profiles, rounding
error for exact Gaussian-polynomial transforms).  A report reads its cells
off the diagonals of T_u and T_v it has just built (``_diagonals``);
``phi``, ``psi`` and the probe compute theirs, scaled alike, by ``_entries``.
All four read factors through ``_factor``, which refuses a nonzero profile
whose entries all underflow to exactly 0, or hold a subnormal value or a
nonzero value with a zero error bar, rather than read them as resolved;
a Gamma argument s + m + max(j, 0) + 1 beyond 1e12, where the error bars
are not validated, is refused too.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, PreconditionError, is_integer
from .fock_space import SobolevOrder, order_value
from .mellin import mellin_weighted_cached
from .operators import (
    TruncatedOperator,
    _diagonals,
    _entries,
    commutator,
    toeplitz_matrix,
    window_max_abs,
)
from .special_functions import DEFAULT_QUADRATURE, QuadratureSpec, log_gamma
from .symbols import RadialProfile, SymbolSpec

__all__ = [
    "Verdict",
    "Cell",
    "CriterionReport",
    "phi",
    "psi",
    "functional_equation_residuals",
    "commutator_cross_check",
    "periodicity_probe",
]

DEFAULT_VERDICT_MULTIPLIER = 3.0
_MAX_GAMMA_ARGUMENT = 1e12  # the largest at which the first-order error bars were checked


def _factor(entries: tuple, profile: RadialProfile, j: int, name: str, where: str) -> tuple:
    """Mode-j entries of ``profile`` and their errors over 2 pi (H = lambda / (2 pi),
    Psi~ = T_v / (2 pi)); refused, naming ``where`` they were read, when a nonzero
    profile's are all exactly 0, or hold a subnormal value or a nonzero value with
    a zero error bar: an underflow would read as a vanishing or resolved factor."""
    values, errors = (part / (2.0 * math.pi) for part in entries)
    magnitudes = np.abs(values)
    underflow = (magnitudes > 0.0) & ((magnitudes < np.finfo(float).tiny) | (errors == 0.0))
    resolved = (values.any() or errors.any()) and not underflow.any()
    if not (profile.is_zero or resolved):
        raise DomainError(
            f"entries of symbol {name!r} at mode j={j} underflow to 0 {where}: "
            "the criterion cannot resolve them"
        )
    return values, errors


def _check_gamma_argument(s: float, m, j: int) -> None:
    """Refuse a factor whose entries reach a Gamma argument s + m + max(j, 0) + 1
    beyond 1e12, where its error bars are not validated."""
    argument = s + m + max(j, 0) + 1
    if argument > _MAX_GAMMA_ARGUMENT:
        raise DomainError(
            f"Gamma argument s + m + max(j, 0) + 1 = {argument:g} (s={s:g}, m={m}, j={j}) "
            f"exceeds {_MAX_GAMMA_ARGUMENT:g}, beyond which the error bars are not validated"
        )


def _commutes(window_residual: float, comm: TruncatedOperator, multiplier: float) -> bool:
    """The commutation test: the window residual is at most ``multiplier``
    times the entry error, floored at 1e-10."""
    return bool(window_residual <= max(multiplier * comm.entry_error, 1e-10))


def _cell(j, k, s) -> tuple[int, int, float]:
    """j, k and the order of a cell, refused outside k >= 0, j + k >= 0
    (both integers) and beyond the Gamma-argument cap."""
    if not is_integer(k) or k < 0:
        raise DomainError(f"k must be a nonnegative integer, got {k!r}")
    if not is_integer(j) or j + k < 0:
        raise DomainError(f"need integer j with j + k >= 0, got j={j!r}, k={k!r}")
    sv, j, k = order_value(s), int(j), int(k)
    _check_gamma_argument(sv, k, j)
    return j, k, sv


def phi(
    j: int,
    k: int,
    s: "float | SobolevOrder",
    u: RadialProfile,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> tuple[complex, float]:
    """First factor of the functional equation at z = k + s, with its
    propagated absolute error estimate.

    Identically zero for j = 0 and for constant u; satisfies the index
    symmetry Phi_j(k) = -Phi_{-j}(k+j).
    """
    j, k, sv = _cell(j, k, s)
    if j == 0:
        return 0j, 0.0
    entries = _entries(u, 0, np.array([k, k + j]), sv, quad, "u")
    h, h_err = _factor(entries, u, 0, "u", f"at s={sv:g}")
    return complex(h[0] - h[1]), float(h_err[0] + h_err[1])


def psi(
    j: int,
    k: int,
    s: "float | SobolevOrder",
    v_j: RadialProfile,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> tuple[complex, float]:
    """Second factor of the functional equation on the matrix's scale,
    Psi~_j(k+s) = M[v_j G_s](j + 2k + 2) / sqrt(Gamma(s+k+1) Gamma(s+k+j+1))
    = T_v[k+j, k] / (2 pi), with its propagated absolute error estimate."""
    j, k, sv = _cell(j, k, s)
    entries = _entries(v_j, j, np.array([k]), sv, quad, "v")
    value, error = _factor(entries, v_j, j, "v", f"at s={sv:g}")
    return complex(value[0]), float(error[0])


@dataclass(frozen=True)
class Cell:
    """One functional-equation cell (j, k): the two factors and their errors."""

    j: int
    k: int
    phi: complex
    phi_err: float
    psi: complex
    psi_err: float

    @property
    def product(self) -> complex:
        return self.phi * self.psi

    @property
    def product_err(self) -> float:
        a, a_err, b, b_err = self.phi, self.phi_err, self.psi, self.psi_err
        return abs(a) * b_err + abs(b) * a_err + a_err * b_err


@dataclass(frozen=True)
class Verdict:
    """Outcome of a criterion run.

    ``kind`` is one of "consistent_radial", "nonradial_mode_detected",
    "inconclusive"; ``modes`` lists the detected modes for the second kind
    and ``reason`` explains the third.
    """

    kind: str
    modes: tuple[int, ...] = ()
    reason: str = ""

    def __str__(self) -> str:
        if self.kind == "nonradial_mode_detected":
            return f"nonradial_mode_detected({list(self.modes)})"
        if self.kind == "inconclusive":
            return f"inconclusive({self.reason!r})"
        return self.kind


def _json_number(x: float) -> str:
    """A float as json writes it: its repr, or NaN / Infinity / -Infinity."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if math.isnan(x) else ("Infinity" if x > 0 else "-Infinity")


def _cell_json(cell: Cell) -> str:
    """One cell as an item of the report's indented, key-sorted "cells" list."""
    n = _json_number

    def pair(z: complex) -> str:
        return f'{{\n        "im": {n(z.imag)},\n        "re": {n(z.real)}\n      }}'

    return (
        f'    {{\n      "j": {cell.j},\n      "k": {cell.k},\n'
        f'      "phi": {pair(cell.phi)},\n      "phi_err": {n(cell.phi_err)},\n'
        f'      "product": {pair(cell.product)},\n      "product_err": {n(cell.product_err)},\n'
        f'      "psi": {pair(cell.psi)},\n      "psi_err": {n(cell.psi_err)}\n    }}'
    )


@dataclass
class CriterionReport:
    """Per-(j, k) functional-equation cells plus the radiality verdict."""

    s: float
    k_max: int
    j_modes: tuple[int, ...]
    cells: dict[tuple[int, int], Cell]
    verdict: Verdict
    commutation_asserted: bool
    matrix_window_residual: float
    verdict_multiplier: float
    truncation_size: int
    quad_abs_tol: float
    quad_rel_tol: float

    def _sorted_cells(self) -> list[Cell]:
        return [self.cells[key] for key in sorted(self.cells)]

    def to_json(self) -> str:
        """The bytes of ``json.dumps(payload, sort_keys=True, indent=2)``: json
        writes the envelope, and the cell table, written here with the same
        indentation and number forms, replaces its empty "cells" list, the
        first key of the sorted envelope."""
        payload = {
            "s": self.s,
            "k_range": [0, self.k_max],
            "j_range": [min(self.j_modes), max(self.j_modes)] if self.j_modes else [0, 0],
            "j_modes": list(self.j_modes),
            "verdict": {
                "kind": self.verdict.kind,
                "modes": list(self.verdict.modes),
                "reason": self.verdict.reason,
            },
            "commutation_asserted": self.commutation_asserted,
            "matrix_window_residual": self.matrix_window_residual,
            "tolerances": {
                "quad_abs": self.quad_abs_tol,
                "quad_rel": self.quad_rel_tol,
                "verdict_multiplier": self.verdict_multiplier,
            },
            "truncation_size": self.truncation_size,
            "cells": [],
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        cells = ",\n".join([_cell_json(cell) for cell in self._sorted_cells()])
        if not cells:
            return text
        return text.replace('"cells": []', f'"cells": [\n{cells}\n  ]', 1)

    def to_csv(self) -> str:
        lines = ["s,j,k,abs_phi,abs_psi,abs_product"]
        for cell in self._sorted_cells():
            lines.append(
                f"{self.s!r},{cell.j},{cell.k},{abs(cell.phi)!r},"
                f"{abs(cell.psi)!r},{abs(cell.product)!r}"
            )
        return "\n".join(lines) + "\n"


def _require_window(N: int, k_max: int, v: SymbolSpec) -> None:
    """Each mode j needs a cell (j, k) with -j <= k <= k_max, and cell (j, k)
    stands for C[k+j, k], which the truncation gives exactly only inside the
    commutator's exactness window, that is when N >= k_max + 2 max|j| + 1."""
    lowest, band = min(v.mode_indices, default=0), v.max_mode
    if k_max < -lowest:
        raise PreconditionError(
            f"k_max = {k_max} is below |j| = {-lowest}, so mode j={lowest} would have no "
            "cell (j, k) with k <= k_max"
        )
    if N < k_max + 2 * band + 1:
        raise PreconditionError(
            f"N = {N} is too small for k_max = {k_max} and max|j| = {band}: cell (j, k) is "
            f"C[k+j, k] exactly only for N >= k_max + 2*max|j| + 1 = {k_max + 2 * band + 1}"
        )


def _cells(
    u: RadialProfile, v: SymbolSpec, s: float, N: int, k_max: "int | None", quad: QuadratureSpec
) -> tuple[dict[tuple[int, int], Cell], TruncatedOperator]:
    """Build T_u, T_v and their commutator once, then every cell with k <= k_max
    (default: the whole exactness window), one mode at a time, read off the
    diagonals just built.  Building T_u checks N by toeplitz_matrix's rule."""
    op_u = toeplitz_matrix(SymbolSpec.from_modes({0: u}, name="u"), s, N, quad)
    N = op_u.size
    k_max = max(N - 2 * v.max_mode - 1, 0) if k_max is None else int(k_max)
    _require_window(N, k_max, v)
    _check_gamma_argument(s, k_max, max(v.mode_indices, default=0))
    comm = commutator(op_u, toeplitz_matrix(v, s, N, quad))

    def factor(profile, j, size, name, values, errors, *_):
        """The first ``size`` entries of a memo entry just built, as a factor."""
        return _factor((values[:size], errors[:size]), profile, j, name, f"at s={s:g}")

    h, h_err = factor(u, 0, k_max + v.max_mode + 1, "u", *_diagonals([(0, u)], s, N, quad, "u")[0])
    cells = {}
    for (j, profile), entry in zip(v.mode_items, _diagonals(v.mode_items, s, N, quad, v.name)):
        k = np.arange(max(0, -j), k_max + 1)
        if j == 0:
            phis, phi_err = np.zeros(k.size, dtype=complex), np.zeros(k.size)
        else:
            phis, phi_err = h[k] - h[k + j], h_err[k] + h_err[k + j]
        psis, psi_err = factor(profile, j, k.size, v.name, *entry)
        columns = (k, phis, phi_err, psis, psi_err)
        for key, *fields in zip(*(column.tolist() for column in columns)):
            cells[(j, key)] = Cell(j, key, *fields)
    return cells, comm


def commutator_cross_check(
    u: RadialProfile,
    v: SymbolSpec,
    s: "float | SobolevOrder",
    N: int,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
    *,
    k_max: int | None = None,
) -> dict:
    """Relative discrepancy between commutator entries and the criterion form.

    For every mode j of v and every k <= k_max (default: the whole exactness
    window), compares C[k+j, k] against -(2 pi)^2 Phi_j(k+s) Psi~_j(k+s), with
    H and Psi~ from scalar transforms (:func:`mellin_weighted_cached`, each
    computed once across calls) and closed log-Gamma norms, not from the
    diagonals C was built from.  Cells where both sides sit below the default
    verdict multiplier times their errors, and the j = 0 cells, count as
    discrepancy zero.
    """
    sv = order_value(s)
    if k_max is not None and (not is_integer(k_max) or k_max < 0):
        raise DomainError(f"k_max must be an integer >= 0, got {k_max!r}")
    cells, comm = _cells(u, v, sv, N, k_max, quad)

    def over_norms(profile, j, k):  # Psi~_j(k+s) and its error; H(k+s) at j = 0
        transform = mellin_weighted_cached(profile, sv, 2 * k + j + 2, quad)
        log_norm = 0.5 * (log_gamma(sv + k + 1.0) + log_gamma(sv + k + j + 1.0))
        scale = math.exp(transform.log_scale - log_norm)
        return transform.value * scale, transform.abs_error_estimate * scale

    discrepancy = dict.fromkeys(cells, 0.0)
    for j, k in cells:
        if j == 0:
            continue
        (h_k, h_k_err), (h_kj, h_kj_err) = over_norms(u, 0, k), over_norms(u, 0, k + j)
        cell = Cell(j, k, h_k - h_kj, h_k_err + h_kj_err, *over_norms(v.mode(j), j, k))
        formula = -((2.0 * math.pi) ** 2) * cell.product
        entry = complex(comm.diagonals[j][k - max(0, -j)])
        floor = (2.0 * math.pi) ** 2 * cell.product_err + comm.entry_error
        denominator = max(abs(formula), abs(entry))
        if not denominator <= DEFAULT_VERDICT_MULTIPLIER * floor + 1e-300:
            discrepancy[(j, k)] = abs(entry - formula) / denominator
    return discrepancy


def functional_equation_residuals(
    u: RadialProfile,
    v: SymbolSpec,
    s: "float | SobolevOrder",
    k_max: int,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
    *,
    N: int | None = None,
    assert_commutation: bool = True,
    verdict_multiplier: float = DEFAULT_VERDICT_MULTIPLIER,
) -> CriterionReport:
    """Evaluate all functional-equation cells and issue the verdict.

    Cell (j, k) is exactly C[k+j, k] only inside the commutator's exactness
    window, so N >= k_max + 2 max|j| + 1 (default: one more than that) and
    :func:`toeplitz_matrix`'s rule for N are required; ``verdict_multiplier``
    must be finite and > 0.

    The commutation hypothesis is in force when asserted by the caller
    (default) or when the measured commutator window residual is below the
    propagated error floor.  Under that hypothesis:

    * no surviving nonradial mode        -> consistent_radial
    * every Phi within its error bar     -> inconclusive("u constant or
                                            Phi unresolved")
    * nonvanishing products at modes J   -> nonradial_mode_detected(J)
    * nonvanishing Psi but vanishing
      products everywhere                -> inconclusive (internal
                                            inconsistency at tested indices)
    """
    sv = order_value(s)
    if not is_integer(k_max) or k_max < 1:
        raise DomainError(f"k_max must be a positive integer, got {k_max!r}")
    real = isinstance(verdict_multiplier, numbers.Real) and not isinstance(verdict_multiplier, bool)
    if not (real and 0.0 < verdict_multiplier < math.inf):
        raise DomainError(f"verdict_multiplier must be finite and > 0, got {verdict_multiplier!r}")
    k_max = int(k_max)
    if N is None:
        N = k_max + 2 * v.max_mode + 2
    cells, comm = _cells(u, v, sv, N, k_max, quad)
    window_residual = window_max_abs(comm, comm.exactness_window)
    in_force = assert_commutation or _commutes(window_residual, comm, verdict_multiplier)
    return CriterionReport(
        s=sv,
        k_max=k_max,
        j_modes=v.mode_indices,
        cells=cells,
        verdict=_decide(cells, v.mode_indices, window_residual, in_force, verdict_multiplier),
        commutation_asserted=bool(assert_commutation),
        matrix_window_residual=window_residual,
        verdict_multiplier=float(verdict_multiplier),
        truncation_size=comm.size,
        quad_abs_tol=quad.abs_tol,
        quad_rel_tol=quad.rel_tol,
    )


def _decide(
    cells: dict[tuple[int, int], Cell],
    j_modes: tuple[int, ...],
    window_residual: float,
    hypothesis_in_force: bool,
    multiplier: float,
) -> Verdict:
    if all(j == 0 for j in j_modes):
        return Verdict("consistent_radial")

    def modes_alive(value_and_error) -> set[int]:
        """Nonzero modes with a cell where |value| exceeds multiplier * error."""
        alive = set()
        for cell in cells.values():
            value, error = value_and_error(cell)
            if cell.j != 0 and math.isfinite(abs(value)) and abs(value) > multiplier * error:
                alive.add(cell.j)
        return alive

    phi_alive = modes_alive(lambda cell: (cell.phi, cell.phi_err))
    psi_alive = modes_alive(lambda cell: (cell.psi, cell.psi_err))
    product_alive = modes_alive(lambda cell: (cell.product, cell.product_err))
    if not phi_alive:
        return Verdict("inconclusive", reason="u constant or Phi unresolved")
    if not hypothesis_in_force:
        unseen = f"neither asserted nor observed (window residual {window_residual!r})"
        return Verdict("inconclusive", reason=f"commutation hypothesis {unseen}")
    detected = tuple(sorted(phi_alive & psi_alive & product_alive))
    if detected:
        return Verdict("nonradial_mode_detected", modes=detected)
    if psi_alive:
        why = "products vanish within error bars although Phi and Psi both exceed theirs"
        return Verdict("inconclusive", reason=f"internal inconsistency: {why} on the tested range")
    return Verdict("consistent_radial")


def periodicity_probe(
    u: RadialProfile,
    s: "float | SobolevOrder",
    j: int,
    z_grid: Sequence[float],
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> tuple[float, float]:
    """Max of |H(z) - H(z+j)| over the real grid, with its error bound.

    H(z) = M[u G](2z+2) / Gamma(z+1), u's order-0 diagonal entry at z over
    2 pi, does not depend on s, so it is read at order 0, where m = z is
    exact (at order s it would be m = z - s, which rounds z away as s
    grows).  Constant u gives zero within the error estimate.
    """
    order_value(s)  # refuses a bad order, though H does not depend on it
    if not is_integer(j) or j < 1:
        raise DomainError(f"period j must be a positive integer, got {j!r}")
    z = [float(point) for point in z_grid]
    for point in z:
        if not (math.isfinite(point) and point > -1.0):
            raise DomainError(f"grid point {point!r} must be finite, in the half-plane z > -1")
    if not z:
        return 0.0, 0.0
    _check_gamma_argument(0.0, max(z), j)
    # the grid and the grid shifted by j
    grid = np.array(z + [point + j for point in z])
    entries = _entries(u, 0, grid, 0.0, quad, "u")
    h, h_err = _factor(entries, u, 0, "u", f"from grid point z={min(z):g}")
    n = len(z)
    difference = np.abs(h[:n] - h[n:])
    worst = n - 1 - int(np.argmax(difference[::-1]))  # the last largest, as a scan with >=
    return float(difference[worst]), float(h_err[worst] + h_err[n + worst])
