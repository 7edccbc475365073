"""Functional-equation residuals and the radiality verdict engine.

For a radial symbol u and a second symbol v with angular modes {j -> v_j},
commutation of the two Toeplitz operators forces, for every k >= 0 and j
with j + k >= 0, the product

    Phi_j(k+s) * Psi_j(k+s) = 0,

where (written through the shifted transforms so that a single Mellin
path is used)

    Phi_j(k+s) = M[u G_s](2k+2) / Gamma(k+s+1)
                 - M[u G_s](2k+2j+2) / Gamma(k+j+s+1),
    Psi_j(k+s) = M[v_j G_s](j+2k+2).

Phi_0 vanishes identically, as does every Phi_j when u is constant; for a
nonconstant radial u the products can only vanish when the nonradial modes
of v do, so commutation forces radiality of v and every surviving nonradial
mode is an obstruction to commutation.  Each commutator matrix entry
doubles as a cross-check:

    C[k+j, k] = -(2 pi)^2 Phi_j(k+s) Psi_j(k+s)
                / sqrt(Gamma(s+k+1) Gamma(s+k+j+1)).

"Vanishing" always means: magnitude below ``verdict_multiplier`` times the
propagated error estimate (quadrature error for evaluator profiles, rounding
error for exact Gaussian-polynomial transforms).  Every transform is read
as a whole column through the operator module's column helper, the one
path that also builds the Toeplitz matrices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, PreconditionError, is_integer
from .fock_space import SobolevOrder, order_value
from .operators import (
    TruncatedOperator,
    _basis_log_norms,
    _transform_column,
    commutator,
    toeplitz_matrix,
    window_max_abs,
)
from .special_functions import DEFAULT_QUADRATURE, QuadratureSpec, log_gamma_array
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


def _h_column(
    u: RadialProfile, m: np.ndarray, s: float, quad: QuadratureSpec
) -> tuple[np.ndarray, np.ndarray]:
    """H(m + s) = M[u G_s](2m + 2) / Gamma(m + s + 1) at the points ``m``,
    with errors: u's diagonal column scaled so that Phi_j(k) = H(k) - H(k+j).
    A :class:`DomainError` names the first m where H leaves double range."""
    h, h_err = _transform_column(u, 0, m, s, quad, "u", log_gamma_array(m + s + 1.0))
    finite = np.isfinite(h) & np.isfinite(h_err)
    if not finite.all():
        where = f"m={m[np.argmin(finite)]:g}, s={s:g}"
        raise DomainError(f"H(m+s) = M[u G_s](2m+2) / Gamma(m+s+1) at {where} leaves double range")
    return h, h_err


def _refuse_overflow(j: int, k: np.ndarray, s: float, psi_ok: np.ndarray, product_ok: np.ndarray):
    """Raise a :class:`DomainError` for the first k whose Psi, or else whose
    product, leaves double range: reports store both raw."""
    ok = psi_ok & product_ok
    if not ok.all():
        first = int(np.argmin(ok))
        factor = f"Phi_{j} * Psi_{j}" if psi_ok[first] else f"Psi_{j}"
        raise DomainError(f"{factor}(k+s) at k={k[first]}, s={s:g} overflows double range")


def _check_cell(j, k) -> None:
    """Refuse a cell (j, k) outside k >= 0, j + k >= 0, both integers."""
    if not is_integer(k) or k < 0:
        raise DomainError(f"k must be a nonnegative integer, got {k!r}")
    if not is_integer(j) or j + k < 0:
        raise DomainError(f"need integer j with j + k >= 0, got j={j!r}, k={k!r}")


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
    _check_cell(j, k)
    sv = order_value(s)
    j, k = int(j), int(k)
    if j == 0:
        return 0j, 0.0
    h, h_err = _h_column(u, np.array([k, k + j]), sv, quad)
    return complex(h[0] - h[1]), float(h_err[0] + h_err[1])


def psi(
    j: int,
    k: int,
    s: "float | SobolevOrder",
    v_j: RadialProfile,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> tuple[complex, float]:
    """Second factor of the functional equation, M[v_j G_s](j + 2k + 2),
    with its propagated absolute error estimate.  Psi is Gamma-sized; a
    :class:`DomainError` names the cell where it leaves double range."""
    _check_cell(j, k)
    sv = order_value(s)
    j, k = int(j), np.array([int(k)])
    value, error = _transform_column(v_j, j, k, sv, quad, "v")
    finite = np.isfinite(value) & np.isfinite(error)
    _refuse_overflow(j, k, sv, finite, finite)
    return complex(value[0]), float(error[0])


@dataclass(frozen=True)
class Cell:
    """One functional-equation cell (j, k).

    ``matrix_residual`` is the relative discrepancy between the commutator
    entry C[k+j, k] and the closed criterion expression (zero when both
    sit below the propagated error floor, and for j = 0).
    """

    j: int
    k: int
    phi: complex
    phi_err: float
    psi: complex
    psi_err: float
    matrix_residual: float

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
        f'      "matrix_residual": {n(cell.matrix_residual)},\n      "note": null,\n'
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
        lines = ["s,j,k,abs_phi,abs_psi,abs_product,matrix_discrepancy"]
        for cell in self._sorted_cells():
            lines.append(
                f"{self.s!r},{cell.j},{cell.k},{abs(cell.phi)!r},"
                f"{abs(cell.psi)!r},{abs(cell.product)!r},{cell.matrix_residual!r}"
            )
        return "\n".join(lines) + "\n"


def _require_window(N: int, k_max: int, band: int) -> None:
    """Cell (j, k) is checked against C[k+j, k], which lies in the exactness
    window of the commutator only when N >= k_max + 2 max|j| + 1."""
    if N < k_max + 2 * band + 1:
        raise PreconditionError(
            f"N = {N} is too small for k_max = {k_max} and max|j| = {band}: the "
            f"commutator cross-check needs N >= k_max + 2*max|j| + 1 = {k_max + 2 * band + 1}"
        )


def _cells(
    u: RadialProfile, v: SymbolSpec, s: float, N: int, k_max: int, quad: QuadratureSpec
) -> tuple[dict[tuple[int, int], Cell], TruncatedOperator]:
    """Build T_u, T_v and their commutator once, then every cell with k <= k_max,
    one mode at a time.

    Each cell is cross-checked against C[k+j, k]; the closed side is
    -(2 pi)^2 Phi_j(k+s) Psi_j(k+s) / sqrt(Gamma(s+k+1) Gamma(s+k+j+1)).
    """
    op_u = toeplitz_matrix(SymbolSpec.from_modes({0: u}, name="u"), s, N, quad)
    comm = commutator(op_u, toeplitz_matrix(v, s, N, quad))
    h, h_err = _h_column(u, np.arange(k_max + v.max_mode + 1), s, quad)
    log_norms = _basis_log_norms(s, N)
    cells = {}
    for j, profile in v.mode_items:
        k = np.arange(max(0, -j), k_max + 1)
        if j == 0:
            phis, phi_err = np.zeros(k.size, dtype=complex), np.zeros(k.size)
        else:
            phis, phi_err = h[k] - h[k + j], h_err[k] + h_err[k + j]
        psis, psi_err = _transform_column(profile, j, k, s, quad, v.name)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            product = phis * psis
            product_err = np.abs(phis) * psi_err + np.abs(psis) * phi_err + phi_err * psi_err
            psi_ok = np.isfinite(psis) & np.isfinite(psi_err)
            _refuse_overflow(j, k, s, psi_ok, np.isfinite(product) & np.isfinite(product_err))
            scale = (2.0 * math.pi) ** 2 * np.exp(-0.5 * (log_norms[k] + log_norms[k + j]))
            formula = -scale * phis * psis
            entry = comm.diagonals.get(j, np.zeros(N))[k - max(0, -j)]
            denominator = np.maximum(np.abs(formula), np.abs(entry))
            residual = np.abs(entry - formula) / denominator
        below = denominator <= 3.0 * (scale * product_err + comm.entry_error) + 1e-300
        residual[below | (j == 0)] = 0.0
        columns = (k, phis, phi_err, psis, psi_err, residual)
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
    window), compares C[k+j, k] against
    -(2 pi)^2 Phi_j(k+s) Psi_j(k+s) / sqrt(Gamma(s+k+1) Gamma(s+k+j+1)).
    Cells where both sides sit below the propagated error floor, and the
    j = 0 cells, count as discrepancy zero.
    """
    band = v.max_mode
    if k_max is None:
        k_max = max(N - 2 * band - 1, 0)
    _require_window(N, k_max, band)
    cells, _ = _cells(u, v, order_value(s), N, int(k_max), quad)
    return {key: cell.matrix_residual for key, cell in cells.items()}


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

    Every cell is cross-checked against the commutator matrix, so N must
    satisfy N >= k_max + 2 max|j| + 1 (default: one more than that).

    The commutation hypothesis is in force when asserted by the caller
    (default) or when the measured commutator window residual is below the
    propagated error floor.  Under that hypothesis:

    * no surviving nonradial mode        -> consistent_radial
    * u numerically constant (Phi == 0)  -> inconclusive("u constant")
    * nonvanishing products at modes J   -> nonradial_mode_detected(J)
    * nonvanishing Psi but vanishing
      products everywhere                -> inconclusive (internal
                                            inconsistency at tested indices)
    """
    sv = order_value(s)
    if not is_integer(k_max) or k_max < 1:
        raise DomainError(f"k_max must be a positive integer, got {k_max!r}")
    k_max = int(k_max)
    if N is None:
        N = k_max + 2 * v.max_mode + 2
    _require_window(N, k_max, v.max_mode)
    cells, comm = _cells(u, v, sv, N, k_max, quad)
    window_residual = window_max_abs(comm, comm.exactness_window)
    floor = max(verdict_multiplier * comm.entry_error, 1e-10)
    in_force = assert_commutation or window_residual <= floor
    return CriterionReport(
        s=sv,
        k_max=k_max,
        j_modes=v.mode_indices,
        cells=cells,
        verdict=_decide(cells, v.mode_indices, window_residual, in_force, verdict_multiplier),
        commutation_asserted=bool(assert_commutation),
        matrix_window_residual=window_residual,
        verdict_multiplier=float(verdict_multiplier),
        truncation_size=int(N),
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
        return Verdict("inconclusive", reason="u constant")
    if not hypothesis_in_force:
        return Verdict(
            "inconclusive",
            reason=(
                "commutation hypothesis neither asserted nor observed "
                f"(window residual {window_residual!r})"
            ),
        )
    detected = tuple(sorted(phi_alive & psi_alive & product_alive))
    if detected:
        return Verdict("nonradial_mode_detected", modes=detected)
    if psi_alive:
        return Verdict(
            "inconclusive",
            reason=(
                "internal inconsistency: products vanish within error bars although "
                "Phi and Psi both exceed theirs on the tested range"
            ),
        )
    return Verdict("consistent_radial")


def periodicity_probe(
    u: RadialProfile,
    s: "float | SobolevOrder",
    j: int,
    z_grid: Sequence[float],
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> tuple[float, float]:
    """Max of |H(z) - H(z+j)| over the real grid, with its error bound.

    H(z) = M[u G](2z+2) / Gamma(z+1), evaluated through the shifted
    transform M[u G_s](2z+2-2s) so the single Mellin path is reused.
    Constant u gives zero within the error estimate.
    """
    sv = order_value(s)
    if not is_integer(j) or j < 1:
        raise DomainError(f"period j must be a positive integer, got {j!r}")
    z = [float(point) for point in z_grid]
    for point in z:
        if not (math.isfinite(point) and point > -1.0):
            raise DomainError(f"grid point {point!r} must be finite, in the half-plane z > -1")
    if not z:
        return 0.0, 0.0
    # H(z) = H(m + s) at m = z - s, for the grid and the grid shifted by j
    h, h_err = _h_column(u, np.array(z + [point + j for point in z]) - sv, sv, quad)
    n = len(z)
    difference = np.abs(h[:n] - h[n:])
    worst = n - 1 - int(np.argmax(difference[::-1]))  # the last largest, as a scan with >=
    return float(difference[worst]), float(h_err[worst] + h_err[n + worst])
