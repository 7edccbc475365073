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
error for exact Gaussian-polynomial transforms).  The probes of the
one-sided moment and periodicity statements are labelled probes; finitely
many evaluations never certify an "almost everywhere" conclusion.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, PreconditionError
from .fock_space import SobolevOrder, order_value
from .mellin import mellin_weighted_cached
from .operators import TruncatedOperator, commutator, toeplitz_matrix, window_max_abs
from .special_functions import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    gaussian_weighted_integral_with_estimate,
    log_gamma,
)
from .symbols import RadialProfile, SymbolSpec

__all__ = [
    "Verdict",
    "Cell",
    "CriterionReport",
    "MomentProbe",
    "phi",
    "psi",
    "functional_equation_residuals",
    "commutator_cross_check",
    "moment_vanishing_probe",
    "periodicity_probe",
]

DEFAULT_VERDICT_MULTIPLIER = 3.0
# Reports store raw Psi and products, which must stay below exp(_LOG_MAX).
_LOG_MAX = math.log(sys.float_info.max)


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
    if int(k) != k or k < 0:
        raise DomainError(f"k must be a nonnegative integer, got {k!r}")
    if int(j) != j or j + k < 0:
        raise DomainError(f"need integer j with j + k >= 0, got j={j!r}, k={k!r}")
    sv = order_value(s)
    j, k = int(j), int(k)
    if j == 0:
        return 0j, 0.0
    first = mellin_weighted_cached(u, sv, float(2 * k + 2), quad)
    second = mellin_weighted_cached(u, sv, float(2 * k + 2 * j + 2), quad)
    inv_first = math.exp(first.log_scale - log_gamma(k + sv + 1.0))
    inv_second = math.exp(second.log_scale - log_gamma(k + j + sv + 1.0))
    value = first.value * inv_first - second.value * inv_second
    estimate = first.abs_error_estimate * inv_first + second.abs_error_estimate * inv_second
    return value, estimate


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
    sv = order_value(s)
    transform = mellin_weighted_cached(v_j, sv, float(2 * k + int(j) + 2), quad)
    scale = math.exp(transform.log_scale) if transform.log_scale < _LOG_MAX else math.inf
    value, error = transform.value * scale, transform.abs_error_estimate * scale
    if not (cmath.isfinite(value) and math.isfinite(error)):
        raise DomainError(f"Psi_{j}(k+s) at k={k}, s={sv:g} overflows double range")
    return value, error


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
                "matrix_residual": cell.matrix_residual,
                "note": None,
            }
            for cell in self._sorted_cells()
        ]
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
            "cells": cells,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

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


def _cell(
    j: int,
    k: int,
    s: float,
    u: RadialProfile,
    v_j: RadialProfile,
    comm: TruncatedOperator,
    quad: QuadratureSpec,
) -> Cell:
    """Phi, Psi and the commutator cross-check of cell (j, k).

    The matrix side is C[k+j, k]; the closed side is
    -(2 pi)^2 Phi_j(k+s) Psi_j(k+s) / sqrt(Gamma(s+k+1) Gamma(s+k+j+1)).
    """
    cell = Cell(j, k, *phi(j, k, s, u, quad), *psi(j, k, s, v_j, quad), matrix_residual=0.0)
    if not (cmath.isfinite(cell.product) and math.isfinite(cell.product_err)):
        raise DomainError(f"Phi_{j} * Psi_{j}(k+s) at k={k}, s={s:g} overflows double range")
    if j == 0:
        return cell
    scale = (2.0 * math.pi) ** 2 * math.exp(
        -0.5 * (log_gamma(s + k + 1.0) + log_gamma(s + k + j + 1.0))
    )
    formula = -scale * cell.phi * cell.psi
    matrix_entry = complex(comm.entries[k + j, k])
    denominator = max(abs(formula), abs(matrix_entry))
    if denominator <= 3.0 * (scale * cell.product_err + comm.entry_error) + 1e-300:
        return cell
    return replace(cell, matrix_residual=abs(matrix_entry - formula) / denominator)


def _cells(
    u: RadialProfile, v: SymbolSpec, s: float, N: int, k_max: int, quad: QuadratureSpec
) -> tuple[dict[tuple[int, int], Cell], TruncatedOperator]:
    """Build T_u, T_v and their commutator once, then every cell with k <= k_max."""
    op_u = toeplitz_matrix(SymbolSpec.from_modes({0: u}, name="u"), s, N, quad)
    comm = commutator(op_u, toeplitz_matrix(v, s, N, quad))
    cells = {
        (j, k): _cell(j, k, s, u, profile, comm, quad)
        for j, profile in v.mode_items
        for k in range(max(0, -j), k_max + 1)
    }
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
    if int(k_max) != k_max or k_max < 1:
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


class MomentProbe(NamedTuple):
    k: int
    value: complex
    below_tolerance: bool


def moment_vanishing_probe(
    f: RadialProfile,
    a: float,
    k_list: Sequence[int],
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
    *,
    tolerance_multiplier: float = DEFAULT_VERDICT_MULTIPLIER,
) -> list[MomentProbe]:
    """Probe of the one-sided moment statement: int_0^inf f(t) e^{-t} t^{ak} dt.

    Substituting t = x^2 turns each moment into the standard Gaussian-weight
    integral 2 * I(x -> f(x^2), 2ak + 2).  Flags mark moments within
    quadrature error of zero.  This probes the hypothesis of the vanishing
    statement; it never proves the a.e. conclusion.
    """
    a = float(a)
    if not (0.0 < a <= 2.0):
        raise DomainError(f"exponent a must lie in (0, 2], got {a!r}")
    results = []
    for k in k_list:
        if int(k) != k or k < 1:
            raise DomainError(f"moment indices must be positive integers, got {k!r}")
        alpha = 2.0 * a * int(k) + 2.0
        spec = quad.covering(alpha + 2.0 * f.growth_exponent)
        value, estimate = gaussian_weighted_integral_with_estimate(
            lambda x: np.asarray(f(x * x)),
            alpha,
            spec,
            growth_exponent=2.0 * f.growth_exponent,
        )
        value = 2.0 * value
        estimate = 2.0 * estimate
        results.append(
            MomentProbe(int(k), complex(value), abs(value) <= tolerance_multiplier * estimate)
        )
    return results


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
    if int(j) != j or j < 1:
        raise DomainError(f"period j must be a positive integer, got {j!r}")

    def h(point: float) -> tuple[complex, float]:
        transform = mellin_weighted_cached(u, sv, 2.0 * point + 2.0 - 2.0 * sv, quad)
        inv_gamma = math.exp(transform.log_scale - log_gamma(point + 1.0))
        return transform.value * inv_gamma, transform.abs_error_estimate * inv_gamma

    worst = 0.0
    worst_err = 0.0
    for z in z_grid:
        z = float(z)
        if z <= -1.0:
            raise DomainError(f"grid point {z!r} outside the holomorphy half-plane z > -1")
        (first, first_err), (second, second_err) = h(z), h(z + j)
        difference = abs(first - second)
        if difference >= worst:
            worst, worst_err = difference, first_err + second_err
    return worst, worst_err

