"""Acceptance suite: desk-scale checks of the package's numerical contracts.

Each check pins its tolerance and compares against an oracle that is
independent of the code path under test (closed forms, brute-force polar
integration, explicit small matrices).  Checks 01 and 05 also run their
Gaussian-polynomial profiles through quadrature, as evaluator profiles, so
the quadrature path stays under the gate; checks 03 and 10 are the
independent oracles of the exact path, and check 05 runs
``commutator_cross_check`` on cached scalar transforms.  ``run_all`` powers
both the CLI ``selftest`` subcommand and the pytest acceptance module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .criterion import (
    commutator_cross_check,
    functional_equation_residuals,
    periodicity_probe,
    phi,
)
from .fock_space import kernel_eval
from .mellin import mellin_weighted
from .operators import (
    berezin,
    commutator,
    compose,
    min_truncation_size,
    toeplitz_matrix,
    window_max_abs,
)
from .special_functions import QuadratureSpec, log_gamma
from .symbols import RadialProfile, SymbolSpec, decompose, polar_l2_norm, sample_polar

__all__ = ["CheckResult", "run_all", "ALL_CHECKS", "S_VALUES"]

S_VALUES = (0.0, 0.5, 1.0, 2.3)
QUAD = QuadratureSpec.for_exponent(80.0)


@dataclass
class CheckResult:
    index: int
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# Shared test symbols
# ---------------------------------------------------------------------------


def _sym(name: str, modes: dict) -> SymbolSpec:
    return SymbolSpec.from_modes(modes, name=name)


def symbol_constant() -> SymbolSpec:
    return _sym("one", {0: RadialProfile.monomial(0.0)})


def symbol_abs_squared() -> SymbolSpec:
    return _sym("abs2", {0: RadialProfile.monomial(2.0)})


def symbol_z() -> SymbolSpec:
    return _sym("z", {1: RadialProfile.monomial(1.0)})


def symbol_z_squared() -> SymbolSpec:
    return _sym("z2", {2: RadialProfile.monomial(2.0)})


def symbol_re_z() -> SymbolSpec:
    half = RadialProfile.polynomial([0.0, 0.5])
    return _sym("re_z", {1: half, -1: half})


def _via_quadrature(profile: RadialProfile) -> RadialProfile:
    """The same function as an evaluator profile, so its transforms go
    through quadrature instead of the closed Gamma form."""
    return RadialProfile.from_callable(profile, profile.growth_exponent, profile.growth_constant)


def _bounded(evaluator, constant: float) -> RadialProfile:
    return RadialProfile.from_callable(evaluator, growth_exponent=0.0, growth_constant=constant)


def bounded_u() -> SymbolSpec:
    return _sym(
        "bounded_u",
        {
            0: _bounded(lambda r: np.exp(-np.asarray(r, dtype=float)), 1.0),
            1: _bounded(
                lambda r: 0.5 * np.asarray(r, dtype=float) * np.exp(-np.asarray(r, dtype=float) ** 2),
                0.22,
            ),
        },
    )


def bounded_v() -> SymbolSpec:
    return _sym(
        "bounded_v",
        {
            -1: _bounded(lambda r: 0.7 * np.exp(-2.0 * np.asarray(r, dtype=float)), 0.71),
            2: _bounded(
                lambda r: 0.8 * np.asarray(r, dtype=float) ** 2 * np.exp(-np.asarray(r, dtype=float) ** 2),
                0.30,
            ),
        },
    )


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def check_01_mellin_oracle() -> CheckResult:
    tolerance = 1e-10
    worst = 0.0
    anchor = abs(
        mellin_weighted(_via_quadrature(RadialProfile.monomial(0.0)), 0.0, 2.0, QUAD).value
        - 1.0 / (2.0 * math.pi)
    ) * (2.0 * math.pi)
    for p in (0.0, 1.0, 2.0, 3.0):
        closed = RadialProfile.monomial(p)
        quadrature = _via_quadrature(closed)
        for s in S_VALUES:
            for zeta in range(1, 61):
                exact = mellin_weighted(closed, s, float(zeta), QUAD)
                exact = exact.value * math.exp(exact.log_scale)
                value = mellin_weighted(quadrature, s, float(zeta), QUAD).value
                worst = max(worst, abs(value - exact) / abs(exact))
    passed = worst <= tolerance and anchor <= tolerance
    return CheckResult(
        1,
        "mellin oracle agreement",
        passed,
        f"worst rel err {worst:.3e} (tol {tolerance:g}); anchor rel err {anchor:.3e}",
    )


def check_02_kernel_reduction() -> CheckResult:
    tolerance = 1e-12
    axis = (-1.4, 0.0, 1.4)
    points = [complex(x, y) for x in axis for y in axis]
    worst = 0.0
    for z in points:
        for w in points:
            value = kernel_eval(z, w, 0.0, abs_tol=1e-15).value
            worst = max(worst, abs(value - cmath.exp(z * w.conjugate())))
    return CheckResult(
        2,
        "kernel s=0 exponential reduction",
        worst <= tolerance,
        f"worst abs err {worst:.3e} on 9x9 grid (tol {tolerance:g})",
    )


def check_03_radial_diagonal() -> CheckResult:
    tolerance = 1e-10
    worst = 0.0
    off_diag = 0.0
    symbol = symbol_abs_squared()
    for s in S_VALUES:
        op = toeplitz_matrix(symbol, s, 32, QUAD)
        diag = np.diagonal(op.entries)
        expected = s + np.arange(32) + 1.0
        worst = max(worst, float(np.max(np.abs(diag - expected) / expected)))
        off = op.entries - np.diag(diag)
        off_diag = max(off_diag, float(np.max(np.abs(off))))
    passed = worst <= tolerance and off_diag <= QUAD.abs_tol
    return CheckResult(
        3,
        "radial diagonality, eigenvalues s+k+1",
        passed,
        f"worst diag rel err {worst:.3e} (tol {tolerance:g}); max off-diag {off_diag:.1e}",
    )


def check_04_radial_radial_commutation() -> CheckResult:
    tolerance = 1e-10
    u = symbol_abs_squared()
    v = _sym("exp_decay", {0: _bounded(lambda r: np.exp(-np.asarray(r, dtype=float)), 1.0)})
    worst = 0.0
    for s in S_VALUES:
        comm = commutator(toeplitz_matrix(u, s, 32, QUAD), toeplitz_matrix(v, s, 32, QUAD))
        worst = max(worst, window_max_abs(comm, comm.exactness_window))
    return CheckResult(
        4,
        "radial-radial commutation",
        worst <= tolerance,
        f"worst window residual {worst:.3e} at N=32 (tol {tolerance:g})",
    )


def check_05_criterion_matrix_equivalence() -> CheckResult:
    # C[k+j, k] against -(2 pi)^2 Phi_j(k+s) Psi~_j(k+s), the factors from scalar
    # transforms and closed log-Gamma norms, not from the diagonals C was built from
    tolerance = 1e-8
    k_max = 20
    n_size = 26
    discrepancies = []
    closed = (RadialProfile.monomial(2.0), RadialProfile.monomial(4.0))
    for u_profile in closed + tuple(_via_quadrature(u) for u in closed):
        for s in S_VALUES:
            for v in (symbol_z(), symbol_z_squared(), symbol_re_z()):
                cells = commutator_cross_check(u_profile, v, s, n_size, QUAD, k_max=k_max)
                discrepancies.extend(cells.values())
    worst = float(np.max(discrepancies))
    return CheckResult(
        5,
        "criterion vs matrix equivalence",
        worst <= tolerance,
        f"worst relative discrepancy {worst:.3e} over k<=20 (tol {tolerance:g})",
    )


def check_06_nonradial_forces_noncommutation() -> CheckResult:
    tolerance = 1e-9
    u_profile = RadialProfile.monomial(2.0)
    v = symbol_z()
    verdict_ok = True
    worst_entry = 0.0
    verdicts = []
    for s in S_VALUES:
        report = functional_equation_residuals(u_profile, v, s, 10, QUAD)
        verdicts.append(str(report.verdict))
        if report.verdict.kind != "nonradial_mode_detected" or report.verdict.modes != (1,):
            verdict_ok = False
        comm = commutator(
            toeplitz_matrix(symbol_abs_squared(), s, 8, QUAD),
            toeplitz_matrix(v, s, 8, QUAD),
        )
        worst_entry = max(worst_entry, abs(comm.entries[1, 0] - math.sqrt(s + 1.0)))
    passed = verdict_ok and worst_entry <= tolerance
    return CheckResult(
        6,
        "nonradial symbol forces noncommutation",
        passed,
        f"verdicts {sorted(set(verdicts))}; worst |C[1,0]-sqrt(s+1)| {worst_entry:.3e} "
        f"(tol {tolerance:g})",
    )


def check_07_constant_symbol_degeneracy() -> CheckResult:
    multiplier = 3.0
    u_one = RadialProfile.monomial(0.0)
    worst_ratio = 0.0
    for s in S_VALUES:
        for j in range(1, 5):
            for k in range(0, 21):
                value, err = phi(j, k, s, u_one, QUAD)
                bar = multiplier * err
                worst_ratio = max(worst_ratio, abs(value) / bar if bar > 0 else math.inf)
    probe_ratio = 0.0
    for s in S_VALUES:
        for j in (1, 2):
            diff, err = periodicity_probe(u_one, s, j, [0.0, 0.5, 1.0, 1.5, 2.0], QUAD)
            bar = multiplier * err
            probe_ratio = max(probe_ratio, diff / bar if bar > 0 else math.inf)
    passed = worst_ratio <= 1.0 and probe_ratio <= 1.0
    return CheckResult(
        7,
        "constant-symbol degeneracy",
        passed,
        f"max |Phi|/(3 err) = {worst_ratio:.3f}; periodicity max ratio {probe_ratio:.3f}",
    )


def check_08_adjoint_symmetry() -> CheckResult:
    tolerance = 1e-8
    u = bounded_u()
    v = bounded_v()
    grid = [0j] + [
        radius * cmath.exp(1j * angle)
        for radius in (0.7, 1.4, 2.0)
        for angle in (0.0, 1.2566370614359172, 2.5132741228718345, 3.7699111843077517)
    ]
    worst = 0.0
    for s in S_VALUES:
        n_size = min_truncation_size(2.0, s)
        forward = compose(toeplitz_matrix(u, s, n_size, QUAD), toeplitz_matrix(v, s, n_size, QUAD))
        reversed_conj = compose(
            toeplitz_matrix(v.conjugate(), s, n_size, QUAD),
            toeplitz_matrix(u.conjugate(), s, n_size, QUAD),
        )
        for z in grid:
            lhs = berezin(forward, z)
            rhs = berezin(reversed_conj, z).conjugate()
            worst = max(worst, abs(lhs - rhs))
    return CheckResult(
        8,
        "adjoint Berezin symmetry",
        worst <= tolerance,
        f"worst residual {worst:.3e} on |z|<=2 grid (tol {tolerance:g})",
    )


def check_09_decomposition_round_trip() -> CheckResult:
    sample_tolerance = 1e-10
    l2_tolerance = 1e-8
    symbol = _sym(
        "trig_poly",
        {
            0: RadialProfile.polynomial([1.0, 0.0, 1.0]),
            1: RadialProfile.polynomial([0.0, 0.5]),
            -1: RadialProfile.polynomial([0.0, 0.5]),
            2: RadialProfile.monomial(2.0),
            -3: RadialProfile.polynomial([0.0, 0.0, 0.0, 0.3]),
            4: RadialProfile.polynomial([0.0, 0.0, 0.0, 0.0, 0.1]),
        },
    )
    radii = np.linspace(0.02, 9.0, 480)
    n_angles = 16
    samples = sample_polar(symbol, radii, n_angles)
    recovered = decompose(radii, samples, 4)
    reconstruction = sample_polar(recovered, radii, n_angles)
    per_sample = float(np.max(np.abs(reconstruction - samples)))
    midpoints = 0.5 * (radii[:-1] + radii[1:])
    truth_mid = sample_polar(symbol, midpoints, n_angles)
    recon_mid = sample_polar(recovered, midpoints, n_angles)
    worst_l2 = max(
        polar_l2_norm(midpoints, recon_mid - truth_mid, s) for s in S_VALUES
    )
    passed = per_sample <= sample_tolerance and worst_l2 <= l2_tolerance
    return CheckResult(
        9,
        "decomposition round trip",
        passed,
        f"per-sample err {per_sample:.3e} (tol {sample_tolerance:g}); "
        f"off-node L2(G_s) residual {worst_l2:.3e} (tol {l2_tolerance:g})",
    )


def _brute_force_entries(symbol: SymbolSpec, s: float, size: int) -> np.ndarray:
    """Direct polar-grid integration of <u e_m, e_n>_s, independent of the
    Mellin path: Gauss-Legendre in the radius, uniform trapezoid in the
    angle (exact for the finitely many modes present)."""
    nodes, weights = np.polynomial.legendre.leggauss(400)
    radius_max = 9.0
    r = 0.5 * radius_max * (nodes + 1.0)
    w = 0.5 * radius_max * weights
    n_angles = 64
    theta = 2.0 * math.pi * np.arange(n_angles) / n_angles
    u_vals = sample_polar(symbol, r, n_angles)
    out = np.zeros((size, size), dtype=complex)
    for m in range(size):
        for n in range(size):
            angular = u_vals @ (np.exp(1j * (m - n) * theta) * (2.0 * math.pi / n_angles))
            radial = np.sum(w * angular * r ** (m + n + 2.0 * s + 1.0) * np.exp(-(r**2)))
            norm = math.exp(0.5 * (log_gamma(s + m + 1.0) + log_gamma(s + n + 1.0)))
            out[n, m] = radial / (math.pi * norm)
    return out


def check_10_brute_force_entries() -> CheckResult:
    tolerance = 1e-6
    size = 6
    worst = 0.0
    for symbol in (symbol_constant(), symbol_abs_squared(), symbol_z(), symbol_re_z()):
        for s in (0.0, 1.0):
            mellin_path = toeplitz_matrix(symbol, s, size, QUAD).entries
            oracle = _brute_force_entries(symbol, s, size)
            scale = float(np.max(np.abs(oracle)))
            for m in range(size):
                for n in range(size):
                    a, b = mellin_path[n, m], oracle[n, m]
                    magnitude = max(abs(a), abs(b))
                    if magnitude <= 1e-12 * scale:
                        continue
                    worst = max(worst, abs(a - b) / magnitude)
    return CheckResult(
        10,
        "brute-force entry oracle",
        worst <= tolerance,
        f"worst rel entry err {worst:.3e} for N<=6 (tol {tolerance:g})",
    )


ALL_CHECKS = (
    check_01_mellin_oracle,
    check_02_kernel_reduction,
    check_03_radial_diagonal,
    check_04_radial_radial_commutation,
    check_05_criterion_matrix_equivalence,
    check_06_nonradial_forces_noncommutation,
    check_07_constant_symbol_degeneracy,
    check_08_adjoint_symmetry,
    check_09_decomposition_round_trip,
    check_10_brute_force_entries,
)


def run_all(quiet: bool = True) -> list[CheckResult]:
    results = []
    for check in ALL_CHECKS:
        result = check()
        results.append(result)
        if not quiet:
            status = "PASS" if result.passed else "FAIL"
            print(f"[{status}] {result.index:02d} {result.name}: {result.detail}")
    return results
