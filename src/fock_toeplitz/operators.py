"""Truncated Toeplitz matrices in the normalized-monomial basis.

With e_n(z) = z^n / sqrt(Gamma(s+n+1)) orthonormal in the order-s space, a
symbol with angular modes {j -> v_j} produces the banded matrix

    <T e_m, e_{m+j}> = 2 pi M[v_j G_s](2m + j + 2)
                       / sqrt(Gamma(s+m+1) Gamma(s+m+j+1)),

one diagonal per mode: the angular integral is exact by orthogonality, so
only the radial Mellin transform carries numerical error (rounding for
Gaussian-polynomial profiles, quadrature for evaluator profiles; both are
combined with the basis norms in the log domain), and entries
outside the declared band are zero by construction.  Truncation effects are
handled through exactness windows (entries with both indices <= window agree
with the untruncated composition) rather than by growing N adaptively.

Matrix construction is deterministic and embarrassingly parallel over
entries; the operator objects are immutable after construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, PreconditionError
from .fock_space import SobolevOrder, order_value
from .mellin import family_transform, mellin_weighted_cached
from .special_functions import DEFAULT_QUADRATURE, QuadratureSpec, log_gamma, log_gamma_array
from .symbols import RadialProfile, SymbolSpec

__all__ = [
    "TruncatedOperator",
    "toeplitz_matrix",
    "radial_eigenvalues",
    "commutator",
    "compose",
    "berezin",
    "window_max_abs",
    "min_truncation_size",
    "matrix_to_csv",
    "matrix_to_json",
]

# Basis norms and Gaussian-polynomial columns are log-domain (|z|^2 at s=150
# keeps s+k+1 to 1.5e-12 even at N=1000), so the cap guards evaluator
# profiles: their raw quadrature value overflows once (2m+j+2+2s)/2 passes
# about 172.  With exp(-1.3 r), N=160 fails from s=12; at s=0, from N=174.
MAX_TRUNCATION = 160


@dataclass(frozen=True, eq=False)
class TruncatedOperator:
    """N x N compression of an operator to span{e_0, ..., e_{N-1}}.

    ``entries[n, m]`` is <T e_m, e_n>.  ``exact_band`` is the bandwidth J
    outside which entries vanish identically; ``exactness_window`` is the
    largest W such that entries with both indices <= W are free of
    truncation leakage under composition.  ``entry_error`` bounds the
    absolute quadrature error of any single entry.
    """

    entries: np.ndarray
    s: float
    exact_band: int
    label: str
    entry_error: float = 0.0

    def __post_init__(self):
        matrix = np.asarray(self.entries, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] < 1:
            raise DomainError(f"entries must be a square matrix, got shape {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise DomainError("matrix entries must all be finite")
        band = self.exact_band
        if np.triu(matrix, band + 1).any() or np.tril(matrix, -band - 1).any():
            raise DomainError(
                f"operator {self.label!r}: nonzero entry outside declared band "
                f"{self.exact_band}"
            )
        matrix.setflags(write=False)
        object.__setattr__(self, "entries", matrix)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @property
    def exactness_window(self) -> int:
        return self.size - 1 - self.exact_band


def _basis_log_norms(s: float, n: int) -> np.ndarray:
    """log Gamma(s + m + 1) for m = 0, ..., n-1, summed in that order."""
    return log_gamma_array(s + np.arange(n) + 1.0)


def _truncation(N: int) -> int:
    if int(N) != N or N < 1 or N > MAX_TRUNCATION:
        raise DomainError(f"N must be an integer in [1, {MAX_TRUNCATION}], got {N!r}")
    return int(N)


def _diagonal(
    profile: RadialProfile,
    j: int,
    m: np.ndarray,
    s: float,
    log_norms: np.ndarray,
    quad: QuadratureSpec,
    name: str,
) -> tuple[np.ndarray, float]:
    """Entries <T e_m, e_{m+j}> of one mode at the columns ``m``, and the
    largest absolute error among them.

    A Gaussian-polynomial column is one vectorised closed-form evaluation
    (never cached); an evaluator column is one cached quadrature per entry,
    whose failure is re-raised as an :class:`AccuracyError` naming (j, m).
    """
    norms = 0.5 * (log_norms[m] + log_norms[m + j])
    if profile.evaluator is None:
        log_scale, value, error = family_transform(profile.terms, 2.0 * m + j + 2 + 2.0 * s)
        scale = 2.0 * math.pi * np.exp(log_scale - norms)
        return value * scale, float(np.max(error * scale, initial=0.0))
    values = np.zeros(m.size, dtype=complex)
    worst_error = 0.0
    for i, column in enumerate(m):
        try:
            transform = mellin_weighted_cached(profile, s, float(2 * column + j + 2), quad)
        except AccuracyError as exc:
            raise AccuracyError(
                f"entry quadrature failed for symbol {name!r} at mode j={j}, "
                f"column m={column}: {exc}",
                estimate=exc.estimate,
            ) from exc
        scale = 2.0 * math.pi * math.exp(transform.log_scale - norms[i])
        values[i] = transform.value * scale
        worst_error = max(worst_error, transform.abs_error_estimate * scale)
    return values, worst_error


def toeplitz_matrix(
    spec: SymbolSpec,
    s: "float | SobolevOrder",
    N: int,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
    *,
    label: str | None = None,
) -> TruncatedOperator:
    """Truncated Toeplitz matrix of the symbol on the first N basis vectors.

    One diagonal per mode, exact for Gaussian-polynomial profiles and by
    quadrature for evaluator profiles; diagonal symbols give diagonal
    matrices and ``exact_band`` is the largest |j| present.  A quadrature
    failure is re-raised as an :class:`AccuracyError` naming the offending
    (j, m) entry.
    """
    sv = order_value(s)
    N = _truncation(N)
    log_norms = _basis_log_norms(sv, N)
    matrix = np.zeros((N, N), dtype=complex)
    worst_error = 0.0
    for j, profile in spec.mode_items:
        m = np.arange(max(0, -j), N - max(0, j))
        matrix[m + j, m], error = _diagonal(profile, j, m, sv, log_norms, quad, spec.name)
        worst_error = max(worst_error, error)
    band = spec.max_mode
    return TruncatedOperator(
        matrix, sv, band, label if label is not None else spec.name, worst_error
    )


def radial_eigenvalues(
    v0: RadialProfile,
    s: "float | SobolevOrder",
    N: int,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> np.ndarray:
    """Diagonal of the Toeplitz operator of a radial symbol.

    lambda(k) = M[v0 G_s](2k+2) / M[G_s](2k+2); the denominator is the
    closed form Gamma(s+k+1) / (2 pi).
    """
    sv = order_value(s)
    N = _truncation(N)
    return _diagonal(v0, 0, np.arange(N), sv, _basis_log_norms(sv, N), quad, "radial")[0]


def _propagated_product_error(a: TruncatedOperator, b: TruncatedOperator) -> float:
    width = min(a.exact_band, b.exact_band) + 1
    scale_a = float(np.max(np.abs(a.entries))) if a.entries.size else 0.0
    scale_b = float(np.max(np.abs(b.entries))) if b.entries.size else 0.0
    return width * (a.entry_error * scale_b + b.entry_error * scale_a)


def commutator(a: TruncatedOperator, b: TruncatedOperator) -> TruncatedOperator:
    """AB - BA on the common truncation.

    The result's band is the sum of the bands, and its exactness window
    W = N - 1 - (band_A + band_B) marks the indices where the truncated
    product agrees with the untruncated composition.
    """
    if a.size != b.size:
        raise PreconditionError(f"size mismatch: {a.size} vs {b.size}")
    if a.s != b.s:
        raise PreconditionError(f"order mismatch: s={a.s} vs s={b.s}")
    matrix = a.entries @ b.entries - b.entries @ a.entries
    band = min(a.exact_band + b.exact_band, a.size - 1)
    error = 2.0 * _propagated_product_error(a, b)
    return TruncatedOperator(matrix, a.s, band, f"[{a.label},{b.label}]", error)


def compose(a: TruncatedOperator, b: TruncatedOperator) -> TruncatedOperator:
    """Matrix product AB, standing in for operator composition on the window."""
    if a.size != b.size:
        raise PreconditionError(f"size mismatch: {a.size} vs {b.size}")
    if a.s != b.s:
        raise PreconditionError(f"order mismatch: s={a.s} vs s={b.s}")
    band = min(a.exact_band + b.exact_band, a.size - 1)
    return TruncatedOperator(
        a.entries @ b.entries,
        a.s,
        band,
        f"{a.label}*{b.label}",
        _propagated_product_error(a, b),
    )


def berezin(a: TruncatedOperator, z: complex, *, tail_tol: float = 1e-12) -> complex:
    """Berezin transform <A K_z, K_z> / ||K_z||^2 on the truncation.

    Valid when the kernel coefficients beyond the truncation are negligible
    at z, i.e. |z|^(2N) / Gamma(s+N+1) <= tail_tol; otherwise a
    :class:`DomainError` asks for a larger truncation.
    """
    z = complex(z)
    n = a.size
    if abs(z) > 0.0:
        indicator = 2.0 * n * math.log(abs(z)) - log_gamma(a.s + n + 1.0)
        if indicator > math.log(tail_tol):
            raise DomainError(
                f"kernel tail indicator exp({indicator:.2f}) exceeds {tail_tol:g} at "
                f"|z| = {abs(z):g}; increase the truncation size beyond N = {n}"
            )
    log_norms = _basis_log_norms(a.s, n)
    coeff = z.conjugate() ** np.arange(n) * np.exp(-0.5 * log_norms)
    numerator = np.vdot(coeff, a.entries @ coeff)
    denominator = float(np.vdot(coeff, coeff).real)
    # componentwise division keeps A = identity at exactly 1
    return complex(float(numerator.real) / denominator, float(numerator.imag) / denominator)


def window_max_abs(a: TruncatedOperator, window: int) -> float:
    """Largest entry magnitude over indices n, m <= window."""
    if int(window) != window or window < 0 or window >= a.size:
        raise PreconditionError(
            f"window must be an integer in [0, {a.size - 1}], got {window!r}"
        )
    w = int(window) + 1
    return float(np.max(np.abs(a.entries[:w, :w])))


def min_truncation_size(
    max_abs_z: float,
    s: "float | SobolevOrder",
    *,
    tail_tol: float = 1e-12,
    floor: int = 8,
) -> int:
    """Smallest N meeting the Berezin tail precondition for |z| <= max_abs_z."""
    sv = order_value(s)
    r = float(max_abs_z)
    if r <= 0.0:
        return max(floor, 1)
    log_tol = math.log(tail_tol)
    for n in range(max(floor, 1), MAX_TRUNCATION + 1):
        if 2.0 * n * math.log(r) - log_gamma(sv + n + 1.0) <= log_tol:
            return n
    raise DomainError(
        f"no truncation within the cap {MAX_TRUNCATION} meets tail_tol={tail_tol:g} "
        f"at |z| = {r:g}"
    )


def matrix_to_csv(a: TruncatedOperator) -> str:
    """Full matrix as 'row,col,re,im' lines (row-major, deterministic)."""
    lines = [
        f"{row},{col},{value.real!r},{value.imag!r}\n"
        for row, values in enumerate(a.entries.tolist())
        for col, value in enumerate(values)
    ]
    return "row,col,re,im\n" + "".join(lines)


def matrix_to_json(a: TruncatedOperator) -> str:
    """JSON envelope {s, N, exact_band, label} wrapping the entry table.

    The bytes are those of ``json.dumps(payload, sort_keys=True, indent=2)``:
    json writes the envelope, and the entry table, written here with the
    same indentation and the same float repr, replaces its empty list.  The
    first '"entries": []' in the text is that list: "N" is the only key
    sorted before it, and json escapes every quote inside the label.
    """
    envelope = {
        "s": a.s,
        "N": a.size,
        "exact_band": a.exact_band,
        "label": a.label,
        "entry_error": a.entry_error,
        "entries": [],
    }
    table = ",\n".join(
        [
            f"    [\n      {row},\n      {col},\n"
            f"      {value.real!r},\n      {value.imag!r}\n    ]"
            for row, values in enumerate(a.entries.tolist())
            for col, value in enumerate(values)
        ]
    )
    text = json.dumps(envelope, sort_keys=True, indent=2)
    return text.replace('"entries": []', f'"entries": [\n{table}\n  ]', 1) + "\n"
