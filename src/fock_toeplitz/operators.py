"""Truncated Toeplitz matrices in the normalized-monomial basis.

With e_n(z) = z^n / sqrt(Gamma(s+n+1)) orthonormal in the order-s space, a
symbol with angular modes {j -> v_j} produces the banded matrix

    <T e_m, e_{m+j}> = 2 pi M[v_j G_s](2m + j + 2)
                       / sqrt(Gamma(s+m+1) Gamma(s+m+j+1)),

one diagonal per mode: the angular integral is exact by orthogonality, so
only the radial Mellin transform carries numerical error (rounding for
Gaussian-polynomial profiles, quadrature for evaluator profiles; both are
combined with the basis norms in the log domain).  Truncation effects are
handled through exactness windows (entries with both indices <= window agree
with the untruncated composition) rather than by growing N adaptively.

An operator is stored as its diagonals, so an entry outside the declared
band cannot be represented.  A product of operators with diagonal sets A
and B is O(N |A| |B|) slice products; Berezin transforms, window maxima and
the exporters read the diagonals too, and only ``entries``, a lazy dense
view, costs N^2.  Operators are immutable after construction.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import AccuracyError, DomainError, PreconditionError, is_integer
from .fock_space import SobolevOrder, order_value
# mellin_weighted_cached is unused here, but perfbench/spans.py wraps this binding
from .mellin import TRANSFORMS, mellin_weighted_cached  # noqa: F401
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
# Berezin transforms need the kernel coefficients beyond the truncation,
# |z|^(2N) / Gamma(s+N+1), below this; min_truncation_size searches for it.
_KERNEL_TAIL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class TruncatedOperator:
    """N x N compression of an operator to span{e_0, ..., e_{N-1}}, stored by
    diagonals.

    ``diagonals[d][i]`` is <T e_m, e_{m+d}> at column m = i + max(0, -d), so
    diagonal d holds the N - |d| entries of ``np.diagonal(entries, -d)``; a
    diagonal that is not stored is zero.  ``exact_band`` is the bandwidth J,
    and no diagonal with |d| > J is stored.  ``entries[n, m]`` =
    <T e_m, e_n> is a lazy, read-only dense view, built on first read.
    ``exactness_window`` is the largest W such that entries with both
    indices <= W are free of truncation leakage under composition.
    ``entry_error`` bounds the absolute quadrature error of any single entry.
    """

    diagonals: dict[int, np.ndarray]
    size: int
    s: float
    exact_band: int
    label: str
    entry_error: float = 0.0

    def __post_init__(self):
        n = self.size
        if not is_integer(n) or n < 1:
            raise DomainError(f"operator {self.label!r}: size must be an integer >= 1, got {n!r}")
        diagonals = {}
        for d in sorted(self.diagonals):
            # a read-only view: the caller's array keeps its own flags
            values = np.asarray(self.diagonals[d], dtype=complex).view()
            where = f"operator {self.label!r}: diagonal d={d}"
            if abs(d) > self.exact_band:
                raise DomainError(f"{where} lies outside declared band {self.exact_band}")
            if abs(d) >= n or values.shape != (n - abs(d),):
                need = f"N={n} needs shape ({max(n - abs(d), 0)},)"
                raise DomainError(f"{where} at {need}, got {values.shape}")
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise DomainError(f"{where}: entry at column m={bad[0] + max(0, -d)} is not finite")
            values.setflags(write=False)
            diagonals[int(d)] = values
        object.__setattr__(self, "diagonals", diagonals)

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense read-only N x N array, built on first read."""
        matrix = np.zeros((self.size, self.size), dtype=complex)
        for d, values in self.diagonals.items():
            m = np.arange(max(0, -d), self.size - max(0, d))
            matrix[m + d, m] = values
        matrix.setflags(write=False)
        return matrix

    @property
    def exactness_window(self) -> int:
        return self.size - 1 - self.exact_band


@lru_cache(maxsize=64)
def _basis_log_norms(s: float, n: int) -> np.ndarray:
    """log Gamma(s + m + 1) for m = 0, ..., n-1, summed in that order; read-only."""
    norms = log_gamma_array(s + np.arange(n) + 1.0)
    norms.setflags(write=False)
    return norms


def _kernel_tail_log(r: float, s: float, n: int) -> float:
    """log of the kernel tail indicator r^(2n) / Gamma(s+n+1), for r > 0."""
    return 2.0 * n * math.log(r) - log_gamma(s + n + 1.0)


def _truncation(N: int) -> int:
    if not is_integer(N) or N < 1 or N > MAX_TRUNCATION:
        raise DomainError(f"N must be an integer in [1, {MAX_TRUNCATION}], got {N!r}")
    return int(N)


def _transform_column(
    profile: RadialProfile,
    j: int,
    m: np.ndarray,
    s: float,
    quad: QuadratureSpec,
    name: str,
    log_divisor: "float | np.ndarray" = 0.0,
    factor: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """factor * M[profile G_s](2m + j + 2) / exp(log_divisor), the transforms
    behind the entries (m + j, m), with their absolute errors.  This is the
    one reader of the table's (log_scale, value, error) columns: log_scale is
    added to -log_divisor before anything is exponentiated.  A value or
    error beyond double range comes back infinite or nan, for the caller to
    refuse by name.

    Both profile kinds are read from the shared transform table, so a
    rebuild, or a criterion column that is a prefix of a diagonal built at
    the same s, is an index read.  The first failing entry is re-raised as
    an :class:`AccuracyError` naming (j, m).
    """
    log_scale, values, errors, failures = TRANSFORMS.column(profile, s, 2.0 * m + j + 2, quad)
    if failures:
        i = min(failures)
        exc = failures[i]
        raise AccuracyError(
            f"entry quadrature failed for symbol {name!r} at mode j={j}, "
            f"column m={m.tolist()[i]}: {exc}",
            estimate=exc.estimate,
        ) from exc
    with np.errstate(over="ignore", invalid="ignore"):
        scale = factor * np.exp(log_scale - log_divisor)
        return values * scale, errors * scale


def _diagonal(
    profile: RadialProfile,
    j: int,
    m: np.ndarray,
    s: float,
    log_norms: np.ndarray,
    quad: QuadratureSpec,
    name: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Entries <T e_m, e_{m+j}> of one mode at the columns ``m``, with their
    absolute errors; a :class:`DomainError` names the first column whose
    entry or error leaves double range."""
    log_divisor = 0.5 * (log_norms[m] + log_norms[m + j])
    values, errors = _transform_column(profile, j, m, s, quad, name, log_divisor, 2.0 * math.pi)
    finite = np.isfinite(values) & np.isfinite(errors)
    if not finite.all():
        raise DomainError(
            f"entry of symbol {name!r} at mode j={j}, column m={m[np.argmin(finite)]} "
            "leaves double range"
        )
    return values, errors


def toeplitz_matrix(
    spec: SymbolSpec,
    s: "float | SobolevOrder",
    N: int,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> TruncatedOperator:
    """Truncated Toeplitz matrix of the symbol on the first N basis vectors.

    One diagonal per mode, exact for Gaussian-polynomial profiles and by
    quadrature for evaluator profiles; diagonal symbols give diagonal
    matrices and ``exact_band`` is the largest |j| present.  A quadrature
    failure is re-raised as an :class:`AccuracyError`, and an entry beyond
    double range as a :class:`DomainError`, naming the offending (j, m) entry.
    """
    sv = order_value(s)
    N = _truncation(N)
    log_norms = _basis_log_norms(sv, N)
    diagonals = {}
    worst_error = 0.0
    for j, profile in spec.mode_items:
        m = np.arange(max(0, -j), N - max(0, j))
        if m.size:
            diagonals[j], errors = _diagonal(profile, j, m, sv, log_norms, quad, spec.name)
            worst_error = max(worst_error, float(np.max(errors)))
    return TruncatedOperator(diagonals, N, sv, spec.max_mode, spec.name, worst_error)


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
    scale_a, scale_b = window_max_abs(a, a.size - 1), window_max_abs(b, b.size - 1)
    return width * (a.entry_error * scale_b + b.entry_error * scale_a)


# An overflowing product is refused by the result's constructor, which names
# the operator and the entry, so numpy's warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def _product(a: TruncatedOperator, b: TruncatedOperator) -> tuple[dict[int, np.ndarray], int]:
    """Diagonals and band of the truncated product AB.

    Entry (c + d, c) on diagonal d = da + db sums A[c + d, c + db] B[c + db, c]
    over the stored pairs (da, db), for the columns c where both factors
    lie inside the N x N block: O(N |A| |B|) slice products, no dense matrix.
    """
    if a.size != b.size:
        raise PreconditionError(f"size mismatch: {a.size} vs {b.size}")
    if a.s != b.s:
        raise PreconditionError(f"order mismatch: s={a.s} vs s={b.s}")
    n = a.size
    out: dict[int, np.ndarray] = {}
    for db, y in b.diagonals.items():
        for da, x in a.diagonals.items():
            d = da + db
            if abs(d) >= n:
                continue
            total = out.setdefault(d, np.zeros(n - abs(d), dtype=complex))
            lo, hi = max(0, -db, -d), n - max(0, db, d)
            if hi > lo:
                start = lo + db - max(0, -da)
                product = x[start : start + hi - lo] * y[lo - max(0, -db) : hi - max(0, -db)]
                total[lo - max(0, -d) : hi - max(0, -d)] += product
    return out, min(a.exact_band + b.exact_band, n - 1)


def commutator(a: TruncatedOperator, b: TruncatedOperator) -> TruncatedOperator:
    """AB - BA on the common truncation.

    The result's band is the sum of the bands, at most N - 1, and its
    exactness window W = N - 1 - band marks the indices where the truncated
    product agrees with the untruncated composition.
    """
    (ab, band), (ba, _) = _product(a, b), _product(b, a)
    with np.errstate(over="ignore", invalid="ignore"):
        diagonals = {d: ab[d] - ba[d] for d in ab}
    error = 2.0 * _propagated_product_error(a, b)
    return TruncatedOperator(diagonals, a.size, a.s, band, f"[{a.label},{b.label}]", error)


def compose(a: TruncatedOperator, b: TruncatedOperator) -> TruncatedOperator:
    """Matrix product AB, standing in for operator composition on the window."""
    diagonals, band = _product(a, b)
    error = _propagated_product_error(a, b)
    return TruncatedOperator(diagonals, a.size, a.s, band, f"{a.label}*{b.label}", error)


def berezin(a: TruncatedOperator, z: complex) -> complex:
    """Berezin transform <A K_z, K_z> / ||K_z||^2 on the truncation.

    Valid when the kernel coefficients beyond the truncation are negligible
    at z, i.e. |z|^(2N) / Gamma(s+N+1) <= 1e-12; otherwise a
    :class:`DomainError` asks for a larger truncation.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"Berezin point z must be finite, got {z!r}")
    n = a.size
    if abs(z) > 0.0:
        indicator = _kernel_tail_log(abs(z), a.s, n)
        if indicator > math.log(_KERNEL_TAIL_TOL):
            raise DomainError(
                f"kernel tail indicator exp({indicator:.2f}) exceeds {_KERNEL_TAIL_TOL:g} at "
                f"|z| = {abs(z):g}; increase the truncation size beyond N = {n}"
            )
    log_norms = _basis_log_norms(a.s, n)
    coeff = z.conjugate() ** np.arange(n) * np.exp(-0.5 * log_norms)
    numerator = 0j
    for d, values in a.diagonals.items():
        rows, columns = coeff[max(0, d) : n + min(0, d)], coeff[max(0, -d) : n - max(0, d)]
        numerator += np.vdot(rows, values * columns)
    denominator = float(np.vdot(coeff, coeff).real)
    # componentwise division keeps A = identity at exactly 1
    return complex(numerator.real / denominator, numerator.imag / denominator)


def window_max_abs(a: TruncatedOperator, window: int) -> float:
    """Largest entry magnitude over indices n, m <= window."""
    if not is_integer(window) or window < 0 or window >= a.size:
        raise PreconditionError(
            f"window must be an integer in [0, {a.size - 1}], got {window!r}"
        )
    # the first w - |d| entries of diagonal d have both indices below w
    w = int(window) + 1
    inside = [values[: w - abs(d)] for d, values in a.diagonals.items() if abs(d) < w]
    return max((float(np.max(np.abs(values))) for values in inside), default=0.0)


def min_truncation_size(max_abs_z: float, s: "float | SobolevOrder") -> int:
    """Smallest N >= 8 meeting the Berezin tail precondition for |z| <= max_abs_z."""
    sv = order_value(s)
    r = float(max_abs_z)
    if not (math.isfinite(r) and r >= 0.0):
        raise DomainError(f"max_abs_z must be finite and >= 0, got {max_abs_z!r}")
    for n in range(8, MAX_TRUNCATION + 1):
        if r == 0.0 or _kernel_tail_log(r, sv, n) <= math.log(_KERNEL_TAIL_TOL):
            return n
    raise DomainError(
        f"no truncation within the cap {MAX_TRUNCATION} meets tail_tol={_KERNEL_TAIL_TOL:g} "
        f"at |z| = {r:g}"
    )


_CSV_LINE = "{row},{col},{re},{im}\n"
_JSON_ITEM = "    [\n      {row},\n      {col},\n      {re},\n      {im}\n    ],\n"


@lru_cache(maxsize=64)
def _zero_row(line: str, n: int) -> tuple[str, tuple[int, ...]]:
    """One row of ``line`` texts with zero entries in every column, the row
    index written as '#', and the offset at which each column's text starts."""
    texts = [line.format(row="#", col=col, re="0.0", im="0.0") for col in range(n)]
    return "".join(texts), tuple(itertools.accumulate(map(len, texts), initial=0))


def _entry_table(a: TruncatedOperator, line: str) -> str:
    """Every entry of ``a`` in row-major order as one ``line`` each.  Stored
    entries are written with repr; the zero runs between them are cut from
    the cached zero row, so only the band is formatted."""
    n = a.size
    zero_row, offsets = _zero_row(line, n)
    # descending d visits each row's stored entries in ascending column order
    bands = [(d, max(0, -d), a.diagonals[d].tolist()) for d in sorted(a.diagonals, reverse=True)]
    parts = []
    for row in range(n):
        tag, done = str(row), 0
        for d, first, values in bands:
            col = row - d
            if 0 <= col < n:
                z = values[col - first]
                parts.append(zero_row[offsets[done] : offsets[col]].replace("#", tag))
                parts.append(line.format(row=tag, col=col, re=repr(z.real), im=repr(z.imag)))
                done = col + 1
        parts.append(zero_row[offsets[done] :].replace("#", tag))
    return "".join(parts)


def matrix_to_csv(a: TruncatedOperator) -> str:
    """Full matrix as 'row,col,re,im' lines (row-major, deterministic)."""
    return "row,col,re,im\n" + _entry_table(a, _CSV_LINE)


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
    table = _entry_table(a, _JSON_ITEM)[:-2]  # the last item takes no ",\n"
    text = json.dumps(envelope, sort_keys=True, indent=2)
    return text.replace('"entries": []', f'"entries": [\n{table}\n  ]', 1) + "\n"
