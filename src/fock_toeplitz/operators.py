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
view, costs N^2.  A Berezin transform weighs each diagonal d by real kernel
magnitudes and one scalar phase (z/|z|)^d on a cached (s, N) grid.  An
operator finds ``max_abs``, which bounds every product's error, once;
``_operator`` skips for this module's operators the checks their parts pass.

Every entry, here and in the criterion, is scaled by ``_scaled``.  Builds,
eigenvalues and criterion cells read mode diagonals through ``_diagonals``,
an LRU of at most ``_MAX_MEMO_DIAGONALS`` entries keyed by (profile, j, s,
N, quadrature spec), not by symbol name, that counts its hits and misses.
An entry holds the read-only entries and errors, the largest error and the
largest |entry|: a rebuild runs no transform and finds its ``max_abs``
without a pass.  A build's misses are one transform call (one quadrature
pass for its evaluator modes); a refusal is raised again on every call,
never stored, and names the symbol of that call.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from collections import Counter, OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import AccuracyError, DomainError, PreconditionError, is_integer
from .fock_space import SobolevOrder, order_value
from .mellin import _columns
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
# Assembled diagonals that _diagonals keeps for rebuilds.  An entry is at most
# N = 160 entries and their errors, 24 bytes each (3.8 KB), so the memo
# holds at most about 1 MB.
_MAX_MEMO_DIAGONALS = 256
# The diagonal memo, least recently read first, and its hits and misses by mode.
_memo: OrderedDict = OrderedDict()
_memo_counts: Counter = Counter()
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
        n, band, error = self.size, self.exact_band, self.entry_error
        op = f"operator {self.label!r}"
        if not is_integer(n) or n < 1:
            raise DomainError(f"{op}: size must be an integer >= 1, got {n!r}")
        if not _at_least_zero(self.s, finite=True):
            raise DomainError(f"{op}: s must be finite and >= 0, got {self.s!r}")
        if not is_integer(band) or band < 0:
            raise DomainError(f"{op}: exact_band must be an integer >= 0, got {band!r}")
        if not _at_least_zero(error):  # nan fails too; an infinite bound stands
            raise DomainError(f"{op}: entry_error must be >= 0, got {error!r}")
        for d in self.diagonals:
            if not is_integer(d):
                raise DomainError(f"{op}: diagonal key {d!r} is not an integer")
        diagonals = {}
        for d in sorted(self.diagonals):
            where = f"{op}: diagonal d={d}"
            try:  # a read-only view: the caller's array keeps its own flags
                values = np.asarray(self.diagonals[d], dtype=complex).view()
            except (TypeError, ValueError):
                raise DomainError(f"{where}: entries must be numbers") from None
            if abs(d) > band:
                raise DomainError(f"{where} lies outside declared band {band}")
            if abs(d) >= n or values.shape != (n - abs(d),):
                need = f"N={n} needs shape ({max(n - abs(d), 0)},)"
                raise DomainError(f"{where} at {need}, got {values.shape}")
            diagonals[int(d)] = _read_only_finite(values, d, where)
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

    @cached_property
    def _entry_reprs(self) -> dict[int, tuple[list[str], list[str]]]:
        """repr of the real and the imaginary part of each stored entry, by
        diagonal, made once for both exporters."""
        return {
            d: (list(map(repr, values.real.tolist())), list(map(repr, values.imag.tolist())))
            for d, values in self.diagonals.items()
        }

    @cached_property
    def max_abs(self) -> float:
        """Largest entry magnitude, ``window_max_abs(self, size - 1)``, found once."""
        return _max_abs(self.diagonals.values())

    @property
    def exactness_window(self) -> int:
        return self.size - 1 - self.exact_band


def _operator(diagonals, size, s, band, label, error, finite=True, max_abs=None):
    """A TruncatedOperator of parts that pass ``__post_init__`` by construction, which is
    not run, but for finiteness unless ``finite``; a ``max_abs`` known is stored."""
    diagonals = dict(sorted(diagonals.items()))
    if not finite:
        for d, values in diagonals.items():
            _read_only_finite(values, d, f"operator {label!r}: diagonal d={d}")
    op = object.__new__(TruncatedOperator)
    fields = (diagonals, size, s, band, label, error)
    op.__dict__.update(zip(TruncatedOperator.__dataclass_fields__, fields))
    if max_abs is not None:
        op.__dict__["max_abs"] = max_abs
    return op


def _at_least_zero(value, finite: bool = False) -> bool:
    """Whether ``value`` is a number >= 0, and finite when ``finite``; nan and a bool fail."""
    try:
        number = value >= 0.0 and not isinstance(value, (bool, np.bool_))
        return number and (not finite or math.isfinite(value))
    except (TypeError, ValueError):
        return False


def _read_only_finite(values: np.ndarray, d: int, where: str) -> np.ndarray:
    """Diagonal ``d``'s ``values`` made read-only, or its first non-finite entry refused."""
    if not np.isfinite(values).all():
        m = np.argmin(np.isfinite(values)) + max(0, -d)
        raise DomainError(f"{where}: entry at column m={m} is not finite")
    values.setflags(write=False)
    return values


@lru_cache(maxsize=64)
def _basis_grid(s: float, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For k < n, read-only: log Gamma(s + k + 1), summed in that order, for
    builds; k, half those logs and n complex ones for ``berezin``."""
    k = np.arange(n)
    norms = log_gamma_array(s + k + 1.0)
    grid = (norms, k, 0.5 * norms, np.ones(n, dtype=complex))
    for array in grid:
        array.setflags(write=False)
    return grid


def _kernel_tail_log(r: float, s: float, n: int) -> float:
    """log of the kernel tail indicator r^(2n) / Gamma(s+n+1), for r > 0."""
    return 2.0 * n * math.log(r) - log_gamma(s + n + 1.0)


def _truncation(N: int) -> int:
    if not is_integer(N) or N < 1 or N > MAX_TRUNCATION:
        raise DomainError(f"N must be an integer in [1, {MAX_TRUNCATION}], got {N!r}")
    return int(N)


def _scaled(column: tuple, j: int, m: np.ndarray, log_norms: np.ndarray, name: str):
    """Entries <T e_m, e_{m+j}> at the columns ``m`` and their absolute errors from a
    ``_columns`` column, whose log_scale meets ``log_norms`` (log Gamma(s+m+1) +
    log Gamma(s+m+j+1)) before any exp.  A failed quadrature is re-raised as an
    :class:`AccuracyError`, an evaluator's :class:`DomainError` as one, and an
    entry or error beyond double range refused by a :class:`DomainError`, each
    naming symbol ``name`` and (j, m)."""
    log_scale, values, errors, failures = column
    if failures:
        i = min(failures)
        exc = failures[i]
        where = f"symbol {name!r} at mode j={j}, column m={m.tolist()[i]}"
        if isinstance(exc, AccuracyError):
            message = f"entry quadrature failed for {where}: {exc}"
            raise AccuracyError(message, estimate=exc.estimate) from exc
        if isinstance(exc, DomainError):
            raise DomainError(f"entry quadrature failed for {where}: {exc}") from exc
        raise exc
    with np.errstate(over="ignore", invalid="ignore"):
        scale = 2.0 * math.pi * np.exp(log_scale - 0.5 * log_norms)
        values, errors = values * scale, errors * scale
    finite = np.isfinite(values) & np.isfinite(errors)
    if not finite.all():
        where = f"mode j={j}, column m={m[np.argmin(finite)]}"
        raise DomainError(f"entry of symbol {name!r} at {where} leaves double range")
    return values, errors


def _entries(
    profile: RadialProfile, j: int, m: np.ndarray, s: float, quad: QuadratureSpec, name: str
) -> tuple[np.ndarray, np.ndarray]:
    """``_scaled`` entries of one profile at any columns ``m``, uncached, for
    ``phi``, ``psi`` and the probe: one column of transforms."""
    log_norms = log_gamma_array(s + m + 1.0) + log_gamma_array(s + (m + j) + 1.0)
    return _scaled(_columns([(profile, 2.0 * m + j + 2)], s, quad)[0], j, m, log_norms, name)


def _diagonals(items, s: float, N: int, quad: QuadratureSpec, name: str) -> list[tuple]:
    """The memo entry of each mode (j, profile) of ``items``, |j| < N, over its
    columns in the N x N block: its ``_scaled`` entries and errors, read-only,
    their largest error and largest |entry|.  The misses are transformed in one
    ``_columns`` call and stored in mode order up to the first refusal, which
    is raised, naming symbol ``name``, and never stored."""
    found, missed = [], []
    for j, profile in items:
        key = (profile, j, s, N, quad)
        entry = _memo.get(key)
        if entry is None:
            missed.append((len(found), j, key, np.arange(max(0, -j), N - max(0, j))))
        else:
            _memo.move_to_end(key)
        found.append(entry)
    _memo_counts["hits"] += len(found) - len(missed)
    _memo_counts["misses"] += len(missed)
    if missed:
        log_gammas = _basis_grid(s, N)[0]
        parts = [(key[0], 2.0 * m + j + 2) for _, j, key, m in missed]
        for (i, j, key, m), column in zip(missed, _columns(parts, s, quad)):
            values, errors = _scaled(column, j, m, log_gammas[m] + log_gammas[m + j], name)
            values.setflags(write=False)
            errors.setflags(write=False)
            found[i] = _memo[key] = values, errors, float(np.max(errors)), _max_abs([values])
            if len(_memo) > _MAX_MEMO_DIAGONALS:
                _memo.popitem(last=False)
    return found


def toeplitz_matrix(
    spec: SymbolSpec,
    s: "float | SobolevOrder",
    N: int,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> TruncatedOperator:
    """Truncated Toeplitz matrix of the symbol on the first N basis vectors.

    One diagonal per mode, exact for Gaussian-polynomial profiles and by
    quadrature for evaluator profiles, all those that miss the memo in one
    quadrature pass; diagonal symbols give diagonal matrices and
    ``exact_band`` is the largest |j| present.  A quadrature failure is
    re-raised as an :class:`AccuracyError`, and an entry beyond double
    range as a :class:`DomainError`, naming the first offending (j, m)
    entry in mode order.
    """
    sv = order_value(s)
    N = _truncation(N)
    items = [(j, profile) for j, profile in spec.mode_items if abs(j) < N]
    diagonals, worst_error, largest = {}, 0.0, 0.0
    for (j, _), (values, _, error, peak) in zip(items, _diagonals(items, sv, N, quad, spec.name)):
        diagonals[j] = values
        worst_error, largest = max(worst_error, error), max(largest, peak)
    return _operator(diagonals, N, sv, spec.max_mode, spec.name, worst_error, max_abs=largest)


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
    return _diagonals([(0, v0)], sv, N, quad, "radial")[0][0].copy()


def _propagated_product_error(a: TruncatedOperator, b: TruncatedOperator) -> float:
    if math.inf in (a.entry_error, b.entry_error):  # stands, also where inf * 0 is nan
        return math.inf
    width = min(a.exact_band, b.exact_band) + 1
    # an exact factor adds 0, also beside a max_abs that overflows to inf
    ea, eb = a.entry_error, b.entry_error
    return width * ((ea and ea * b.max_abs) + (eb and eb * a.max_abs))


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
    return _operator(diagonals, a.size, a.s, band, f"[{a.label},{b.label}]", error, finite=False)


def compose(a: TruncatedOperator, b: TruncatedOperator) -> TruncatedOperator:
    """Matrix product AB, standing in for operator composition on the window."""
    diagonals, band = _product(a, b)
    error = _propagated_product_error(a, b)
    return _operator(diagonals, a.size, a.s, band, f"{a.label}*{b.label}", error, finite=False)


def berezin(a: TruncatedOperator, z: complex) -> complex:
    """Berezin transform <A K_z, K_z> / ||K_z||^2 on the truncation.

    Valid when the kernel coefficients beyond the truncation are negligible
    at z, i.e. |z|^(2N) / Gamma(s+N+1) <= 1e-12; otherwise a
    :class:`DomainError` asks for a larger truncation.  At z = 0 it is
    A[0, 0].
    """
    try:
        z = complex(z)
    except (TypeError, ValueError):
        raise DomainError(f"Berezin point z must be finite, got {z!r}") from None
    if not cmath.isfinite(z):
        raise DomainError(f"Berezin point z must be finite, got {z!r}")
    if z == 0.0:
        first = a.diagonals.get(0)
        return 0j if first is None else complex(first[0])
    n = a.size
    indicator = _kernel_tail_log(abs(z), a.s, n)
    if indicator > math.log(_KERNEL_TAIL_TOL):
        raise DomainError(
            f"kernel tail indicator exp({indicator:.2f}) exceeds {_KERNEL_TAIL_TOL:g} at "
            f"|z| = {abs(z):g}; increase the truncation size beyond N = {n}"
        )
    # the magnitudes of the coefficients c[k] = conj(z)^k / sqrt(Gamma(s+k+1)),
    # scaled by their largest, which the ratio does not see (unscaled they
    # underflow by s = 200); conj(c[m+d]) c[m] = |c[m+d] c[m]| (z/|z|)^d
    _, k, half_log_norms, ones = _basis_grid(a.s, n)
    log_abs = k * math.log(abs(z)) - half_log_norms
    magnitude = np.exp(log_abs - log_abs.max())
    phase = z / abs(z)
    numerator = 0j
    for d, values in a.diagonals.items():
        weights = magnitude[max(0, d) : n + min(0, d)] * magnitude[max(0, -d) : n - max(0, d)]
        numerator += phase**d * np.dot(weights, values)
    # the d = 0 term's dot on ones and componentwise division keep A = identity at exactly 1
    denominator = float(np.dot(magnitude * magnitude, ones).real)
    return complex(numerator.real / denominator, numerator.imag / denominator)


def window_max_abs(a: TruncatedOperator, window: int) -> float:
    """Largest entry magnitude over indices n, m <= window."""
    if not is_integer(window) or window < 0 or window >= a.size:
        raise PreconditionError(
            f"window must be an integer in [0, {a.size - 1}], got {window!r}"
        )
    # the first w - |d| entries of diagonal d have both indices below w
    w = int(window) + 1
    if w == a.size:
        return a.max_abs
    return _max_abs(values[: w - abs(d)] for d, values in a.diagonals.items() if abs(d) < w)


def _max_abs(arrays) -> float:
    return max((float(np.abs(values).max()) for values in arrays), default=0.0)


def min_truncation_size(max_abs_z: float, s: "float | SobolevOrder") -> int:
    """Smallest N >= 8 meeting the Berezin tail precondition for |z| <= max_abs_z."""
    sv = order_value(s)
    try:
        r = math.nan if isinstance(max_abs_z, (bool, np.bool_)) else float(max_abs_z)
    except (TypeError, ValueError):
        r = math.nan  # refused below, by name
    if not (math.isfinite(r) and r >= 0.0):
        raise DomainError(f"max_abs_z must be finite and >= 0, got {max_abs_z!r}")
    for n in range(8, MAX_TRUNCATION + 1):
        if r == 0.0 or _kernel_tail_log(r, sv, n) <= math.log(_KERNEL_TAIL_TOL):
            return n
    raise DomainError(
        f"no truncation within the cap {MAX_TRUNCATION} meets tail_tol={_KERNEL_TAIL_TOL:g} "
        f"at |z| = {r:g}"
    )


# A line is a head naming (row, col) and a tail holding the reprs of the
# entry's parts (str and repr of a float agree).
_CSV_LINE = ("{},{}", ",{},{}\n")
_JSON_ITEM = ("    [\n      {},\n      {}", ",\n      {},\n      {}\n    ],\n")


@lru_cache(maxsize=8)
def _tagged_row(line: tuple[str, str], width: int, digits: int) -> tuple[str, list[int]]:
    """Zero lines of ``line`` in columns 0, ..., width-1 tagged with ``digits`` '#'s for the
    row, and where each line starts, as in every row whose index has that many digits."""
    pattern = line[0].format("#" * digits, "{}") + line[1].format(0.0, 0.0)
    texts = list(map(pattern.format, range(width)))
    return "".join(texts), list(itertools.accumulate(map(len, texts), initial=0))


@lru_cache(maxsize=2 * MAX_TRUNCATION)
def _zero_row(line: tuple[str, str], width: int, tag: str) -> str:
    """Zero lines of row ``tag`` in columns 0, ..., width-1; any N <= width is a prefix."""
    return _tagged_row(line, width, len(tag))[0].replace("#" * len(tag), tag)


def _entry_lines(a: TruncatedOperator, line: tuple[str, str], head: str) -> list[str]:
    """``head``, then every entry of ``a`` in row-major order as one ``line``
    each, as pieces to join.  Only the stored entries are formatted, from
    their cached reprs; every other byte is cut from the row's cached zero
    lines."""
    n, width, tail = a.size, max(a.size, MAX_TRUNCATION), line[1]
    zero_tail = len(tail.format(0.0, 0.0))
    # descending d visits each row's stored entries in ascending column order
    bands = [
        (d, max(0, -d), list(map(tail.format, *a._entry_reprs[d])))
        for d in sorted(a.diagonals, reverse=True)
    ]
    parts = [head]
    for row, tag in enumerate(map(str, range(n))):
        zeros, starts, done = _zero_row(line, width, tag), _tagged_row(line, width, len(tag))[1], 0
        for d, first, texts in bands:
            col = row - d
            if 0 <= col < n:
                parts += zeros[starts[done] : starts[col + 1] - zero_tail], texts[col - first]
                done = col + 1
        parts.append(zeros[starts[done] : starts[n]])
    return parts


def matrix_to_csv(a: TruncatedOperator) -> str:
    """Full matrix as 'row,col,re,im' lines (row-major, deterministic)."""
    return "".join(_entry_lines(a, _CSV_LINE, "row,col,re,im\n"))


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
    head, _, tail = json.dumps(envelope, sort_keys=True, indent=2).partition('"entries": []')
    parts = _entry_lines(a, _JSON_ITEM, head + '"entries": [\n')
    last = parts.pop() or parts.pop()  # the last piece is empty when entry (N-1, N-1) is stored
    parts += last[:-2], f"\n  ]{tail}\n"  # the last item takes no ",\n"
    return "".join(parts)
