"""Symbols as finite Fourier-radial expansions.

A symbol u on the plane is handled through its angular modes,
u(r e^{i theta}) = sum_j v_j(r) e^{i j theta}, with each radial profile v_j
carrying declared polynomial-growth metadata (|v(r)| <= C (1+r)^m).  The
module provides evaluation and decomposition of sampled symbols on a polar
grid (FFT in the angle, cubic interpolation in the radius, each sampled mode
classified on a polynomial growth ladder).

SymbolSpec and RadialProfile are immutable; everything here is read-only and
concurrent-safe after construction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ClassificationError, DomainError, PreconditionError, number, point
from .special_functions import pointwise

__all__ = [
    "RadialProfile",
    "SymbolSpec",
    "evaluate",
    "decompose",
    "sample_polar",
    "polar_l2_norm",
]

# Validation grid for declared growth bounds (open at 0, up to r = 50).
_VALIDATION_RADII = np.linspace(0.05, 50.0, 128)
# Angular-mode magnitudes below this floor count as absent.
DEFAULT_DROP_FLOOR = 1e-12
_GROWTH_LADDER_MAX = 16
_GROWTH_HEADROOM = 1.1


@dataclass(frozen=True)
class RadialProfile:
    """A radial function r -> v(r) on the positive half-line.

    A profile is either a Gaussian-polynomial family member, r -> sum of
    c r^p exp(-b r^2) over its ``terms`` (c, p, b) with p, b >= 0 (no terms
    is the zero profile), whose weighted Mellin transforms are exact Gamma
    values; or an ``evaluator`` callable, transformed by quadrature.  The
    growth metadata asserts |v(r)| <= growth_constant * (1+r)^growth_exponent
    (true by construction for the family, spot-checked on a fixed grid for
    evaluators).  Calling the profile evaluates it; numpy arrays are accepted
    and returned elementwise.
    """

    growth_exponent: float
    growth_constant: float
    terms: tuple = ()
    evaluator: Callable | None = None

    def __post_init__(self):
        exponent = number("growth_exponent", self.growth_exponent, minimum=0.0)
        object.__setattr__(self, "growth_exponent", exponent)
        constant = number("growth_constant", self.growth_constant, above=0.0)
        object.__setattr__(self, "growth_constant", constant)

    # -- constructors -------------------------------------------------------

    @classmethod
    def gaussian_terms(cls, terms: Sequence[tuple]) -> "RadialProfile":
        """r -> sum c r^p exp(-b r^2) over (c, p, b) terms with p, b >= 0.

        Terms sharing (p, b) are merged and zero coefficients dropped.  Each
        term is bounded by |c| (1+r)^p, so the growth bound is
        sum |c| (1+r)^(max p).
        """
        merged: dict[tuple[float, float], complex] = {}
        for i, (c, p, b) in enumerate(terms):
            c = point(f"Gaussian term {i}: c", c)
            p = number(f"Gaussian term {i}: p", p, minimum=0.0)
            b = number(f"Gaussian term {i}: b", b, minimum=0.0)
            merged[(p, b)] = merged.get((p, b), 0j) + c
        kept = tuple((merged[key], *key) for key in sorted(merged) if merged[key] != 0)
        exponent = max((p for _, p, _ in kept), default=0.0)
        constant = sum(abs(c) for c, _, _ in kept)
        return cls(exponent, max(constant, 1e-300), terms=kept)

    @classmethod
    def monomial(cls, p: float) -> "RadialProfile":
        """r -> r^p for p >= 0 (p = 0 is the constant 1)."""
        return cls.gaussian_terms([(1.0, p, 0.0)])

    @classmethod
    def polynomial(cls, coefficients: Sequence[complex]) -> "RadialProfile":
        """r -> sum_k c_k r^k."""
        return cls.gaussian_terms([(c, k, 0.0) for k, c in enumerate(coefficients)])

    @classmethod
    def from_callable(
        cls,
        evaluator: Callable,
        growth_exponent: float,
        growth_constant: float,
    ) -> "RadialProfile":
        """Wrap a vectorised evaluator; the declared bound is spot-checked."""
        profile = cls(growth_exponent, growth_constant, evaluator=evaluator)
        bound = profile.growth_constant * (1.0 + _VALIDATION_RADII) ** profile.growth_exponent
        vals = np.abs(pointwise(evaluator, _VALIDATION_RADII))
        if np.any(vals > bound * (1.0 + 1e-9)):
            worst = int(np.argmax(vals - bound))
            raise DomainError(
                f"declared growth bound violated at r = {_VALIDATION_RADII[worst]:g}: "
                f"|v| = {vals[worst]:g} > {bound[worst]:g}"
            )
        return profile

    @classmethod
    def from_samples(cls, radii: Sequence[float], values: Sequence[complex]) -> "RadialProfile":
        """Cubic interpolant through per-radius samples (continuity at r=0
        comes from the spline's extrapolation)."""
        from scipy.interpolate import CubicSpline  # slow import, needed only here

        r = np.asarray(radii, dtype=float)
        y = np.asarray(values)
        if r.ndim != 1 or r.size < 4:
            raise PreconditionError("need at least 4 strictly increasing radii")
        if np.any(np.diff(r) <= 0):
            raise PreconditionError("radii must be strictly increasing")
        spline = CubicSpline(r, y, extrapolate=True)
        magnitudes = np.abs(y)
        exponent = _fit_exponent_on_samples(r, magnitudes)
        if exponent is None:
            raise ClassificationError("sampled profile grows faster than the polynomial ladder")
        constant = float(np.max(magnitudes / (1.0 + r) ** exponent))
        return cls(float(exponent), max(constant * _GROWTH_HEADROOM, 1e-300), evaluator=spline)

    @classmethod
    def zero(cls) -> "RadialProfile":
        return cls.gaussian_terms(())

    # -- behaviour ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.evaluator is None and not self.terms

    def __call__(self, r):
        arr = np.asarray(r, dtype=float)
        if self.evaluator is not None:
            out = np.asarray(self.evaluator(arr))
        else:
            out = np.zeros(arr.shape, dtype=complex)
            for c, p, b in self.terms:
                term = c * arr**p
                out += term * np.exp(-b * arr * arr) if b else term
        if np.ndim(r) == 0:
            return out[()] if isinstance(out, np.ndarray) else out
        return out

    def conjugate(self) -> "RadialProfile":
        if self.evaluator is None:
            return RadialProfile.gaussian_terms([(c.conjugate(), p, b) for c, p, b in self.terms])
        inner = self.evaluator
        return RadialProfile(
            self.growth_exponent,
            self.growth_constant,
            evaluator=lambda r, _f=inner: np.conjugate(_f(r)),
        )


def _fit_exponent_on_samples(radii: np.ndarray, magnitudes: np.ndarray):
    """Smallest ladder exponent consistent with the measured growth rate.

    A finite grid cannot distinguish super-polynomial growth from a high
    enough power by pointwise domination alone, so membership is decided by
    the log-log slope d ln|v| / d ln r fitted on the outer half of the grid:
    slopes beyond the ladder top return None (numerically super-polynomial).
    Monomials r^q give the slope q exactly; decaying profiles give m = 0.
    """
    peak = float(np.max(magnitudes))
    if peak <= 0.0:
        return 0
    half = radii.size // 2
    r_out = radii[half:]
    m_out = np.maximum(magnitudes[half:], peak * 1e-12)
    if r_out.size < 2:
        return 0
    slope = float(np.polyfit(np.log(r_out), np.log(m_out), 1)[0])
    exponent = max(0, math.ceil(slope - 0.26))
    if exponent > _GROWTH_LADDER_MAX:
        return None
    return exponent


@dataclass(frozen=True)
class SymbolSpec:
    """Finite Fourier-radial expansion {j -> v_j} with a text label.

    Each mode is an integer index, stored as an int, and a RadialProfile,
    and no index is given twice; anything else is refused by a
    :class:`DomainError` naming the symbol and the index.  ``from_modes``
    drops zero profiles and sorts the modes; a symbol is radial exactly when
    its modes are contained in {j = 0}.
    """

    mode_items: tuple
    name: str = "symbol"

    def __post_init__(self):
        object.__setattr__(self, "mode_items", _checked_modes(self.mode_items, self.name))

    @classmethod
    def from_modes(cls, modes: Mapping[int, RadialProfile], name: str = "symbol") -> "SymbolSpec":
        if not isinstance(modes, Mapping):
            kind = f"a mapping of index to profile, got {type(modes).__name__}"
            raise DomainError(f"symbol {name!r}: modes must be {kind}")
        items = _checked_modes(modes.items(), name)
        return cls(tuple(sorted(item for item in items if not item[1].is_zero)), name)

    @property
    def mode_indices(self) -> tuple[int, ...]:
        return tuple(j for j, _ in self.mode_items)

    @property
    def is_radial(self) -> bool:
        return all(j == 0 for j, _ in self.mode_items)

    @property
    def max_mode(self) -> int:
        return max((abs(j) for j, _ in self.mode_items), default=0)

    def mode(self, j: int) -> RadialProfile:
        for jj, profile in self.mode_items:
            if jj == j:
                return profile
        return RadialProfile.zero()

    def conjugate(self) -> "SymbolSpec":
        """Complex conjugate symbol: mode j of conj(u) is conj(v_{-j})."""
        return SymbolSpec.from_modes(
            {-j: profile.conjugate() for j, profile in self.mode_items},
            name=f"conj({self.name})",
        )


def _checked_modes(items, name) -> tuple:
    """``items`` as (int index, RadialProfile) pairs, refused unless each is
    one and no index repeats."""
    checked = {}
    for item in items:
        try:
            j, profile = item
        except (TypeError, ValueError):
            pair = "an (index, profile) pair"
            raise DomainError(f"symbol {name!r}: mode {item!r} is not {pair}") from None
        j = number(f"symbol {name!r}: mode index", j, integer=True)
        where = f"symbol {name!r}: mode index {j!r}"
        if not isinstance(profile, RadialProfile):
            kind = type(profile).__name__
            raise DomainError(f"{where}: profile must be a RadialProfile, got {kind}")
        if j in checked:
            raise DomainError(f"{where} is given more than once")
        checked[j] = profile
    return tuple(checked.items())


def evaluate(spec: SymbolSpec, z: complex) -> complex:
    """Pointwise value sum_j v_j(|z|) e^{i j arg z}.

    At z = 0 the angle is undefined, so modes j != 0 must vanish there;
    otherwise a :class:`DomainError` is raised.
    """
    z = point("z", z)
    r = abs(z)
    if r == 0.0:
        total = 0j
        for j, profile in spec.mode_items:
            v0 = complex(profile(0.0))
            if j == 0:
                total += v0
            elif abs(v0) > 1e-12:
                raise DomainError(
                    f"symbol {spec.name!r}: mode j={j} does not vanish at z=0 "
                    "(angular factor undefined there)"
                )
        return total
    theta = cmath.phase(z)
    return sum(
        complex(profile(r)) * cmath.exp(1j * j * theta) for j, profile in spec.mode_items
    )


def sample_polar(spec: SymbolSpec, radii: Sequence[float], n_angles: int) -> np.ndarray:
    """Values of the symbol on the polar grid radii x uniform angles.

    Returns a complex array of shape (len(radii), n_angles) with angles
    theta_m = 2 pi m / n_angles.
    """
    r = np.asarray(radii, dtype=float)
    n_angles = number("n_angles", n_angles, minimum=1, integer=True)
    theta = 2.0 * math.pi * np.arange(n_angles) / n_angles
    out = np.zeros((r.size, n_angles), dtype=complex)
    for j, profile in spec.mode_items:
        out += np.outer(np.asarray(profile(r), dtype=complex), np.exp(1j * j * theta))
    return out


def decompose(
    radii: Sequence[float],
    samples: np.ndarray,
    j_max: int,
    *,
    drop_floor: float = DEFAULT_DROP_FLOOR,
) -> SymbolSpec:
    """Recover angular modes j in [-j_max, j_max] from polar-grid samples.

    ``samples[i, m]`` is the symbol at radius radii[i], angle 2 pi m / M.
    The angular DFT is exact for trigonometric polynomials of degree
    <= j_max provided M >= 2 j_max + 2 (enforced).  Modes whose magnitude
    stays below ``drop_floor`` across all radii are dropped; survivors are
    cubic interpolants in the radius, in a symbol named "decomposed".
    """
    j_max = number("j_max", j_max, minimum=1, integer=True)
    drop_floor = number("drop_floor", drop_floor, minimum=0.0)
    values = np.asarray(samples)
    r = np.asarray(radii, dtype=float)
    if values.ndim != 2 or values.shape[0] != r.size:
        raise PreconditionError(
            f"samples must have shape (len(radii), M); got {values.shape} for {r.size} radii"
        )
    m_angles = values.shape[1]
    required = 2 * j_max + 2
    if m_angles < required:
        raise PreconditionError(
            f"angular grid too coarse: M = {m_angles} < {required} = 2*j_max + 2 "
            f"needed to resolve modes up to |j| = {j_max}"
        )
    coefficients = np.fft.fft(values, axis=1) / m_angles
    modes: dict[int, RadialProfile] = {}
    for j in range(-j_max, j_max + 1):
        column = coefficients[:, j % m_angles]
        if float(np.max(np.abs(column))) < drop_floor:
            continue
        modes[j] = RadialProfile.from_samples(r, column)
    return SymbolSpec.from_modes(modes, name="decomposed")


def polar_l2_norm(radii: Sequence[float], samples: np.ndarray, s: float) -> float:
    """Discrete L^2(G_s dA) norm of polar-grid samples.

    Trapezoidal in the radius against the density r^(2s+1) e^{-r^2} / pi and
    exact (uniform) in the angle; used for round-trip residuals.
    """
    r = np.asarray(radii, dtype=float)
    values = np.asarray(samples)
    angular_mean = np.mean(np.abs(values) ** 2, axis=1)
    integrand = angular_mean * r ** (2.0 * number("s", s, minimum=0.0) + 1.0) * np.exp(-(r**2))
    return math.sqrt(max(2.0 * float(np.trapezoid(integrand, r)), 0.0))
