"""Toeplitz operators with polynomial-growth symbols on Fock-Sobolev spaces.

Numerical realisation of truncated Toeplitz matrices in the normalized
monomial basis, weighted Mellin transforms of radial profiles, Berezin
transforms, Fourier-radial symbol decomposition, and the functional-equation
criterion deciding when a symbol commuting with a nonconstant radial one
must itself be radial.
"""

from .errors import (
    AccuracyError,
    ClassificationError,
    ConfigurationError,
    DomainError,
    PreconditionError,
    ResourceError,
)
from .special_functions import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    log_gamma,
)
from .fock_space import (
    KernelValue,
    SobolevOrder,
    density,
    kernel_eval,
)
from .mellin import MellinValue, mellin_weighted
from .symbols import (
    RadialProfile,
    SymbolSpec,
    decompose,
    evaluate,
    polar_l2_norm,
    sample_polar,
)
from .operators import (
    TruncatedOperator,
    berezin,
    commutator,
    compose,
    matrix_to_csv,
    matrix_to_json,
    min_truncation_size,
    radial_eigenvalues,
    toeplitz_matrix,
    window_max_abs,
)
from .criterion import (
    CriterionReport,
    Verdict,
    commutator_cross_check,
    functional_equation_residuals,
    periodicity_probe,
    phi,
    psi,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "ClassificationError",
    "ConfigurationError",
    "DomainError",
    "PreconditionError",
    "ResourceError",
    "DEFAULT_QUADRATURE",
    "QuadratureSpec",
    "log_gamma",
    "KernelValue",
    "SobolevOrder",
    "density",
    "kernel_eval",
    "MellinValue",
    "mellin_weighted",
    "RadialProfile",
    "SymbolSpec",
    "decompose",
    "evaluate",
    "polar_l2_norm",
    "sample_polar",
    "TruncatedOperator",
    "berezin",
    "commutator",
    "compose",
    "matrix_to_csv",
    "matrix_to_json",
    "min_truncation_size",
    "radial_eigenvalues",
    "toeplitz_matrix",
    "window_max_abs",
    "CriterionReport",
    "Verdict",
    "commutator_cross_check",
    "functional_equation_residuals",
    "periodicity_probe",
    "phi",
    "psi",
    "__version__",
]
