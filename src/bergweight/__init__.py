"""Numerics for radial weights on the unit disc and weighted Bergman norms.

The package computes weight tails and moments, diagnoses membership in the
standard doubling classes from sampled ratio curves, applies the
weight-induced fractional derivative to truncated Taylor series, builds
smooth polynomial block bases, evaluates Hardy/Bergman/block norms, and
drives desk-scale experiments that probe the norm-equivalence results these
objects satisfy.
"""

from .errors import ConfigError, DomainError, QuadratureError, ResourceError
from .weights import (
    ClassReport,
    ExponentialWeight,
    LogWeight,
    RadialWeight,
    StandardWeight,
    TabulatedWeight,
    classify,
    parse_weight_spec,
    scaled_weight,
)
from .series import (
    TaylorSeries,
    evaluate_circle,
    frac_deriv_beta,
    frac_deriv_mu,
    hadamard,
    multiplier_transform,
    parse_series_spec,
)
from .cesaro import CesaroBasis, SmoothCutoff, block, build_basis, cutoff_seminorm, make_cutoff
from .norms import (
    bergman_norm,
    block_norm,
    block_sum_compare,
    hardy_norm,
    integral_mean,
)
from .verify import (
    ExperimentReport,
    default_family,
    equivalence_sweep,
    integral_means_check,
    lp_ratio,
    monomial_necessity_curve,
    norm_equivalence_check,
    run_experiment,
    suma_check,
)

__version__ = "0.1.0"

__all__ = [
    "ClassReport",
    "CesaroBasis",
    "ConfigError",
    "DomainError",
    "ExperimentReport",
    "ExponentialWeight",
    "LogWeight",
    "QuadratureError",
    "RadialWeight",
    "ResourceError",
    "SmoothCutoff",
    "StandardWeight",
    "TabulatedWeight",
    "TaylorSeries",
    "bergman_norm",
    "block",
    "block_norm",
    "block_sum_compare",
    "build_basis",
    "classify",
    "cutoff_seminorm",
    "default_family",
    "equivalence_sweep",
    "evaluate_circle",
    "frac_deriv_beta",
    "frac_deriv_mu",
    "hadamard",
    "hardy_norm",
    "integral_mean",
    "integral_means_check",
    "lp_ratio",
    "make_cutoff",
    "monomial_necessity_curve",
    "multiplier_transform",
    "norm_equivalence_check",
    "parse_series_spec",
    "parse_weight_spec",
    "run_experiment",
    "scaled_weight",
    "suma_check",
    "__version__",
]
