"""Cardinality sketches with bias-free estimation and set-overlap ML.

The sketch keeps one byte per register (m = 2^p registers, values 0..q+1)
and supports insertion of 64-bit hashes, lossless merging, and compact
serialization.  Estimators range from the classic raw/linear-counting
composites to a corrected estimator that needs no empirical tuning, a
maximum-likelihood estimator, and a two-sketch joint ML method for
intersection and difference cardinalities.  A seeded Monte-Carlo harness
and a CLI reproduce the error studies the estimators are known for.
"""

from .classic import (
    ALPHA_INF,
    large_range_correction,
    linear_counting_estimate,
    original_estimate,
    raw_estimate,
)
from .errors import (
    ConfigMismatchError,
    DegenerateHistogramError,
    DomainError,
    FormatError,
    HllError,
    NoConvergenceError,
    OutOfDomainError,
    RangeError,
    UnsupportedConfigError,
    ZeroRegistersExhaustedError,
)
from .improved import improved_estimate, sigma, tau, zeta
from .joint import (
    JointEstimate,
    inclusion_exclusion_estimate,
    joint_gradient,
    joint_log_likelihood,
    joint_ml_estimate,
    joint_statistic,
)
from .ml import Bracket, ml_bracket, ml_estimate, ml_root_function
from .sim import (
    ErrorReport,
    JointErrorRow,
    RngSeed,
    run_error_experiment,
    run_joint_experiment,
    sample_joint_pair,
    sample_sketch,
)
from .sketch import Sketch, SketchConfig

__version__ = "0.1.0"

__all__ = [
    "ALPHA_INF",
    "Bracket",
    "ConfigMismatchError",
    "DegenerateHistogramError",
    "DomainError",
    "ErrorReport",
    "FormatError",
    "HllError",
    "JointErrorRow",
    "JointEstimate",
    "NoConvergenceError",
    "OutOfDomainError",
    "RangeError",
    "RngSeed",
    "Sketch",
    "SketchConfig",
    "UnsupportedConfigError",
    "ZeroRegistersExhaustedError",
    "improved_estimate",
    "inclusion_exclusion_estimate",
    "joint_gradient",
    "joint_log_likelihood",
    "joint_ml_estimate",
    "joint_statistic",
    "large_range_correction",
    "linear_counting_estimate",
    "ml_bracket",
    "ml_estimate",
    "ml_root_function",
    "original_estimate",
    "raw_estimate",
    "run_error_experiment",
    "run_joint_experiment",
    "sample_joint_pair",
    "sample_sketch",
    "sigma",
    "tau",
    "zeta",
]
