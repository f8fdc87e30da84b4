"""Sparse Polyak: adaptive step sizes for thresholded high-dimensional M-estimation.

The package solves sparsity-constrained GLM fitting by thresholded gradient
descent whose step size adapts to the objective gap over a support-restricted
gradient norm, keeping per-iteration progress independent of the ambient
dimension.  It ships both hard and reciprocal thresholding, exact synthetic
instance generators with known covariance, diagnostics that verify the
curvature assumptions and contraction behaviour empirically, and a CLI
harness that persists reproducible traces.
"""

__version__ = "0.1.0"

from .objectives import (
    LINEAR,
    LOGISTIC,
    ObjectiveModel,
    objective_value,
    target_value,
)
from .optimizer import (
    CLASSIC_POLYAK,
    FIXED,
    SPARSE_POLYAK,
    OptimizerError,
    RunConfig,
    RunStatus,
    RunTrace,
    StalledZeroGradientError,
    StepRule,
    classic_polyak_step,
    fixed_step_lhat,
    grad_ht_norm_sq,
    lhat_gamma,
    make_step_rule,
    run,
    run_batch,
    sparse_polyak_step,
    theoretical_floor,
)
from .synthdata import (
    DesignSpec,
    NoiseSpec,
    RegularityParams,
    ar1_covariance,
    compute_regularity,
    generate_design,
    generate_responses,
    generate_truth,
)
from .thresholding import (
    HT,
    RT,
    ConcavityEstimate,
    ThresholdSpec,
    empirical_relative_concavity,
    hard_threshold,
    reciprocal_threshold,
    relative_concavity_bound,
)

__all__ = [
    "__version__",
    "LINEAR", "LOGISTIC", "ObjectiveModel", "objective_value", "target_value",
    "CLASSIC_POLYAK", "FIXED", "SPARSE_POLYAK",
    "OptimizerError", "RunConfig", "RunStatus", "RunTrace",
    "StalledZeroGradientError", "StepRule",
    "classic_polyak_step", "fixed_step_lhat", "grad_ht_norm_sq", "lhat_gamma", "make_step_rule",
    "run", "run_batch", "sparse_polyak_step", "theoretical_floor",
    "DesignSpec", "NoiseSpec", "RegularityParams",
    "ar1_covariance", "compute_regularity", "generate_design",
    "generate_responses", "generate_truth",
    "HT", "RT", "ConcavityEstimate", "ThresholdSpec",
    "empirical_relative_concavity", "hard_threshold", "reciprocal_threshold",
    "relative_concavity_bound",
]
