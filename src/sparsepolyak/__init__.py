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
