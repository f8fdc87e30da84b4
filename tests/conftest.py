"""Fixtures shared by several test modules."""

import numpy as np
import pytest


def _ar1_covariance(d: int, omega: float) -> np.ndarray:
    """Exact stationary covariance Sigma_ij = omega^|i-j| / (1 - omega^2)."""
    idx = np.arange(d)
    return omega ** np.abs(idx[:, None] - idx[None, :]) / (1.0 - omega**2)


@pytest.fixture
def ar1_covariance():
    """The dense d x d AR(1) Sigma of `generate_design`: the reference for `design_spectrum`."""
    return _ar1_covariance
