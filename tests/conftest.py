"""Fixtures shared by several test modules."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparsepolyak


def _ar1_covariance(d: int, omega: float) -> np.ndarray:
    """Exact stationary covariance Sigma_ij = omega^|i-j| / (1 - omega^2)."""
    idx = np.arange(d)
    return omega ** np.abs(idx[:, None] - idx[None, :]) / (1.0 - omega**2)


@pytest.fixture
def ar1_covariance():
    """The dense d x d AR(1) Sigma of `generate_design`: the reference for `design_spectrum`."""
    return _ar1_covariance


def _fresh_python(code: str, env: dict | None = None) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports this package; fails on a nonzero exit.

    ``env`` entries are set in the child's environment, on top of this one's.
    """
    src = str(Path(sparsepolyak.__file__).resolve().parents[1])
    child = {**os.environ, **(env or {}),
             "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=child, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture
def fresh_python():
    """Run code in a fresh interpreter, so that modules and settings of this one do not count."""
    return _fresh_python
