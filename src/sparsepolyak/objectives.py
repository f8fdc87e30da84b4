"""GLM objectives: squared-error and logistic losses with a shared cumulant form.

The loss of a parameter vector theta on data (X, y) is the 1/n-averaged

    f(theta) = (1/n) sum_i [ psi(x_i' theta) - y_i x_i' theta ]

up to a theta-independent constant, where psi is the family's cumulant
function.  For the linear family we evaluate the equivalent squared-error
form f(theta) = ||y - X theta||^2 / (2n) instead; the two differ by
||y||^2 / (2n) only, so target values used in step-size gaps must come
from `target_value` (same form) and never be mixed across forms.
"""

from dataclasses import dataclass

import numpy as np

LINEAR = "linear"
LOGISTIC = "logistic"
_FAMILIES = (LINEAR, LOGISTIC)


def sigmoid(t):
    """Overflow-safe logistic function 1 / (1 + exp(-t))."""
    t = np.asarray(t, dtype=float)
    return 0.5 * (1.0 + np.tanh(0.5 * t))


def cumulant(family: str, t):
    """Cumulant value and derivative ``(psi(t), psi'(t))``, vectorized.

    linear:   psi(t) = t^2 / 2,        psi'(t) = t
    logistic: psi(t) = log(1 + e^t),   psi'(t) = sigmoid(t)

    The logistic value is computed as logaddexp(0, t), which is exact in
    the saturated regime (e.g. psi(800) = 800 to machine precision).
    """
    t = np.asarray(t, dtype=float)
    if family == LINEAR:
        val, der = 0.5 * t * t, t.copy()
    elif family == LOGISTIC:
        val, der = np.logaddexp(0.0, t), sigmoid(t)
    else:
        raise ValueError(f"unknown family {family!r}; expected one of {_FAMILIES}")
    if t.ndim == 0:
        return float(val), float(der)
    return val, der


@dataclass(frozen=True)
class Dataset:
    """Design matrix (n samples x d features) and length-n response vector."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("X must be a nonempty n x d matrix")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError(f"y must have length n = {X.shape[0]}, got shape {y.shape}")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("dataset entries must be finite")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class ObjectiveModel:
    """A GLM family bound to a dataset."""

    family: str
    data: Dataset

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {_FAMILIES}")
        if self.family == LOGISTIC:
            y = self.data.y
            if not np.all((y == 0.0) | (y == 1.0)):
                raise ValueError("logistic responses must be in {0, 1}")

    @property
    def dim(self) -> int:
        return self.data.d


class ParamVector:
    """Dense coefficient vector with a cached support set."""

    __slots__ = ("values", "_support")

    def __init__(self, values):
        v = np.array(values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("parameter vector must be a nonempty 1-d vector")
        v.setflags(write=False)
        self.values = v
        self._support = None

    @property
    def support(self) -> np.ndarray:
        if self._support is None:
            self._support = np.flatnonzero(self.values)
        return self._support

    @property
    def nnz(self) -> int:
        return self.support.size

    @property
    def dim(self) -> int:
        return self.values.size

    def __repr__(self):
        return f"ParamVector(dim={self.dim}, nnz={self.nnz})"


def _as_params(model: ObjectiveModel, theta) -> np.ndarray:
    """A ParamVector, a 1-d vector or a B x d batch of row vectors, checked against the model."""
    v = theta.values if isinstance(theta, ParamVector) else np.asarray(theta, dtype=float)
    if v.ndim not in (1, 2):
        raise ValueError("parameter must be a 1-d vector or a B x d batch")
    if v.shape[-1] != model.dim:
        raise ValueError(f"parameter has dimension {v.shape[-1]}, expected {model.dim}")
    return v


def _loss_and_residual(model: ObjectiveModel, theta):
    """Average loss (squared-error form if linear) and residual psi'(X theta) - y.

    theta is a vector, giving a float and an n-vector, or a B x d batch,
    giving B losses and a B x n residual.  The batch is laid out by rows
    and each loss is reduced over its own contiguous row, so a one-row
    batch has the bits of the vector call.
    """
    v = _as_params(model, theta)
    X, y, n = model.data.X, model.data.y, model.data.n
    U = v @ X.T
    if model.family == LINEAR:
        R = U - y
        f = 0.5 * np.dot(R, R) / n if R.ndim == 1 else np.array([0.5 * np.dot(r, r) / n for r in R])
    else:
        f = np.mean(np.logaddexp(0.0, U) - y * U, axis=-1)
        R = sigmoid(U) - y
    return (float(f) if v.ndim == 1 else f), R


def value_and_gradient(model: ObjectiveModel, theta):
    """Average loss and its gradient (1/n) X' (psi'(X theta) - y).

    For a B x d batch: B losses and the B x d gradient rows, from one
    forward and one gradient matrix product.
    """
    f, R = _loss_and_residual(model, theta)
    return f, R @ model.data.X / model.data.n


def objective_value(model: ObjectiveModel, theta):
    """Average loss at theta (or at each batch row), without the gradient product."""
    return _loss_and_residual(model, theta)[0]


def gradient(model: ObjectiveModel, theta) -> np.ndarray:
    """Gradient at theta; the gradient half of `value_and_gradient`."""
    return value_and_gradient(model, theta)[1]


def target_value(model: ObjectiveModel, theta_star) -> float:
    """Loss at a reference parameter, in the same form as `objective_value`."""
    return objective_value(model, theta_star)


def bregman_batch(model: ObjectiveModel, Theta1: np.ndarray, Theta2: np.ndarray) -> np.ndarray:
    """Bregman divergences f(t1) - f(t2) - <grad f(t2), t1 - t2>, row-paired.

    The response terms are linear in theta and cancel, so this reduces to
    the cumulant's own divergence averaged over samples; it is nonnegative
    up to rounding for both (convex) families.
    """
    Theta1 = np.asarray(Theta1, dtype=float)
    Theta2 = np.asarray(Theta2, dtype=float)
    if Theta1.shape != Theta2.shape or Theta1.ndim != 2 or Theta1.shape[1] != model.dim:
        raise ValueError("batches must be equal-shape B x d")
    X = model.data.X
    U1 = X @ Theta1.T
    U2 = X @ Theta2.T
    if model.family == LINEAR:
        D = U1 - U2
        return 0.5 * np.einsum("ij,ij->j", D, D) / model.data.n
    vals = np.logaddexp(0.0, U1) - np.logaddexp(0.0, U2) - sigmoid(U2) * (U1 - U2)
    return np.mean(vals, axis=0)
