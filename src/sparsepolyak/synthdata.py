"""Synthetic instances: AR(1)-correlated Gaussian designs, sparse truths, GLM responses.

Each sample row follows a stationary first-order autoregression across
features: the first feature is eps_1 / sqrt(1 - omega^2) and each later
feature is omega * previous + eps_t with fresh standard normals, giving
the exact covariance Sigma_ij = omega^|i-j| / (1 - omega^2).  Knowing
Sigma in closed form lets the regularity constants (mu, L, tau) be
computed rather than estimated: Sigma^-1 is tridiagonal (Kac, Murdock &
Szego 1953), so `design_spectrum` finds the extreme eigenvalues of Sigma
exactly at every d from one scalar eigenvalue equation.

All generators are pure functions of (spec, seed); see `rng` for the
stream-splitting rule.
"""

import math
from dataclasses import dataclass

import numpy as np

from .objectives import LINEAR, LOGISTIC, ParamVector, sigmoid
from .rng import STREAM_DESIGN, STREAM_NOISE, STREAM_TRUTH, substream


@dataclass(frozen=True)
class DesignSpec:
    """Shape and correlation of the synthetic design matrix."""

    n: int
    d: int
    omega: float = 0.0
    column_normalize: bool = False

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be positive")
        if not 0.0 <= self.omega < 1.0:
            raise ValueError(f"omega must lie in [0, 1), got {self.omega}")


@dataclass(frozen=True)
class TruthSpec:
    """Support size and magnitude law of the ground-truth coefficients."""

    d: int
    s_star: int
    magnitude_dist: str = "std_normal"

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be positive")
        if not 0 <= self.s_star <= self.d:
            raise ValueError(f"need 0 <= s_star <= d, got s_star={self.s_star}, d={self.d}")
        if self.magnitude_dist != "std_normal":
            raise ValueError(f"unsupported magnitude distribution {self.magnitude_dist!r}")


@dataclass(frozen=True)
class NoiseSpec:
    """Response family; sigma is the additive noise scale (linear only)."""

    family: str
    sigma: float | None = None

    def __post_init__(self):
        if self.family not in (LINEAR, LOGISTIC):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == LINEAR:
            if self.sigma is None or self.sigma <= 0:
                raise ValueError("linear noise requires sigma > 0")


@dataclass(frozen=True)
class RegularityParams:
    """Curvature constants (mu, L, tau) at sparsity level s, with derived bars.

    mu_bar = mu - 3 tau s and L_bar = L + 3 tau s are the effective strong
    convexity and smoothness over s-sparse differences; their ratio
    kappa_bar is defined only while mu_bar > 0.
    """

    mu: float
    L: float
    tau: float
    s: int

    def __post_init__(self):
        if not (self.L >= self.mu > 0):
            raise ValueError("need L >= mu > 0")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        if self.s < 1:
            raise ValueError("s must be >= 1")

    @property
    def mu_bar(self) -> float:
        return self.mu - 3.0 * self.tau * self.s

    @property
    def L_bar(self) -> float:
        return self.L + 3.0 * self.tau * self.s

    @property
    def theory_applicable(self) -> bool:
        return self.mu_bar > 0.0

    @property
    def kappa_bar(self) -> float | None:
        if not self.theory_applicable:
            return None
        return self.L_bar / self.mu_bar


def ar1_covariance(d: int, omega: float) -> np.ndarray:
    """Exact stationary covariance Sigma_ij = omega^|i-j| / (1 - omega^2)."""
    idx = np.arange(d)
    return omega ** np.abs(idx[:, None] - idx[None, :]) / (1.0 - omega**2)


def _kms_extreme(w: float, d: int, lo: float, hi: float) -> float:
    """1 / ((1 - w)^2 + 4 w sin^2(t/2)) at the root t of h in (lo, hi)."""
    def h(t):
        return math.sin((d + 1) * t) - 2.0 * w * math.sin(d * t) + w * w * math.sin((d - 1) * t)

    sign_hi = math.copysign(1.0, h(hi))
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if sign_hi * h(mid) >= 0.0 else (mid, hi)
    return 1.0 / ((1.0 - w) ** 2 + 4.0 * w * math.sin(0.5 * hi) ** 2)


def design_spectrum(omega: float, d: int) -> tuple[float, float]:
    """(lambda_min, lambda_max) of the AR(1) covariance, exact at every d.

    Sigma^-1 is tridiagonal: diagonal (1, 1 + omega^2, ..., 1 + omega^2, 1),
    off-diagonal -omega.  Its eigenvalues are (1 - w)^2 + 4 w sin^2(t/2) at
    the roots t in (0, pi) of h(t) = sin((d+1)t) - 2w sin(dt) + w^2 sin((d-1)t),
    eigenvector v_k = sin(kt) - w sin((k-1)t).  Comparison with the Toeplitz
    matrix (roots k pi/(d+1)) and the Neumann Laplacian (roots k pi/d) puts
    exactly one root in each bracket, with h changing sign across it:
    lambda_max has w = omega, t in (0, pi/(d+1)); lambda_min has w = -omega,
    t in (pi/(d+1), pi/d).  The bisection keeps the sign of h at the upper
    end, because h(0) = 0 is a trivial root for every w.  d = 1 is closed
    form (there pi/d is itself a root); at omega = 0 every t gives 1.
    """
    if d == 1:
        var = 1.0 / (1.0 - omega**2)
        return var, var
    return (_kms_extreme(-omega, d, math.pi / (d + 1), math.pi / d),
            _kms_extreme(omega, d, 0.0, math.pi / (d + 1)))


def generate_design(spec: DesignSpec, seed: int) -> np.ndarray:
    """Draw the n x d design; one RNG substream per sample row.

    X is column-major, so the column recursion writes contiguous columns
    and `Dataset` stores it without a copy.  With column_normalize, each
    column is rescaled so ||X_j|| / sqrt(n) = 1.
    """
    eps = np.empty((spec.n, spec.d))
    for i in range(spec.n):
        eps[i] = substream(seed, STREAM_DESIGN, i).standard_normal(spec.d)
    X = np.empty((spec.n, spec.d), order="F")
    X[:, 0] = eps[:, 0] / np.sqrt(1.0 - spec.omega**2)
    for t in range(1, spec.d):
        X[:, t] = spec.omega * X[:, t - 1] + eps[:, t]
    if spec.column_normalize:
        scale = np.linalg.norm(X, axis=0) / np.sqrt(spec.n)
        X = X / scale
    return X


def generate_truth(spec: TruthSpec, seed: int) -> ParamVector:
    """Exactly s_star standard-normal entries on a uniformly random support."""
    theta = np.zeros(spec.d)
    if spec.s_star > 0:
        rng = substream(seed, STREAM_TRUTH)
        support = rng.choice(spec.d, size=spec.s_star, replace=False)
        theta[support] = rng.standard_normal(spec.s_star)
    return ParamVector(theta)


def generate_responses(family: str, X: np.ndarray, theta_star, noise: NoiseSpec, seed: int) -> np.ndarray:
    """Linear: y = X theta* + sigma eps.  Logistic: y ~ Bernoulli(sigmoid(X theta*))."""
    if family != noise.family:
        raise ValueError(f"family {family!r} does not match noise spec {noise.family!r}")
    v = theta_star.values if isinstance(theta_star, ParamVector) else np.asarray(theta_star, dtype=float)
    if v.shape[0] != X.shape[1]:
        raise ValueError(f"truth has dimension {v.shape[0]}, design has {X.shape[1]} features")
    u = X @ v
    rng = substream(seed, STREAM_NOISE)
    if family == LINEAR:
        return u + noise.sigma * rng.standard_normal(X.shape[0])
    return (rng.random(X.shape[0]) < sigmoid(u)).astype(float)


def compute_regularity(spec: DesignSpec, s: int) -> RegularityParams:
    """Plug-in curvature constants from the exact design covariance.

    mu = sigma_min(Sigma) / 2, L = 2 sigma_max(Sigma), and
    tau = zeta(Sigma) log(d) / n with zeta = max_i Sigma_ii = 1/(1-omega^2).
    The universal constant multiplying tau is set to 1 and is documented as
    a plug-in choice; when it makes mu_bar <= 0 the result is flagged
    inapplicable (kappa_bar is None) rather than raising.
    """
    lmin, lmax = design_spectrum(spec.omega, spec.d)
    zeta = 1.0 / (1.0 - spec.omega**2)
    tau = zeta * np.log(spec.d) / spec.n
    return RegularityParams(mu=0.5 * lmin, L=2.0 * lmax, tau=float(tau), s=s)
