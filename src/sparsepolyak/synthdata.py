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

from .objectives import LINEAR, LOGISTIC, sigmoid
from .rng import STREAM_DESIGN, STREAM_NOISE, STREAM_TRUTH, substream, substreams

# Bytes of the row-major block that `generate_design` draws rows into.
DESIGN_BLOCK_BYTES = 1 << 20


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


def _draw_rows(X: np.ndarray, seed: int) -> None:
    """Fill X with the rows' standard normals, one `substreams` stream per row.

    Rows are drawn into a row-major block of about `DESIGN_BLOCK_BYTES`,
    which is copied into X and freed on return.
    """
    n, d = X.shape
    block = np.empty((min(n, max(1, DESIGN_BLOCK_BYTES // (8 * d))), d))
    rows = substreams(seed, STREAM_DESIGN)
    for start in range(0, n, block.shape[0]):
        part = block[:n - start]
        for row in part:
            next(rows).standard_normal(out=row)
        X[start:start + part.shape[0]] = part


def _column_norms(X: np.ndarray) -> np.ndarray:
    """||X_j|| for each column of a column-major X, bit for bit np.linalg.norm(X, axis=0).

    The squares are formed a column block of about `DESIGN_BLOCK_BYTES` at a
    time and reduced along the contiguous columns, the same pairwise sum.
    """
    n, d = X.shape
    width = min(d, max(1, DESIGN_BLOCK_BYTES // (8 * n)))
    sq = np.empty((n, width), order="F")
    norms = np.empty(d)
    for start in range(0, d, width):
        cols = X[:, start:start + width]
        part = sq[:, :cols.shape[1]]
        np.multiply(cols, cols, out=part)
        np.add.reduce(part, axis=0, out=norms[start:start + cols.shape[1]])
    return np.sqrt(norms, out=norms)


def generate_design(spec: DesignSpec, seed: int) -> np.ndarray:
    """Draw the n x d design; one RNG substream per sample row.

    X is column-major, so the column recursion runs in place on contiguous
    columns and `Dataset` stores it without a copy.  The row streams come
    from `substreams`, whose per-row seeding costs a few microseconds next
    to the row's d normals.  Each row's normals are drawn into a row-major
    block of about `DESIGN_BLOCK_BYTES` and the block is copied into X; the
    recursion runs in place.  With column_normalize each column is rescaled
    in place so ||X_j|| / sqrt(n) = 1, its norm taken a column block at a
    time.  So generation holds X plus about one block, never a second n x d
    buffer.
    """
    n, d = spec.n, spec.d
    X = np.empty((n, d), order="F")
    _draw_rows(X, seed)
    X[:, 0] /= np.sqrt(1.0 - spec.omega**2)
    for t in range(1, d):
        X[:, t] += spec.omega * X[:, t - 1]
    if spec.column_normalize:
        X /= _column_norms(X) / np.sqrt(n)
    return X


def generate_truth(spec: TruthSpec, seed: int) -> np.ndarray:
    """Exactly s_star standard-normal entries on a uniformly random support; read-only."""
    theta = np.zeros(spec.d)
    if spec.s_star > 0:
        rng = substream(seed, STREAM_TRUTH)
        support = rng.choice(spec.d, size=spec.s_star, replace=False)
        theta[support] = rng.standard_normal(spec.s_star)
    theta.setflags(write=False)
    return theta


def generate_responses(family: str, X: np.ndarray, theta_star, noise: NoiseSpec, seed: int) -> np.ndarray:
    """Linear: y = X theta* + sigma eps.  Logistic: y ~ Bernoulli(sigmoid(X theta*))."""
    if family != noise.family:
        raise ValueError(f"family {family!r} does not match noise spec {noise.family!r}")
    v = np.asarray(theta_star, dtype=float)
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
