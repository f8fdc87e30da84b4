"""Synthetic instances: AR(1)-correlated Gaussian designs, sparse truths, GLM responses.

Each sample row follows a stationary first-order autoregression across
features: the first feature is eps_1 / sqrt(1 - omega^2) and each later
feature is omega * previous + eps_t with fresh standard normals, giving
the exact covariance Sigma_ij = omega^|i-j| / (1 - omega^2); the columns
are not rescaled, so every design is drawn from exactly this Sigma.  Knowing
Sigma in closed form lets the regularity constants (mu, L, tau) be
computed rather than estimated: Sigma^-1 is tridiagonal (Kac, Murdock &
Szego 1953), so `design_spectrum` finds the extreme eigenvalues of Sigma
exactly at every d from one scalar eigenvalue equation.

All generators are pure functions of their arguments, seed included; see
`rng` for the stream-splitting rule.  An instance has one dimension, the
design's d, which `generate_truth` takes as an argument.
"""

import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .objectives import LINEAR, LOGISTIC, sigmoid
from .rng import (
    STREAM_DESIGN,
    STREAM_NOISE,
    STREAM_TRUTH,
    row_generator,
    row_words,
    substream,
    usable_cpus,
)

# Bytes of the row-major block that `_draw_rows` draws the design's rows
# into; the block holds at least `DESIGN_BLOCK_MIN_ROWS` rows.
DESIGN_BLOCK_BYTES = 1 << 20
DESIGN_BLOCK_MIN_ROWS = 8
# Most threads that draw the design's rows: the most that have been timed.
DESIGN_THREADS_MAX = 2


@dataclass(frozen=True)
class DesignSpec:
    """Shape and correlation of the synthetic design matrix."""

    n: int
    d: int
    omega: float = 0.0

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be positive")
        if not 0.0 <= self.omega < 1.0:
            raise ValueError(f"omega must lie in [0, 1), got {self.omega}")


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
    """Fill X with the rows' standard normals, one `row_words` stream per row.

    Rows are drawn into a row-major block of about `DESIGN_BLOCK_BYTES`,
    which is copied into X and freed on return.  The block holds at least
    `DESIGN_BLOCK_MIN_ROWS` rows (6.4 MB at d = 1e5): the copy of a block
    of a few rows into the column-major X is a scattered write, which at
    d = 1e5 cost more than the draws themselves.

    The rows' seed words are hashed first, on this thread (32 bytes per
    row).  On k = `_draw_threads` threads, each owns one of k slices of
    the block and repeatedly takes the next slice-sized run of rows, draws
    it into its slice and copies it into X, so a thread on a slower CPU
    simply draws fewer runs.  This thread is one of the k; the others are
    `threading.Thread`s.  Every row is its own stream, so X's bytes do not
    depend on k or on which thread drew which rows.  A failure in any
    thread, or an interrupt while joining, stops the others at their next
    run; it is re-raised, the first thread's first, once every thread has
    been joined.
    """
    n, d = X.shape
    words = row_words(seed, STREAM_DESIGN, rows=n)
    block = np.empty((min(n, max(DESIGN_BLOCK_MIN_ROWS, DESIGN_BLOCK_BYTES // (8 * d))), d))
    k = _draw_threads(block.shape[0])
    step = block.shape[0] // k
    starts, taking = iter(range(0, n, step)), threading.Lock()
    errors = [None] * k
    failed = threading.Event()

    def draw(i):
        try:
            part = block[i * step:(i + 1) * step]
            while not failed.is_set():
                with taking:
                    start = next(starts, None)
                if start is None:
                    return
                run = part[:n - start]
                for row, row_seed in zip(run, words[start:start + run.shape[0]]):
                    row_generator(row_seed).standard_normal(out=row)
                X[start:start + run.shape[0]] = run
        except BaseException as exc:
            errors[i] = exc
            failed.set()

    helpers = [threading.Thread(target=draw, args=(i,)) for i in range(1, k)]
    try:
        for thread in helpers:
            thread.start()
        draw(0)
        for thread in helpers:
            thread.join()
    except BaseException:  # a thread that would not start, or an interrupt while joining
        failed.set()
        for thread in helpers:
            if thread.ident is not None:
                thread.join()
        raise
    for exc in errors:
        if exc is not None:
            raise exc


def _draw_threads(block_rows: int) -> int:
    """Threads that `_draw_rows` draws on.

    One per usable CPU, at most `DESIGN_THREADS_MAX` and ``block_rows``.
    A process started by `multiprocessing`, such as a ``--workers`` pool
    worker, draws on one: its parent already spreads the work over the
    CPUs.  The check reads `sys.modules`, so a process that never loaded
    `multiprocessing` does not load it here.

    Small designs take the same path.  At the desk shape, 691 x 1000, two
    threads buy nothing, but a row-count threshold would be a second path,
    chosen by size, that no benchmark workload times on its small side;
    and the `cli_run_desk` benchmark, which runs at that shape, read
    `setup_s` 16.9 % lower on a 2-vCPU host once the rows were drawn on
    two threads.
    """
    process = sys.modules.get("multiprocessing.process")
    if process is not None and process.parent_process() is not None:
        return 1
    return min(usable_cpus(), DESIGN_THREADS_MAX, block_rows)


def generate_design(spec: DesignSpec, seed: int) -> np.ndarray:
    """Draw the n x d design; one RNG substream per sample row.

    X is column-major, so the column recursion runs in place on contiguous
    columns and `ObjectiveModel` stores it without a copy.  The row streams
    come from `row_words`, whose per-row seeding costs a few microseconds
    next to the row's d normals.  Each row's normals are drawn into a
    row-major block and the block is copied into X, on up to
    `DESIGN_THREADS_MAX` threads (see `_draw_rows`); X's bytes are the
    same on any number of threads.  The recursion then runs in place on
    this thread.  So generation holds X plus about one block and 32 bytes
    of seed words per row, never a second n x d buffer.  The columns are not rescaled: X's
    population covariance is `ar1_covariance(d, omega)`, the Sigma that
    `compute_regularity` takes every constant from.
    """
    n, d = spec.n, spec.d
    X = np.empty((n, d), order="F")
    _draw_rows(X, seed)
    X[:, 0] /= np.sqrt(1.0 - spec.omega**2)
    for t in range(1, d):
        X[:, t] += spec.omega * X[:, t - 1]
    return X


def generate_truth(d: int, s_star: int, seed: int) -> np.ndarray:
    """Exactly s_star standard-normal entries of d on a uniformly random support; read-only.

    Raises ValueError unless d >= 1 and 0 <= s_star <= d.
    """
    if d < 1 or not 0 <= s_star <= d:
        raise ValueError(f"need d >= 1 and 0 <= s_star <= d, got d={d}, s_star={s_star}")
    theta = np.zeros(d)
    if s_star > 0:
        rng = substream(seed, STREAM_TRUTH)
        support = rng.choice(d, size=s_star, replace=False)
        theta[support] = rng.standard_normal(s_star)
    theta.setflags(write=False)
    return theta


def generate_responses(X: np.ndarray, theta_star, noise: NoiseSpec, seed: int) -> np.ndarray:
    """Linear: y = X theta* + sigma eps.  Logistic: y ~ Bernoulli(sigmoid(X theta*))."""
    u = X @ np.asarray(theta_star, dtype=float)
    rng = substream(seed, STREAM_NOISE)
    if noise.family == LINEAR:
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
