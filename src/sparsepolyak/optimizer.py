"""Thresholded gradient descent with adaptive (Polyak-type) step sizes.

One iteration moves against the gradient and re-sparsifies:

    theta_{t+1} = Phi_s(theta_t - gamma_t grad f(theta_t))

The sparse Polyak rule sets

    gamma_t = max{f(theta_t) - f_hat, 0} / (5 ||HT_w(grad f(theta_t))||^2)

with the gradient norm restricted to its w largest entries (w = s or 2s);
restricting the denominator keeps steps dimension-independent, where the
classic rule gap/||grad||^2 shrinks as the ambient dimension grows.
||HT_w(grad)||^2 is computed once per iteration and serves both the step
rule and the trace.

`run_batch` is the one iteration loop.  It advances configs that share a
model in lock step, with one forward and one gradient matrix product per
iteration for all cells still running, and per-cell selection, step rule,
stop tests and trace rows; `run` is its one-cell case.  The forward
product multiplies only the design columns in the union of the running
cells' supports, falling back to the full product when that union is wide
(`objectives.GATHER_MAX_FRAC`); the gradient product spans all columns.

A fixed-step baseline gamma = 1/L_hat with
L_hat = lambda_max(Sigma) (3/4 + (2s + s*)/(10 s)) is included for
benchmarking.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .objectives import ObjectiveModel, ParamVector, value_and_gradient
from .synthdata import DesignSpec, RegularityParams, design_spectrum
from .thresholding import ThresholdSpec, hard_threshold

SPARSE_POLYAK = "sparse_polyak"
CLASSIC_POLYAK = "classic_polyak"
FIXED = "fixed"
_STEP_KINDS = (SPARSE_POLYAK, CLASSIC_POLYAK, FIXED)

WIDTH_S = "s"
WIDTH_2S = "2s"


class StalledZeroGradientError(RuntimeError):
    """Positive objective gap with an exactly zero step denominator.

    Signals that the target value is unattainable along the directions the
    step rule can see; the run terminates with a distinct status instead of
    silently using a zero step.
    """


class OptimizerError(RuntimeError):
    """Evaluation failure during a run, tagged with the iteration index."""


@dataclass(frozen=True)
class StepRule:
    """Step-size rule: sparse Polyak, classic Polyak, or fixed."""

    kind: str
    f_hat: float | None = None
    ht_width: str = WIDTH_S
    fixed_gamma: float | None = None

    def __post_init__(self):
        if self.kind not in _STEP_KINDS:
            raise ValueError(f"unknown step rule {self.kind!r}; expected one of {_STEP_KINDS}")
        if self.kind in (SPARSE_POLYAK, CLASSIC_POLYAK):
            if self.f_hat is None or not np.isfinite(self.f_hat):
                raise ValueError(f"{self.kind} requires a finite target value f_hat")
        if self.kind == SPARSE_POLYAK and self.ht_width not in (WIDTH_S, WIDTH_2S):
            raise ValueError(f"ht_width must be '{WIDTH_S}' or '{WIDTH_2S}'")
        if self.kind == FIXED:
            if self.fixed_gamma is None or self.fixed_gamma <= 0:
                raise ValueError("fixed rule requires fixed_gamma > 0")


class RunStatus(enum.Enum):
    MAX_ITERS = "max_iters"
    CONVERGED = "converged"
    STALLED_ZERO_GRADIENT = "stalled_zero_gradient"


@dataclass
class RunConfig:
    """Everything `run` needs: model, operator, step rule, start, budget."""

    model: ObjectiveModel
    operator: ThresholdSpec
    step_rule: StepRule
    theta0: ParamVector
    max_iters: int
    stop_tol: float | None = None
    theta_star: ParamVector | None = None

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.operator.s > self.model.dim:
            raise ValueError(f"operator sparsity {self.operator.s} exceeds dimension {self.model.dim}")
        if self.theta0.dim != self.model.dim:
            raise ValueError("theta0 dimension does not match the model")
        if self.theta0.nnz > self.operator.s:
            raise ValueError(f"initial point has {self.theta0.nnz} nonzeros, exceeding s = {self.operator.s}")
        if self.stop_tol is not None and self.stop_tol < 0:
            raise ValueError("stop_tol must be nonnegative")

    @classmethod
    def zero_start(cls, model: ObjectiveModel, operator: ThresholdSpec, step_rule: StepRule,
                   max_iters: int, theta_star: ParamVector | None = None,
                   stop_tol: float | None = None) -> "RunConfig":
        """A run started from the zero vector, as every harness cell is."""
        return cls(model=model, operator=operator, step_rule=step_rule, max_iters=max_iters,
                   theta0=ParamVector(np.zeros(model.dim)), stop_tol=stop_tol, theta_star=theta_star)

    def resolved_stop_tol(self) -> float | None:
        """Default: 1e-12 relative to |f_hat| + 1; None when f_hat is unknown."""
        if self.stop_tol is not None:
            return self.stop_tol
        if self.step_rule.f_hat is None:
            return None
        return 1e-12 * (abs(self.step_rule.f_hat) + 1.0)


@dataclass
class RunTrace:
    """Per-iteration record of a run, including the starting point."""

    iters: np.ndarray
    f_value: np.ndarray
    step_size: np.ndarray
    grad_ht_norm_sq: np.ndarray
    error_sq: np.ndarray | None
    support_size: np.ndarray
    status: RunStatus
    final_theta: ParamVector
    iterates: list[np.ndarray] | None = None
    pre_threshold: list[np.ndarray] | None = None

    def __len__(self):
        return self.iters.size


def grad_ht_norm_sq(grad: np.ndarray, ht_width: int) -> float:
    """Squared norm of the top-``ht_width`` gradient entries, ||HT_w(grad)||^2."""
    grad = np.asarray(grad, dtype=float)
    if grad.size < ht_width:
        raise ValueError(f"gradient has {grad.size} entries, fewer than ht_width = {ht_width}")
    g = hard_threshold(grad, ht_width)
    return float(np.dot(g, g))


def _polyak_step(gap: float, denom: float, stalled: str) -> float:
    """gap / denom, 0 for a nonpositive gap; a zero denominator stalls."""
    if gap <= 0.0:
        return 0.0
    if denom == 0.0:
        raise StalledZeroGradientError(f"positive objective gap with {stalled}")
    return gap / denom


def sparse_polyak_step(f_val: float, f_hat: float, ht_norm_sq: float) -> float:
    """Objective gap over 5x the squared top-w gradient norm (`grad_ht_norm_sq`).

    Returns 0 when the gap is nonpositive.  Raises
    StalledZeroGradientError when the gap is positive but the restricted
    gradient vanishes.
    """
    return _polyak_step(f_val - f_hat, 5.0 * ht_norm_sq, "zero thresholded gradient")


def classic_polyak_step(f_val: float, f_hat: float, grad: np.ndarray) -> float:
    """Standard Polyak rule gap / ||grad||^2 (no restriction, no factor 5)."""
    grad = np.asarray(grad, dtype=float)
    return _polyak_step(f_val - f_hat, float(np.dot(grad, grad)), "zero gradient")


def lhat_gamma(lambda_max: float, s: int, s_star: int) -> float:
    """Fixed step 1 / L_hat with L_hat = lambda_max (3/4 + (2s + s*)/(10 s))."""
    if lambda_max <= 0.0:
        raise ValueError("lambda_max must be positive")
    if not 1 <= s_star <= s:
        raise ValueError(f"need 1 <= s_star <= s, got s_star={s_star}, s={s}")
    lhat = lambda_max * (0.75 + (2.0 * s + s_star) / (10.0 * s))
    return 1.0 / lhat


def fixed_step_lhat(design: DesignSpec, s: int, s_star: int) -> float:
    """Fixed step computed from the design's exact covariance spectrum."""
    _, lam_max = design_spectrum(design.omega, design.d)
    return lhat_gamma(lam_max, s, s_star)


def theoretical_floor(regularity: RegularityParams, grad_at_truth_ht_norm: float) -> float:
    """Squared radius 36 ||HT_s(grad f(theta_hat))||^2 / mu_bar^2.

    Below this radius the contraction guarantee no longer applies; iterates
    are only guaranteed to remain confined near it.
    """
    if not regularity.theory_applicable:
        raise ValueError("mu_bar <= 0: curvature constants do not apply at this sparsity")
    return 36.0 * grad_at_truth_ht_norm**2 / regularity.mu_bar**2


def _step_width(rule: StepRule, operator: ThresholdSpec, dim: int) -> int:
    w = operator.s if rule.ht_width == WIDTH_S else 2 * operator.s
    return min(w, dim)


class _Cell:
    """One config's state in the lock-step loop: its rule, stop tests and trace rows."""

    def __init__(self, config: RunConfig, keep_iterates: bool):
        self.config = config
        self.truth = None if config.theta_star is None else config.theta_star.values
        self.stop_tol = config.resolved_stop_tol()
        self.width = _step_width(config.step_rule, config.operator, config.model.dim)
        self.rows = []  # (t, f, gamma, ||HT_w(grad)||^2, squared error, support size)
        self.iterates = [config.theta0.values.copy()] if keep_iterates else None
        self.pre_threshold = [] if keep_iterates else None
        self.status = None
        self.final_theta = None

    def step(self, t: int, theta: np.ndarray, f_t: float, g_t: np.ndarray) -> np.ndarray | None:
        """Record row t at theta; return the next iterate, or None when the cell stops at t."""
        op, rule = self.config.operator, self.config.step_rule
        if not (np.isfinite(f_t) and np.all(np.isfinite(g_t))):
            raise OptimizerError(f"evaluation failed at iteration {t} (operator {op.kind}, "
                                 f"s = {op.s}): non-finite objective or gradient")

        ht_norm_sq = grad_ht_norm_sq(g_t, self.width)

        stalled = False
        try:
            if rule.kind == SPARSE_POLYAK:
                gamma = sparse_polyak_step(f_t, rule.f_hat, ht_norm_sq)
            elif rule.kind == CLASSIC_POLYAK:
                gamma = classic_polyak_step(f_t, rule.f_hat, g_t)
            else:
                gamma = rule.fixed_gamma
        except StalledZeroGradientError:
            gamma = 0.0
            stalled = True

        err_sq = None
        if self.truth is not None:
            diff = theta - self.truth
            err_sq = float(np.dot(diff, diff))
        self.rows.append((t, f_t, gamma, ht_norm_sq, err_sq, int(np.count_nonzero(theta))))

        if stalled:
            self.status = RunStatus.STALLED_ZERO_GRADIENT
        elif rule.f_hat is not None and self.stop_tol is not None and f_t - rule.f_hat <= self.stop_tol:
            self.status = RunStatus.CONVERGED
        elif t == self.config.max_iters:
            self.status = RunStatus.MAX_ITERS
        else:
            z = theta - gamma * g_t
            nxt = op.apply(z)
            if self.iterates is not None:
                self.pre_threshold.append(z)
                self.iterates.append(nxt)
            return nxt
        self.final_theta = ParamVector(theta)
        return None

    def trace(self) -> RunTrace:
        t, f, gamma, ht_norm_sq, err_sq, nnz = zip(*self.rows)
        return RunTrace(
            iters=np.array(t, dtype=int),
            f_value=np.array(f),
            step_size=np.array(gamma),
            grad_ht_norm_sq=np.array(ht_norm_sq),
            error_sq=None if self.truth is None else np.array(err_sq),
            support_size=np.array(nnz, dtype=int),
            status=self.status,
            final_theta=self.final_theta,
            iterates=self.iterates,
            pre_threshold=self.pre_threshold,
        )


def run_batch(configs: list[RunConfig], keep_iterates: bool = False) -> list[RunTrace]:
    """Run configs that share one model in lock step; one trace per config, in order.

    The iterates of the cells still running form a B x d array, so each
    iteration makes one forward product (on the union of their supports)
    and one gradient matrix product for all of them.  Selection, the step
    rule, the stop tests and the trace rows are per cell, as in `run`; a
    cell leaves the batch when it stops.  Raises
    OptimizerError, naming the iteration and the cell, on a non-finite
    evaluation.
    """
    if not configs:
        return []
    model = configs[0].model
    if any(c.model is not model for c in configs):
        raise ValueError("run_batch needs configs that share one ObjectiveModel")
    cells = [_Cell(c, keep_iterates) for c in configs]
    active = cells
    Theta = np.array([c.theta0.values for c in configs])
    t = 0
    while active:
        try:
            # overflow shows as a non-finite value, which `_Cell.step` reports
            with np.errstate(over="ignore", invalid="ignore"):
                F, G = value_and_gradient(model, Theta)
        except Exception as exc:
            raise OptimizerError(f"evaluation failed at iteration {t}: {exc}") from exc
        keep = []
        for j, cell in enumerate(active):
            nxt = cell.step(t, Theta[j], F[j], G[j])
            if nxt is not None:
                Theta[j] = nxt
                keep.append(j)
        if len(keep) < len(active):
            active = [active[j] for j in keep]
            Theta = Theta[keep]
        t += 1
    return [cell.trace() for cell in cells]


def run(config: RunConfig, keep_iterates: bool = False) -> RunTrace:
    """Execute the thresholded descent loop and record every iteration.

    The trace row at t describes theta_t before the t-th update; the loop
    performs at most max_iters updates.  Runs stop early when the objective
    gap falls to the stop tolerance (CONVERGED) or the step rule stalls
    (STALLED_ZERO_GRADIENT); a stalled row records step size 0.

    With keep_iterates, every iterate and every pre-threshold gradient step
    is retained for invariant checks.  This is the one-cell case of
    `run_batch`, whose products on a one-row batch have the bits of the
    vector products: X[:, S] theta[S] on the iterate's support S, and X' r.
    """
    return run_batch([config], keep_iterates)[0]
