"""Thresholded gradient descent with adaptive (Polyak-type) step sizes.

One iteration moves against the gradient and re-sparsifies:

    theta_{t+1} = Phi_s(theta_t - gamma_t grad f(theta_t))

The sparse Polyak rule sets

    gamma_t = max{f(theta_t) - f_hat, 0} / (5 ||HT_w(grad f(theta_t))||^2)

with the gradient norm restricted to its w largest entries (w = s or 2s);
restricting the denominator keeps steps dimension-independent, where the
classic rule gap/||grad||^2 shrinks as the ambient dimension grows.
||HT_w(grad)||^2 is the sum of the w largest squared entries, from one
partition; it is computed once per iteration and serves the step rule,
the trace and the finiteness check.  So an iteration makes one top-s
selection, in the operator.  A NaN or inf anywhere in the gradient, or
an entry whose square overflows, makes that norm NaN or inf (partition
puts NaN last, among the w largest), so a cell checks f and the norm
rather than every gradient entry.  A run's evaluations and per-cell
steps run under one `np.errstate` that silences overflow and
invalid-value warnings; the check reports them, and a non-finite step
size (a positive gap over a subnormal denominator, which would put
inf * 0 = NaN into z), as an `OptimizerError` naming the iteration and
the cell.

Each cell carries the support of its iterate and hands the operator the
gradient step, `ThresholdSpec.step` (see `thresholding`), which writes
the next iterate into the iterate's row of the batch in place and
returns its support.  Late in a run the support rarely moves, and a step
the carried support certifies writes only the s new values, without
forming the d entries of z or partitioning them.  A batch lends one
scratch d-vector to each cell in turn, for the squared gradient, then
theta - theta*, then the operator's |g|.  The trace's support size is the
carried support's length.

Parameters are float arrays: a start point, a truth and a final
estimate are length-d vectors.  Every run has a truth, and every trace
row its squared error.  `run_batch` is the one iteration loop:
it moves the iterates of configs that share a model as the rows of a
B x d array, with one evaluation per iteration for all cells still
running and per-cell selection, step rule, stop tests and trace rows.
`run` is its one-cell case.  A trace keeps no iterate but the last; a
one-cell run replays bit for bit from its config and step sizes.

A fixed-step baseline gamma = 1/L_hat with
L_hat = lambda_max(Sigma) (3/4 + (2s + s*)/(10 s)) is included for
benchmarking.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .objectives import LOGISTIC, GramRows, ObjectiveModel, support_union, value_and_gradient
from .synthdata import DesignSpec, RegularityParams, design_spectrum
from .thresholding import ThresholdSpec

SPARSE_POLYAK = "sparse_polyak"
CLASSIC_POLYAK = "classic_polyak"
FIXED = "fixed"
_STEP_KINDS = (SPARSE_POLYAK, CLASSIC_POLYAK, FIXED)

WIDTH_S = "s"
WIDTH_2S = "2s"


def default_ht_width(family: str) -> str:
    """Step-rule restriction width: 2s for logistic-type objectives, s otherwise."""
    return WIDTH_2S if family == LOGISTIC else WIDTH_S


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
        if self.ht_width not in (WIDTH_S, WIDTH_2S):
            raise ValueError(f"ht_width must be '{WIDTH_S}' or '{WIDTH_2S}'")
        if self.kind == FIXED:
            if self.fixed_gamma is None or not 0 < self.fixed_gamma < math.inf:
                raise ValueError("fixed rule requires a finite fixed_gamma > 0")


class RunStatus(enum.Enum):
    MAX_ITERS = "max_iters"
    CONVERGED = "converged"
    STALLED_ZERO_GRADIENT = "stalled_zero_gradient"


@dataclass(frozen=True)
class RunConfig:
    """Everything `run` needs: model, operator, step rule, budget, truth, start; vectors have length d.

    The truth theta_star is required: every trace row records the squared
    error to it.  theta0 defaults to the zero vector.  A run with a target
    f_hat stops once f - f_hat <= 1e-12 (|f_hat| + 1).  Frozen, so the
    checks hold for its life: derive a changed config with
    `dataclasses.replace`, which checks it again.
    """

    model: ObjectiveModel
    operator: ThresholdSpec
    step_rule: StepRule
    max_iters: int
    theta_star: np.ndarray
    theta0: np.ndarray | None = None

    def __post_init__(self):
        d = self.model.d
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.operator.s > d:
            raise ValueError(f"operator sparsity {self.operator.s} exceeds dimension {d}")
        theta0 = np.zeros(d) if self.theta0 is None else np.asarray(self.theta0, dtype=float)
        object.__setattr__(self, "theta0", theta0)
        object.__setattr__(self, "theta_star", np.asarray(self.theta_star, dtype=float))
        for name, v in (("theta0", self.theta0), ("theta_star", self.theta_star)):
            if v.shape != (d,):
                raise ValueError(f"{name} has shape {v.shape}, expected ({d},)")
        nnz = np.count_nonzero(self.theta0)
        if nnz > self.operator.s:
            raise ValueError(f"initial point has {nnz} nonzeros, exceeding s = {self.operator.s}")


@dataclass
class RunTrace:
    """Per-iteration record of a run, including the starting point; row t is iteration t.

    A trace keeps the rows and the last iterate, not the iterates: a
    one-cell run replays bit for bit from its config and ``step_size``
    (see `diagnostics.decomposition_margins`).
    """

    f_value: np.ndarray
    step_size: np.ndarray
    grad_ht_norm_sq: np.ndarray
    error_sq: np.ndarray
    support_size: np.ndarray
    status: RunStatus
    final_theta: np.ndarray

    def __len__(self):
        return self.f_value.size


def grad_ht_norm_sq(grad: np.ndarray, ht_width: int, out: np.ndarray | None = None) -> float:
    """Squared norm of the top-``ht_width`` gradient entries, ||HT_w(grad)||^2.

    The sum of the ``ht_width`` largest entries of grad * grad; entries
    tied at the boundary have equal squares, so which of them HT keeps
    does not change the value.  ``out``, a float array of grad's shape,
    receives the squares in place of a new one.
    """
    grad = np.asarray(grad, dtype=float)
    if grad.size < ht_width:
        raise ValueError(f"gradient has {grad.size} entries, fewer than ht_width = {ht_width}")
    k = grad.size - ht_width
    sq = np.multiply(grad, grad, out=out)
    sq.partition(k)  # in place: np.partition would copy the squares again
    return float(sq[k:].sum())


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


def make_step_rule(kind: str, f_hat: float, ht_width: str, design: DesignSpec, s: int, s_star: int) -> StepRule:
    """The step rule of one cell with operator sparsity s.

    A fixed rule steps by 1/L_hat of the design at sparsity s and true
    sparsity max(s_star, 1); a caller that needs another fixed step builds
    its `StepRule` directly.
    """
    gamma = fixed_step_lhat(design, s, max(s_star, 1)) if kind == FIXED else None
    return StepRule(kind=kind, f_hat=f_hat, ht_width=ht_width, fixed_gamma=gamma)


def theoretical_floor(regularity: RegularityParams, grad_at_truth_ht_norm: float) -> float:
    """Squared radius 36 ||HT_s(grad f(theta_hat))||^2 / mu_bar^2.

    Below this radius the contraction guarantee no longer applies; iterates
    are only guaranteed to remain confined near it.
    """
    if not regularity.theory_applicable:
        raise ValueError("mu_bar <= 0: curvature constants do not apply at this sparsity")
    return 36.0 * grad_at_truth_ht_norm**2 / regularity.mu_bar**2


class _Cell:
    """One config's state in the lock-step loop: its rule, stop tests and trace rows."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.truth = config.theta_star
        f_hat = config.step_rule.f_hat
        self.stop_tol = None if f_hat is None else 1e-12 * (abs(f_hat) + 1.0)
        s = config.operator.s
        self.width = min(s if config.step_rule.ht_width == WIDTH_S else 2 * s, config.model.d)
        self.rows = []  # row t: (f, gamma, ||HT_w(grad)||^2, squared error, support size)
        self.support = np.flatnonzero(config.theta0)  # of the current iterate, ascending
        self.status = None
        self.final_theta = None

    def step(self, t: int, theta: np.ndarray, f_t: float, g_t: np.ndarray, scratch: np.ndarray) -> bool:
        """Record row t at theta, then step theta in place (True) or stop the cell at t (False).

        Row t holds the squared error to the truth.  ``scratch``, a float
        d-vector, takes g * g for the norm, then theta - theta*, then the
        operator's |g|, each use ending before the next.  `support` becomes
        the next iterate's; it is the same array while the certified step
        keeps it.
        """
        op, rule = self.config.operator, self.config.step_rule
        ht_norm_sq = grad_ht_norm_sq(g_t, self.width, scratch)
        # a NaN or inf anywhere in g, or a square that overflows, makes the norm non-finite
        if not (math.isfinite(f_t) and math.isfinite(ht_norm_sq)):
            raise OptimizerError(f"evaluation failed at iteration {t} (operator {op.kind}, "
                                 f"s = {op.s}): non-finite objective or gradient")

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
        if not math.isfinite(gamma):
            raise OptimizerError(f"non-finite step size {gamma} at iteration {t} (operator {op.kind}, "
                                 f"s = {op.s}): positive gap over a vanishing denominator")

        diff = np.subtract(theta, self.truth, out=scratch)
        err_sq = float(np.dot(diff, diff))
        self.rows.append((f_t, gamma, ht_norm_sq, err_sq, self.support.size))

        if stalled:
            self.status = RunStatus.STALLED_ZERO_GRADIENT
        elif self.stop_tol is not None and f_t - rule.f_hat <= self.stop_tol:
            self.status = RunStatus.CONVERGED
        elif t == self.config.max_iters:
            self.status = RunStatus.MAX_ITERS
        else:
            self.support = op.step(theta, gamma, g_t, self.support, scratch)
            return True
        self.final_theta = theta.copy()  # theta is a row of the batch buffer
        return False

    def trace(self) -> RunTrace:
        f, gamma, ht_norm_sq, err_sq, nnz = zip(*self.rows)
        return RunTrace(
            f_value=np.array(f),
            step_size=np.array(gamma),
            grad_ht_norm_sq=np.array(ht_norm_sq),
            error_sq=np.array(err_sq),
            support_size=np.array(nnz, dtype=int),
            status=self.status,
            final_theta=self.final_theta,
        )


def run_batch(configs: list[RunConfig]) -> list[RunTrace]:
    """Run configs that share one model in lock step; one trace per config, in order.

    The iterates of the cells still running form a B x d array, so each
    iteration makes one evaluation for all of them, over the union of
    their supports, through one `GramRows` cache for the call (its docstring
    gives the slot policy), anchored at the first config's truth: the
    cells of one instance share it, and a one-cell replay anchors at the
    same one.  The union is always `support_union` of the iterates, one
    cell's or many; it is rebuilt only when a cell's support changes or a
    cell leaves the batch, and the cache looks up its slots only for a
    rebuilt union.  The slot order its sums run in depends on how the
    batch's union moved, and so do the last bits of a cell.
    Selection, the step rule, the stop tests and the trace rows are per
    cell, as in `run`, and the cells' steps share one scratch d-vector; a
    cell leaves the batch when it stops, and every step writes its row in
    place.  A cell keeps its trace rows, with the squared error to its
    truth, and its final iterate only; since a batch cell's last bits
    depend on its batch, only a one-cell trace replays exactly (see `run`).
    The whole run is under one `np.errstate`.  Raises OptimizerError,
    naming the iteration and the cell, when a cell's objective,
    ||HT_w(grad)||^2 or step size is not finite.
    """
    if not configs:
        return []
    model = configs[0].model
    if any(c.model is not model for c in configs):
        raise ValueError("run_batch needs configs that share one ObjectiveModel")
    cells = [_Cell(c) for c in configs]
    active = cells
    # a certified step leaves the zeros off its support as they are: + 0.0 makes a start's
    # -0.0 the +0.0 that the operator writes there
    Theta = np.array([c.theta0 for c in configs]) + 0.0
    scratch = np.empty(model.d)  # lent to each cell's step in turn
    cols = None  # the support union of the rows of Theta; None when it must be rebuilt
    t = 0
    # overflow shows as a non-finite f or gradient norm, which `_Cell.step` reports
    with np.errstate(over="ignore", invalid="ignore"):
        gram = GramRows(model, configs[0].theta_star)
        while active:
            if cols is None:
                cols = support_union(Theta)
            try:
                F, G = value_and_gradient(model, Theta, gram, cols)
            except Exception as exc:
                raise OptimizerError(f"evaluation failed at iteration {t}: {exc}") from exc
            keep = []
            F = F.tolist()
            for j, cell in enumerate(active):
                before = cell.support
                if cell.step(t, Theta[j], F[j], G[j], scratch):
                    keep.append(j)
                    if cell.support is not before:
                        cols = None
            if len(keep) < len(active):
                active = [active[j] for j in keep]
                Theta = Theta[keep]
                cols = None
            t += 1
    return [cell.trace() for cell in cells]


def run(config: RunConfig) -> RunTrace:
    """Execute the thresholded descent loop and record every iteration.

    The trace row at t describes theta_t before the t-th update; the loop
    performs at most max_iters updates.  Runs stop early when the objective
    gap falls to the stop tolerance (CONVERGED) or the step rule stalls
    (STALLED_ZERO_GRADIENT); a stalled row records step size 0.

    This is the one-cell case of `run_batch`, whose products on a one-row
    batch have the bits of the vector products.  Its iterates are not
    kept: `diagnostics.decomposition_margins` replays them bit for bit
    from the config and the trace's step sizes, and checks every f.
    """
    return run_batch([config])[0]
