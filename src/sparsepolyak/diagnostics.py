"""Empirical verification: curvature assumptions, contraction, grid cells.

`check_assumptions` samples parameter pairs from a fixed mixture once and
counts violations of the three restricted-curvature inequalities (rsc, rss,
weak_rsc) for supplied constants (mu, L, tau).  It is a sampler, not a
prover: zero violations certifies the constants on the tested pairs only,
while any violation is a counterexample.

Plateau detection is measurement-based: the floor of a run is the median
of the last 10% of recorded squared errors, and iterations-to-floor is the
first time the error enters a small band above that level; `plateau`
gives both.

Every median of the package, here and in the CLI's reports, comes from
`median`: `np.median`'s value from one `np.sort`, without `np.median`'s
NaN check, whose first call imports `numpy.ma`.

`make_instance` generates one seed's (model, truth), the truth of the
design's dimension; only a step rule reads f(theta*), so `step_target`
computes it, and only when no f_hat is given.

`decomposition_margins` checks the paper's per-step thresholding-deviation
inequality by replaying a one-cell run from its config and its trace's
step sizes, so runs keep no iterates; the replay has the run's bits and
checks every f against the trace.

`instance_cells` is the one builder of every command's cells, `run`'s,
`grid`'s and `sweep`'s: it generates a seed's instance once and builds
each (operator, step kind) cell's zero-start `RunConfig`, its rule from
`optimizer.make_step_rule`.  `run_instance_cells`, the one cell worker of
the grid and sweep commands, advances those cells in one lock-step batch
(`optimizer.run_batch`), then measures each cell's plateau.
"""

from dataclasses import dataclass

import numpy as np

from .objectives import GramRows, ObjectiveModel, bregman_batch, target_value, value_and_gradient
from .optimizer import OptimizerError, RunConfig, RunTrace, default_ht_width, make_step_rule, run_batch
from .rng import STREAM_CHECK, substream
from .synthdata import (
    DesignSpec,
    NoiseSpec,
    RegularityParams,
    generate_design,
    generate_responses,
    generate_truth,
)
from .thresholding import HT, RT, ThresholdSpec

RSC = "rsc"
RSS = "rss"
WEAK_RSC = "weak_rsc"

# Relative slack below which a sampled inequality counts as violated; guards
# against accumulation error in large Bregman sums.
_VIOLATION_RTOL = 1e-9

# Relative band above the plateau level that counts as reaching it.
PLATEAU_REL_MARGIN = 0.05

# Pairs that `check_assumptions` draws, evaluates and frees together.  Chunk
# c is drawn from its own stream, (STREAM_CHECK, c), so this value defines
# which pairs a seed samples.  It stays a multiple of 4, so that pair i is
# in regime i % 4.
CHECK_CHUNK = 1024


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of sampling one curvature inequality."""

    assumption: str
    pairs_tested: int
    violations: int
    worst_margin: float


def _sample_pairs(dim: int, s: int, pairs: int, rng: np.random.Generator):
    """Pair mixture, 25% each: sparse far, sparse near, sparse/dense, dense near.

    Regime 0: independent s-sparse points (order-1 separation).
    Regime 1: s-sparse point plus a small sparse perturbation (small separation).
    Regime 2: one s-sparse point against a dense one (large separation).
    Regime 3: dense point plus a small dense perturbation.

    Pair i is in regime i % 4.  Each regime draws straight into its strided
    rows, in one order: regime by regime, Theta2's rows before Theta1's;
    a sparse block draws all its uniform keys, keeps each row's s smallest
    by one argpartition, then draws its normals.
    """
    Theta1 = np.zeros((pairs, dim))
    Theta2 = np.zeros((pairs, dim))
    s = min(s, dim)

    def sparse(rows):
        k = rows.shape[0]
        idx = np.argpartition(rng.random((k, dim)), kth=s - 1, axis=1)[:, :s]
        rows[np.arange(k)[:, None], idx] = rng.standard_normal((k, s))

    def dense(rows):
        rows[:] = rng.standard_normal(rows.shape)

    for r, (draw2, draw1) in enumerate([(sparse, sparse), (sparse, sparse), (sparse, dense), (dense, dense)]):
        T1, T2 = Theta1[r::4], Theta2[r::4]
        draw2(T2)
        draw1(T1)
        if r in (1, 3):  # Theta1 = Theta2 + 0.05 * perturbation
            T1 *= 0.05
            T1 += T2
    return Theta1, Theta2


def _report(assumption: str, slacks: np.ndarray) -> AssumptionReport:
    scale = 1.0 + np.abs(slacks)
    violations = int(np.sum(slacks < -_VIOLATION_RTOL * scale))
    return AssumptionReport(
        assumption=assumption,
        pairs_tested=int(slacks.size),
        violations=violations,
        worst_margin=float(slacks.min()),
    )


def check_assumptions(
    model: ObjectiveModel, params: RegularityParams, pairs: int, seed: int
) -> list[AssumptionReport]:
    """Sample the rsc, rss and weak_rsc inequalities on one set of pairs.

    With D the Bregman divergence and delta = theta1 - theta2, the slacks are
    rsc: D - (mu/2 ||delta||^2 - tau/2 ||delta||_1^2); rss: (L/2 ||delta||^2
    + tau/2 ||delta||_1^2) - D; weak_rsc: the rsc slack for ||delta|| <= 1,
    else D - ||delta|| (mu/2 - tau/2 ||delta||_1^2 / ||delta||^2).  The pairs
    come in chunks of `CHECK_CHUNK`: chunk c is drawn from the stream
    (STREAM_CHECK, c), so it depends only on the seed and c, and its
    divergences and norms are computed before the next chunk is drawn.
    Reports come in that order.
    """
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    breg, n2, n1_sq = np.empty(pairs), np.empty(pairs), np.empty(pairs)
    for c, i in enumerate(range(0, pairs, CHECK_CHUNK)):
        rows = slice(i, i + CHECK_CHUNK)
        T1, T2 = _sample_pairs(model.d, params.s, min(CHECK_CHUNK, pairs - i), substream(seed, STREAM_CHECK, c))
        breg[rows] = bregman_batch(model, T1, T2)
        diff = np.subtract(T1, T2, out=T1)
        n2[rows] = np.einsum("ij,ij->i", diff, diff)
        n1_sq[rows] = np.sum(np.abs(diff, out=diff), axis=1) ** 2

    quad = 0.5 * params.mu * n2 - 0.5 * params.tau * n1_sq
    upper = 0.5 * params.L * n2 + 0.5 * params.tau * n1_sq
    norm2 = np.sqrt(n2)
    with np.errstate(divide="ignore", invalid="ignore"):
        lin = norm2 * (0.5 * params.mu - 0.5 * params.tau * np.where(n2 > 0, n1_sq / n2, 0.0))
    weak = np.where(norm2 <= 1.0, quad, lin)
    return [_report(RSC, breg - quad), _report(RSS, upper - breg), _report(WEAK_RSC, breg - weak)]


def median(values) -> float:
    """The value `np.median` gives for a 1-d sequence: NaN if an entry is NaN.

    NaN sorts last, so the last sorted entry tells.  The middle one or
    two entries are averaged by `np.mean`, as `np.median` averages them,
    so every dtype keeps its bits.
    """
    s = np.sort(values)
    if s.size and np.isnan(s[-1]):
        return float(s[-1])
    return float(s[(s.size - 1) // 2:s.size // 2 + 1].mean())


def contraction_profile(trace: RunTrace, floor: float):
    """Per-iteration squared-error ratios restricted to iterations above a floor.

    Returns (ratios, summary) where summary holds the max and median ratio;
    both are NaN when no iteration qualifies.
    """
    err = trace.error_sq
    before = err[:-1]
    above = (before >= floor) & (before > 0.0)
    ratios = err[1:][above] / before[above]
    if ratios.size:
        summary = {"max": float(ratios.max()), "median": median(ratios)}
    else:
        summary = {"max": float("nan"), "median": float("nan")}
    return ratios, summary


def plateau_level(error_sq: np.ndarray) -> float:
    """Median of the last 10% of recorded squared errors."""
    error_sq = np.asarray(error_sq, dtype=float)
    if error_sq.size == 0:
        raise ValueError("empty error record")
    k = max(1, int(np.ceil(0.1 * error_sq.size)))
    return median(error_sq[-k:])


def iters_to_plateau(error_sq: np.ndarray, level: float) -> int:
    """First iteration whose squared error is within (1 + PLATEAU_REL_MARGIN) of the level."""
    error_sq = np.asarray(error_sq, dtype=float)
    hits = np.flatnonzero(error_sq <= (1.0 + PLATEAU_REL_MARGIN) * level)
    return int(hits[0]) if hits.size else int(error_sq.size - 1)


def plateau(error_sq: np.ndarray) -> tuple[float, int]:
    """(plateau level, iterations to plateau) of one squared-error record."""
    level = plateau_level(error_sq)
    return level, iters_to_plateau(error_sq, level)


def active_median_step(step_size: np.ndarray, plateau_iter: int) -> float:
    """Median step size over the pre-plateau (progress-making) phase."""
    step_size = np.asarray(step_size, dtype=float)
    active = step_size[: max(1, plateau_iter)]
    return median(active)


def decomposition_margins(config: RunConfig, trace: RunTrace, theta_hat: np.ndarray,
                          eta_bound: float) -> np.ndarray:
    """Slack of the per-iteration thresholding-deviation inequality along a replayed run.

    Replays the one-cell `run(config)` that recorded ``trace``: from
    theta_0 = config.theta0 + 0.0 (as the loop starts), f_t and g_t come
    from `value_and_gradient` on the one-row batch with one `GramRows` for
    the replay, anchored at the config's truth as the run's is, and
    theta_{t+1} = Phi_s(z) at z = theta_t - gamma_t g_t, with gamma_t the
    trace's step size.  For each update, with union
    support S = supp(theta_{t+1}) | supp(theta_hat), it checks

        ||theta_{t+1} - theta_hat||^2 <= (1 + 4 eta) ||z|_S - theta_hat||^2

    returning rhs - lhs per iteration (meaningful for eta <= 1/4).  Every
    replayed f_t must equal the trace's bit for bit, or ValueError names
    the first iteration that differs: another config's trace fails, and a
    batch cell's (whose last bits depend on its batch) may.
    """
    hat = np.asarray(theta_hat, dtype=float)
    gram = GramRows(config.model, config.theta_star)
    theta = config.theta0 + 0.0
    margins = []
    for t, (f_rec, gamma) in enumerate(zip(trace.f_value.tolist(), trace.step_size.tolist())):
        F, G = value_and_gradient(config.model, theta[None], gram)
        if F[0] != f_rec:
            raise ValueError(f"replay differs from the trace at iteration {t}: f = {F[0]:.17g}, "
                             f"trace f = {f_rec:.17g}; the trace is not a one-cell run of this config")
        if t == len(trace) - 1:
            break
        z = theta - gamma * G[0]
        theta = config.operator.apply(z)
        z_restricted = np.where((theta != 0.0) | (hat != 0.0), z, 0.0)
        lhs = float(np.sum((theta - hat) ** 2))
        rhs = (1.0 + 4.0 * eta_bound) * float(np.sum((z_restricted - hat) ** 2))
        margins.append(rhs - lhs)
    return np.array(margins)


@dataclass(frozen=True)
class ComparisonRow:
    """Grid-search outcome for one operator."""

    best_s: int
    final_error_sq: float
    iters_to_floor: int


def make_instance(design: DesignSpec, s_star: int, noise: NoiseSpec, seed: int):
    """Generate (model, truth) for one seed; the truth has the design's d entries."""
    X = generate_design(design, seed)
    theta_star = generate_truth(design.d, s_star, seed)
    y = generate_responses(X, theta_star, noise, seed)
    return ObjectiveModel(family=noise.family, X=X, y=y), theta_star


def step_target(model: ObjectiveModel, theta_star: np.ndarray, f_hat: float | None) -> float:
    """f_hat, or the target value f(theta*) when f_hat is None; `OptimizerError` if that is not finite."""
    if f_hat is not None:
        return f_hat
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite target is reported below
        f_target = target_value(model, theta_star)
    if not np.isfinite(f_target):
        raise OptimizerError(f"the target value f(theta*) = {f_target} is not finite")
    return f_target


def instance_cells(design: DesignSpec, s_star: int, noise: NoiseSpec, seed: int,
                   cells: list[tuple[ThresholdSpec, str]], max_iters: int, ht_width: str | None,
                   f_hat: float | None) -> tuple[ObjectiveModel, list[RunConfig]]:
    """One seed's model and a zero-start `RunConfig` per (operator, step kind) cell.

    The instance (design of d features, truth of s_star of them) is
    generated once and shared by every config.  ht_width None means the
    family's default; f_hat None means the target value f(theta*),
    computed only then.  Every cell stops at the run's tolerance
    1e-12 (1 + |f_hat|), and a fixed cell steps by 1/L_hat of its own s.
    """
    model, theta_star = make_instance(design, s_star, noise, seed)
    target = step_target(model, theta_star, f_hat)
    width = ht_width or default_ht_width(noise.family)
    return model, [
        RunConfig(model=model, operator=op, max_iters=max_iters, theta_star=theta_star,
                  step_rule=make_step_rule(kind, target, width, design, op.s, s_star))
        for op, kind in cells
    ]


def run_instance_cells(
    design: DesignSpec,
    s_star: int,
    noise: NoiseSpec,
    seed: int,
    cells: list[tuple[ThresholdSpec, str]],
    max_iters: int,
    ht_width: str | None = None,
    f_hat: float | None = None,
) -> list[tuple[RunTrace, float, int]]:
    """Zero-start runs of (operator, step kind) cells on one seed's instance.

    The cells come from `instance_cells` and run as one lock-step batch,
    so each cell's last bits can depend on the other cells and their
    order (never on worker count).  Returns (trace, plateau level,
    iterations to plateau) per cell, in order.
    """
    _, configs = instance_cells(design, s_star, noise, seed, cells, max_iters, ht_width, f_hat)
    return [(trace, *plateau(trace.error_sq)) for trace in run_batch(configs)]


def summarize_comparison(detail, s_grid: list[int]) -> dict[str, ComparisonRow]:
    """Reduce (kind, s, seed, final_error_sq, iters_to_floor) cells to one row per operator.

    best_s minimizes the median final squared error over seeds.
    """
    finals, floors = {}, {}
    for kind, s, _, err, itf in detail:
        finals.setdefault((kind, s), []).append(err)
        floors.setdefault((kind, s), []).append(itf)
    rows = {}
    for kind in (HT, RT):
        medians = {s: median(finals[(kind, s)]) for s in s_grid}
        best_s = min(s_grid, key=lambda s: medians[s])
        rows[kind] = ComparisonRow(
            best_s=best_s,
            final_error_sq=medians[best_s],
            iters_to_floor=int(median(floors[(kind, best_s)])),
        )
    return rows
