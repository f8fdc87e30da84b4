"""Diagnostics tests: checker soundness, power and slacks, profiles, operator comparison."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sparsepolyak import diagnostics
from sparsepolyak.diagnostics import (
    _VIOLATION_RTOL,
    CHECK_CHUNK,
    _sample_pairs,
    active_median_step,
    check_assumptions,
    contraction_profile,
    decomposition_margins,
    iters_to_plateau,
    make_instance,
    plateau_level,
    run_instance_cells,
    step_target,
    summarize_comparison,
)
from sparsepolyak.objectives import LINEAR, LOGISTIC, ObjectiveModel, bregman_batch
from sparsepolyak.optimizer import (
    CLASSIC_POLYAK,
    FIXED,
    SPARSE_POLYAK,
    RunConfig,
    RunStatus,
    RunTrace,
    default_ht_width,
    make_step_rule,
    run,
)
from sparsepolyak.rng import STREAM_CHECK, substream
from sparsepolyak.synthdata import (
    DesignSpec,
    NoiseSpec,
    RegularityParams,
    compute_regularity,
)
from sparsepolyak.thresholding import HT, RT, ThresholdSpec, hard_threshold, relative_concavity_bound


def trace_from_errors(errors, status=RunStatus.MAX_ITERS):
    errors = np.asarray(errors, dtype=float)
    k = errors.size
    return RunTrace(
        f_value=np.zeros(k),
        step_size=np.zeros(k),
        grad_ht_norm_sq=np.zeros(k),
        error_sq=errors,
        support_size=np.zeros(k, dtype=int),
        status=status,
        final_theta=np.zeros(2),
    )


@pytest.fixture(scope="module")
def linear_checker_instance():
    # sample size comfortably in the regime where the exact-constant checks
    # are claimed sound: n = ceil(4 s log d)
    d, s = 400, 20
    n = int(np.ceil(4 * s * np.log(d)))
    design = DesignSpec(n=n, d=d, omega=0.5)
    noise = NoiseSpec(family=LINEAR, sigma=0.5)
    model, _ = make_instance(design, 10, noise, seed=0)
    params = compute_regularity(design, s)
    return model, params


@pytest.fixture(scope="module")
def logistic_checker_instance():
    d, s = 200, 16
    n = int(np.ceil(4 * s * np.log(d)))
    design = DesignSpec(n=n, d=d, omega=0.5)
    model, _ = make_instance(design, 8, NoiseSpec(family=LOGISTIC), seed=0)
    return model, compute_regularity(design, s)


def check(model, params, pairs, seed):
    """check_assumptions' reports keyed by assumption name."""
    return {report.assumption: report for report in check_assumptions(model, params, pairs, seed)}


class TestCheckerSoundness:
    def test_exact_constants_pass_rsc_and_rss(self, linear_checker_instance):
        model, params = linear_checker_instance
        reports = check(model, params, pairs=10000, seed=1)
        for name in ("rsc", "rss"):
            assert reports[name].pairs_tested == 10000
            assert reports[name].violations == 0
            assert reports[name].worst_margin >= 0.0

    def test_zero_constants_pass_by_convexity(self, linear_checker_instance):
        model, params = linear_checker_instance
        degenerate = RegularityParams(mu=1e-300, L=params.L, tau=0.0, s=params.s)
        assert check(model, degenerate, pairs=5000, seed=2)["rsc"].violations == 0

    def test_weak_rsc_holds_for_linear(self, linear_checker_instance):
        # the quadratic-growth inequality implies the two-branch variant
        model, params = linear_checker_instance
        assert check(model, params, pairs=10000, seed=3)["weak_rsc"].violations == 0


class TestCheckerPower:
    def test_inflated_mu_is_caught(self, linear_checker_instance):
        model, params = linear_checker_instance
        inflated = RegularityParams(mu=10.0 * params.mu, L=params.L, tau=params.tau, s=params.s)
        report = check(model, inflated, pairs=10000, seed=4)["rsc"]
        assert report.violations > 0
        assert report.worst_margin < 0.0

    def test_deflated_smoothness_is_caught(self, linear_checker_instance):
        model, params = linear_checker_instance
        broken = RegularityParams(mu=params.mu, L=params.mu, tau=0.0, s=params.s)
        assert check(model, broken, pairs=10000, seed=5)["rss"].violations > 0


class TestLogisticWeakRsc:
    def test_conservative_constants_pass(self, logistic_checker_instance):
        model, base = logistic_checker_instance
        # logistic curvature is at most a 1/4 of the quadratic one near the
        # origin and degrades with |x' theta|; an order-of-magnitude haircut
        # on mu is the documented conservative plug-in
        params = RegularityParams(mu=base.mu / 20.0, L=base.L, tau=base.tau, s=base.s)
        assert check(model, params, pairs=10000, seed=6)["weak_rsc"].violations == 0

    def test_quadratic_mu_fails_far_from_origin(self, logistic_checker_instance):
        # logistic loss grows linearly, so the quadratic-branch constant of
        # the linear family must be rejected by the two-branch checker
        model, base = logistic_checker_instance
        assert check(model, base, pairs=10000, seed=7)["rsc"].violations > 0


def reference_sample_pairs(dim, s, pairs, rng):
    """The whole-array sampler `_sample_pairs` replaced, kept as its reference."""
    Theta1 = np.zeros((pairs, dim))
    Theta2 = np.zeros((pairs, dim))
    s = min(s, dim)

    def sparse_rows(k):
        keys = rng.random((k, dim))
        idx = np.argpartition(keys, kth=s - 1, axis=1)[:, :s]
        out = np.zeros((k, dim))
        out[np.arange(k)[:, None], idx] = rng.standard_normal((k, s))
        return out

    regime = np.arange(pairs) % 4
    for r in range(4):
        rows = np.flatnonzero(regime == r)
        k = rows.size
        if k == 0:
            continue
        if r == 0:
            Theta2[rows] = sparse_rows(k)
            Theta1[rows] = sparse_rows(k)
        elif r == 1:
            base = sparse_rows(k)
            Theta2[rows] = base
            pert = sparse_rows(k) * 0.05
            Theta1[rows] = base + pert
        elif r == 2:
            Theta2[rows] = sparse_rows(k)
            Theta1[rows] = rng.standard_normal((k, dim))
        else:
            base = rng.standard_normal((k, dim))
            Theta2[rows] = base
            Theta1[rows] = base + 0.05 * rng.standard_normal((k, dim))
    return Theta1, Theta2


def checker_pairs(model, s, pairs, seed):
    """The pairs `check_assumptions` samples: chunk c of `CHECK_CHUNK` from stream (STREAM_CHECK, c)."""
    chunks = [_sample_pairs(model.d, s, min(CHECK_CHUNK, pairs - i), substream(seed, STREAM_CHECK, c))
              for c, i in enumerate(range(0, pairs, CHECK_CHUNK))]
    return np.concatenate([T1 for T1, _ in chunks]), np.concatenate([T2 for _, T2 in chunks])


def recording_sampler(monkeypatch):
    """Patch `_sample_pairs` to keep a copy of every (Theta1, Theta2) it returns; returns that list."""
    drawn, real = [], diagnostics._sample_pairs

    def recording(*args):
        pairs = real(*args)
        drawn.append(tuple(T.copy() for T in pairs))
        return pairs

    monkeypatch.setattr(diagnostics, "_sample_pairs", recording)
    return drawn


class TestPairSampler:
    """`_sample_pairs` keeps every bit of the whole-array sampler; `check_assumptions` draws chunk by chunk."""

    # (dim, s, pairs): the desk width with regimes of unequal size; a few
    # pairs; empty regimes; s >= dim; dim = 1
    SHAPES = [(1000, 40, 9999), (7, 3, 10), (5, 2, 3), (9, 2, 1), (6, 9, 13), (6, 6, 8), (1, 1, 9), (1, 3, 2)]

    @pytest.mark.parametrize("dim, s, pairs", SHAPES)
    def test_equals_the_whole_array_sampler(self, dim, s, pairs):
        seed = dim + s + pairs
        got = _sample_pairs(dim, s, pairs, substream(seed, STREAM_CHECK))
        want = reference_sample_pairs(dim, s, pairs, substream(seed, STREAM_CHECK))
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("dim, s, pairs", SHAPES[1:])
    @pytest.mark.parametrize("chunk_rows", [1, 2])
    def test_each_chunk_draws_from_its_own_stream(self, monkeypatch, dim, s, pairs, chunk_rows):
        # chunks of 4 and 8 pairs: many chunks, a short last one, or one
        chunk = 4 * chunk_rows
        monkeypatch.setattr(diagnostics, "CHECK_CHUNK", chunk)
        drawn = recording_sampler(monkeypatch)
        X = np.asfortranarray(np.random.default_rng(dim).standard_normal((3, dim)))
        model = ObjectiveModel(family=LINEAR, X=X, y=np.zeros(3))
        check_assumptions(model, RegularityParams(mu=1.0, L=1.0, tau=0.0, s=s), pairs, seed=5)
        starts = range(0, pairs, chunk)
        assert len(drawn) == len(starts)
        for c, (i, got) in enumerate(zip(starts, drawn)):
            want = _sample_pairs(dim, s, min(chunk, pairs - i), substream(5, STREAM_CHECK, c))
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), c

    def test_a_chunk_does_not_depend_on_the_pair_count(self, monkeypatch, linear_checker_instance):
        model, params = linear_checker_instance
        drawn = recording_sampler(monkeypatch)
        check_assumptions(model, params, CHECK_CHUNK, seed=3)
        check_assumptions(model, params, 3000, seed=3)
        assert [T1.shape[0] for T1, _ in drawn] == [CHECK_CHUNK, CHECK_CHUNK, CHECK_CHUNK, 3000 - 2 * CHECK_CHUNK]
        assert all(np.array_equal(a, b) for a, b in zip(drawn[0], drawn[1]))
        assert not np.array_equal(drawn[1][1], drawn[2][1])

    def test_holds_about_one_chunk(self):
        # 10,000 pairs at d = 1000 are 160 MB as two whole arrays; one
        # chunk's pairs are 16 MB
        design = DesignSpec(n=200, d=1000, omega=0.5)
        model, _ = make_instance(design, 10, NoiseSpec(family=LINEAR, sigma=0.5), seed=0)
        params = compute_regularity(design, 40)
        tracemalloc.start()
        try:
            check_assumptions(model, params, 10000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6, peak


class TestCheckerSlacks:
    """check_assumptions against the three slack formulas written out here."""

    @staticmethod
    def expected(model, params, pairs, seed):
        Theta1, Theta2 = checker_pairs(model, params.s, pairs, seed)
        breg = bregman_batch(model, Theta1, Theta2)
        diff = Theta1 - Theta2
        n2 = np.einsum("ij,ij->i", diff, diff)
        n1_sq = np.sum(np.abs(diff), axis=1) ** 2
        mu, L, tau = params.mu, params.L, params.tau
        rsc = breg - (0.5 * mu * n2 - 0.5 * tau * n1_sq)
        rss = (0.5 * L * n2 + 0.5 * tau * n1_sq) - breg
        with np.errstate(divide="ignore", invalid="ignore"):
            far = np.sqrt(n2) * (0.5 * mu - 0.5 * tau * np.where(n2 > 0, n1_sq / n2, 0.0))
        weak_rsc = breg - np.where(np.sqrt(n2) <= 1.0, 0.5 * mu * n2 - 0.5 * tau * n1_sq, far)
        return [
            (name, int(np.sum(slack < -_VIOLATION_RTOL * (1.0 + np.abs(slack)))), float(slack.min()))
            for name, slack in (("rsc", rsc), ("rss", rss), ("weak_rsc", weak_rsc))
        ]

    @pytest.mark.parametrize("mu_scale", [1.0, 10.0])
    def test_linear_reports_match_the_formulas(self, linear_checker_instance, mu_scale):
        model, base = linear_checker_instance
        params = RegularityParams(mu=mu_scale * base.mu, L=base.L, tau=base.tau, s=base.s)
        reports = check_assumptions(model, params, pairs=2000, seed=11)
        assert [(r.assumption, r.violations, r.worst_margin) for r in reports] == \
            self.expected(model, params, 2000, 11)
        assert all(r.pairs_tested == 2000 for r in reports)

    def test_logistic_reports_match_the_formulas(self, logistic_checker_instance):
        model, params = logistic_checker_instance
        reports = check_assumptions(model, params, pairs=2000, seed=12)
        assert [(r.assumption, r.violations, r.worst_margin) for r in reports] == \
            self.expected(model, params, 2000, 12)


class TestContractionProfile:
    def test_ratios_above_floor(self):
        trace = trace_from_errors([4.0, 1.0, 0.25])
        ratios, summary = contraction_profile(trace, floor=0.0)
        np.testing.assert_allclose(ratios, [0.25, 0.25])
        assert summary["max"] == pytest.approx(0.25)
        assert summary["median"] == pytest.approx(0.25)

    def test_floor_restricts_iterations(self):
        trace = trace_from_errors([4.0, 1.0, 0.25])
        ratios, _ = contraction_profile(trace, floor=2.0)
        np.testing.assert_allclose(ratios, [0.25])

    def test_matches_the_per_iteration_loop(self):
        # the masked division keeps the bits of one division per qualifying iteration,
        # zeros, NaN and entries below the floor included
        errors = np.random.default_rng(3).exponential(size=200)
        errors[[5, 17, 40]] = 0.0
        errors[[60, 61, 120]] = np.nan
        for floor in (0.0, 0.5, 2.0):
            trace = trace_from_errors(errors)
            expected = np.array([errors[t + 1] / errors[t] for t in range(errors.size - 1)
                                 if errors[t] >= floor and errors[t] > 0.0])
            ratios, summary = contraction_profile(trace, floor=floor)
            np.testing.assert_array_equal(ratios, expected)
            assert np.array_equal([summary["max"], summary["median"]],
                                  [expected.max(), np.median(expected)], equal_nan=True)

    def test_single_row_trace_gives_empty_profile(self):
        ratios, summary = contraction_profile(trace_from_errors([1.0]), floor=0.0)
        assert ratios.size == 0
        assert np.isnan(summary["max"])

    def test_missing_errors_rejected(self):
        trace = trace_from_errors([1.0, 0.5])
        trace.error_sq = None
        with pytest.raises(ValueError):
            contraction_profile(trace, floor=0.0)


class TestPlateauDetection:
    def test_plateau_level_is_tail_median(self):
        errors = np.concatenate([np.linspace(10, 1, 90), np.full(10, 0.5)])
        assert plateau_level(errors) == pytest.approx(0.5)

    def test_iters_to_plateau_first_crossing(self):
        errors = np.array([8.0, 4.0, 2.0, 1.0, 1.0, 1.0])
        assert iters_to_plateau(errors, 1.0) == 3

    def test_active_median_step(self):
        steps = np.array([4.0, 2.0, 1.0, 0.0, 0.0, 0.0])
        assert active_median_step(steps, 3) == pytest.approx(2.0)
        assert active_median_step(steps, 0) == pytest.approx(4.0)


def replay_config(family, kind, start, step_kind=SPARSE_POLYAK, max_iters=150):
    """A one-cell config at s = 4 s* on a d = 300 instance, its truth, and its operator's eta <= 1/4."""
    d, s_star = 300, 8
    s = 4 * s_star
    n = int(np.ceil(5 * s_star * np.log(d))) * (3 if family == LOGISTIC else 1)
    design = DesignSpec(n=n, d=d, omega=0.5)
    noise = NoiseSpec(family=family, sigma=0.5) if family == LINEAR else NoiseSpec(family=family)
    model, theta_star = make_instance(design, s_star, noise, seed=7)
    theta0 = None
    if start == "negative_zeros":
        # s nonzeros away from the truth, -0.0 everywhere else
        drawn = hard_threshold(np.random.default_rng(1).standard_normal(d), s)
        theta0 = np.where(drawn != 0.0, drawn, -0.0)
    target = step_target(model, theta_star, None)
    rule = make_step_rule(step_kind, target, default_ht_width(family), design, s, s_star)
    config = RunConfig(model=model, operator=ThresholdSpec(kind=kind, s=s), step_rule=rule,
                       max_iters=max_iters, theta0=theta0, theta_star=theta_star)
    return config, theta_star, relative_concavity_bound(kind, s_star, s)


class TestDecompositionMargins:
    @pytest.mark.parametrize("family,kind,start,step_kind", [
        (LINEAR, HT, "zero", SPARSE_POLYAK),
        (LINEAR, RT, "negative_zeros", SPARSE_POLYAK),
        (LINEAR, HT, "negative_zeros", CLASSIC_POLYAK),
        (LINEAR, RT, "zero", FIXED),
        (LOGISTIC, HT, "negative_zeros", SPARSE_POLYAK),
        (LOGISTIC, RT, "zero", SPARSE_POLYAK),
    ])
    def test_replays_one_cell_runs(self, family, kind, start, step_kind):
        config, theta_star, eta = replay_config(family, kind, start, step_kind)
        if start == "negative_zeros":
            assert np.signbit(config.theta0[config.theta0 == 0.0]).all()
        trace = run(config)
        assert np.count_nonzero(trace.step_size) > 0
        assert eta <= 0.25
        # the replay checks each f against the trace bit for bit and raises otherwise
        margins = decomposition_margins(config, trace, theta_star, eta)
        assert margins.size == len(trace) - 1
        assert np.all(margins >= -1e-9)

    def test_names_the_first_iteration_that_differs(self):
        config, theta_star, _ = replay_config(LINEAR, HT, "negative_zeros", max_iters=20)
        trace = run(config)
        moved = replace(trace, f_value=trace.f_value.copy())
        moved.f_value[5] = np.nextafter(moved.f_value[5], np.inf)
        with pytest.raises(ValueError, match="at iteration 5:"):
            decomposition_margins(config, moved, theta_star, 0.25)
        # another config's trace: the same start, so its rows part at the first step
        other = replace(config, operator=ThresholdSpec(kind=RT, s=config.operator.s))
        with pytest.raises(ValueError, match="at iteration 1:"):
            decomposition_margins(other, trace, theta_star, 0.25)


class TestCompareOperators:
    def test_forced_grid_on_easy_instance(self):
        # noiseless, well-conditioned, grid pinned to s*: both operators
        # recover and report the same support size
        d, s_star = 150, 6
        n = int(np.ceil(8 * s_star * np.log(d)))
        design = DesignSpec(n=n, d=d, omega=0.0)
        noise = NoiseSpec(family=LINEAR, sigma=1e-12)
        cells = [(ThresholdSpec(kind=kind, s=s_star), SPARSE_POLYAK) for kind in (HT, RT)]
        runs = run_instance_cells(design, s_star, noise, 0, cells, max_iters=400)
        detail = [(op.kind, op.s, 0, float(trace.error_sq[-1]), hit)
                  for (op, _), (trace, _, hit) in zip(cells, runs)]
        rows = summarize_comparison(detail, [s_star])
        assert rows[HT].best_s == s_star
        assert rows[RT].best_s == s_star
        assert rows[HT].final_error_sq < 1e-8
        assert rows[RT].final_error_sq < 1e-8
        assert len(detail) == 2

    def test_contraction_ordering_rt_at_most_ht(self):
        # matched noisy instance at fixed s: the reciprocal operator's extra
        # shrinkage must not contract materially worse than hard thresholding
        d, s_star = 300, 10
        n = int(np.ceil(5 * s_star * np.log(d)))
        design = DesignSpec(n=n, d=d, omega=0.5)
        noise = NoiseSpec(family=LINEAR, sigma=0.5)

        medians = {}
        for kind in (HT, RT):
            ratios_all = []
            for seed in range(5):
                cell = (ThresholdSpec(kind=kind, s=4 * s_star), SPARSE_POLYAK)
                trace = run_instance_cells(design, s_star, noise, seed, [cell], max_iters=500)[0][0]
                level = plateau_level(trace.error_sq)
                ratios, _ = contraction_profile(trace, floor=level)
                ratios_all.extend(ratios.tolist())
            medians[kind] = float(np.median(ratios_all))
        assert medians[RT] <= medians[HT] + 0.02

    def test_summarize_comparison_picks_min_median(self):
        detail = [
            (HT, 2, 0, 1.0, 5), (HT, 2, 1, 3.0, 5), (HT, 4, 0, 2.0, 7), (HT, 4, 1, 2.0, 7),
            (RT, 2, 0, 0.5, 4), (RT, 2, 1, 0.7, 4), (RT, 4, 0, 2.5, 9), (RT, 4, 1, 2.5, 9),
        ]
        rows = summarize_comparison(detail, [2, 4])
        assert rows[HT].best_s == 2 and rows[HT].final_error_sq == pytest.approx(2.0)
        assert rows[RT].best_s == 2 and rows[RT].final_error_sq == pytest.approx(0.6)


class TestReportValidation:
    def test_pairs_must_be_positive(self, linear_checker_instance):
        model, params = linear_checker_instance
        with pytest.raises(ValueError):
            check_assumptions(model, params, pairs=0, seed=0)
