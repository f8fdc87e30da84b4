"""Optimizer tests: step rules, loop contracts, recovery, contraction invariants."""

import numpy as np
import pytest

from sparsepolyak.dataio import trace_csv_text
from sparsepolyak.diagnostics import decomposition_margins, make_instance
from sparsepolyak.objectives import (
    LINEAR,
    Dataset,
    ObjectiveModel,
    ParamVector,
    gradient,
)
from sparsepolyak.optimizer import (
    CLASSIC_POLYAK,
    FIXED,
    SPARSE_POLYAK,
    OptimizerError,
    RunConfig,
    RunStatus,
    RunTrace,
    StalledZeroGradientError,
    StepRule,
    classic_polyak_step,
    fixed_step_lhat,
    grad_ht_norm_sq,
    lhat_gamma,
    run,
    run_batch,
    sparse_polyak_step,
    theoretical_floor,
)
from sparsepolyak.synthdata import (
    DesignSpec,
    NoiseSpec,
    RegularityParams,
    TruthSpec,
    ar1_covariance,
    compute_regularity,
)
from sparsepolyak.thresholding import HT, RT, ThresholdSpec, hard_threshold, relative_concavity_bound


def linear_instance(n, d, s_star, omega, sigma, seed, column_normalize=False):
    design = DesignSpec(n=n, d=d, omega=omega, column_normalize=column_normalize)
    truth = TruthSpec(d=d, s_star=s_star)
    noise = NoiseSpec(family=LINEAR, sigma=sigma)
    return make_instance(design, truth, noise, seed)


def basic_config(model, theta_star, f_hat, s, kind=HT, step_kind=SPARSE_POLYAK,
                 max_iters=300, fixed_gamma=None, ht_width="s"):
    rule = StepRule(kind=step_kind, f_hat=f_hat, ht_width=ht_width, fixed_gamma=fixed_gamma)
    return RunConfig(
        model=model,
        operator=ThresholdSpec(kind=kind, s=s),
        step_rule=rule,
        theta0=ParamVector(np.zeros(model.dim)),
        max_iters=max_iters,
        theta_star=theta_star,
    )


class TestStepRules:
    def test_sparse_polyak_value(self):
        # top-1 restricted gradient norm squared is 4
        norm_sq = grad_ht_norm_sq(np.array([2.0, 1.0, 0.5]), 1)
        assert sparse_polyak_step(10.0, 0.0, norm_sq) == pytest.approx(0.5)

    def test_sparse_polyak_clamps_negative_gap(self):
        assert sparse_polyak_step(1.0, 3.0, grad_ht_norm_sq(np.array([1.0, 1.0]), 1)) == 0.0

    def test_sparse_polyak_stall(self):
        with pytest.raises(StalledZeroGradientError):
            sparse_polyak_step(2.0, 0.0, grad_ht_norm_sq(np.zeros(4), 2))

    def test_sparse_polyak_width_validation(self):
        with pytest.raises(ValueError):
            grad_ht_norm_sq(np.array([1.0]), 2)

    def test_classic_polyak_value(self):
        assert classic_polyak_step(10.0, 0.0, np.array([2.0])) == pytest.approx(2.5)

    def test_classic_polyak_zero_gap(self):
        assert classic_polyak_step(0.0, 0.0, np.array([1.0])) == 0.0

    def test_classic_polyak_stall(self):
        with pytest.raises(StalledZeroGradientError):
            classic_polyak_step(1.0, 0.0, np.zeros(3))

    def test_step_rule_validation(self):
        with pytest.raises(ValueError):
            StepRule(kind=SPARSE_POLYAK, f_hat=None)
        with pytest.raises(ValueError):
            StepRule(kind=FIXED, fixed_gamma=0.0)
        with pytest.raises(ValueError):
            StepRule(kind=SPARSE_POLYAK, f_hat=0.0, ht_width="3s")


class TestFixedStep:
    def test_formula_values(self):
        assert lhat_gamma(1.0, 500, 300) == pytest.approx(1.0 / 1.01)
        assert lhat_gamma(2.0, 7, 7) == pytest.approx(1.0 / 2.1)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            lhat_gamma(0.0, 5, 3)
        with pytest.raises(ValueError):
            lhat_gamma(1.0, 3, 5)

    def test_design_spectrum_matches_dense_eigensolve(self):
        design = DesignSpec(n=100, d=200, omega=0.5)
        gamma = fixed_step_lhat(design, 20, 10)
        lam_max = np.linalg.eigvalsh(ar1_covariance(200, 0.5))[-1]
        assert gamma == pytest.approx(lhat_gamma(lam_max, 20, 10), abs=1e-8)


class TestTheoreticalFloor:
    def test_value(self):
        params = RegularityParams(mu=6.0, L=6.0, tau=0.0, s=1)
        assert theoretical_floor(params, 1.0) == pytest.approx(1.0)

    def test_zero_gradient_at_truth(self):
        params = RegularityParams(mu=1.0, L=2.0, tau=0.0, s=1)
        assert theoretical_floor(params, 0.0) == 0.0

    def test_inapplicable_constants_rejected(self):
        params = RegularityParams(mu=0.1, L=2.0, tau=1.0, s=10)
        assert not params.theory_applicable
        with pytest.raises(ValueError):
            theoretical_floor(params, 1.0)


class TestRunLoop:
    def test_started_at_target_stops_immediately(self):
        model, theta_star, f_hat = linear_instance(60, 30, 5, 0.0, 0.5, seed=0)
        config = basic_config(model, theta_star, f_hat, s=5)
        config.theta0 = theta_star  # start exactly at the target value
        trace = run(config)
        assert len(trace) == 1
        assert trace.status is RunStatus.CONVERGED
        assert trace.step_size[0] == 0.0
        np.testing.assert_array_equal(trace.final_theta.values, theta_star.values)

    def test_sparsity_preserved_every_iteration(self):
        model, theta_star, f_hat = linear_instance(120, 60, 6, 0.5, 0.5, seed=1)
        for kind, s in ((HT, 12), (RT, 12), (HT, 6)):
            trace = run(basic_config(model, theta_star, f_hat, s=s, kind=kind, max_iters=120))
            assert np.all(trace.support_size <= s)

    def test_steps_nonnegative_and_zero_iff_no_gap(self):
        model, theta_star, f_hat = linear_instance(150, 50, 5, 0.5, 0.5, seed=2)
        trace = run(basic_config(model, theta_star, f_hat, s=10, max_iters=400))
        assert np.all(trace.step_size >= 0.0)
        zero_steps = trace.step_size == 0.0
        no_gap = trace.f_value <= f_hat
        np.testing.assert_array_equal(zero_steps, no_gap)

    def test_trace_records_every_iteration_from_zero(self):
        model, theta_star, f_hat = linear_instance(80, 40, 4, 0.0, 0.5, seed=3)
        trace = run(basic_config(model, theta_star, f_hat, s=8, max_iters=25))
        assert trace.iters[0] == 0
        assert np.all(np.diff(trace.iters) == 1)
        assert len(trace) <= 26

    def test_deterministic_bit_for_bit(self):
        model, theta_star, f_hat = linear_instance(100, 50, 5, 0.5, 0.5, seed=4)
        t1 = run(basic_config(model, theta_star, f_hat, s=10, max_iters=60))
        t2 = run(basic_config(model, theta_star, f_hat, s=10, max_iters=60))
        for name in ("f_value", "step_size", "grad_ht_norm_sq", "error_sq"):
            assert getattr(t1, name).tobytes() == getattr(t2, name).tobytes()
        assert t1.final_theta.values.tobytes() == t2.final_theta.values.tobytes()

    def test_stall_terminates_with_distinct_status(self):
        # zero parameter is already stationary, but the target is unattainable
        data = Dataset(X=[[1.0, 0.0], [0.0, 1.0]], y=[0.0, 0.0])
        model = ObjectiveModel(family=LINEAR, data=data)
        rule = StepRule(kind=SPARSE_POLYAK, f_hat=-1.0)
        config = RunConfig(
            model=model,
            operator=ThresholdSpec(kind=HT, s=1),
            step_rule=rule,
            theta0=ParamVector(np.zeros(2)),
            max_iters=50,
        )
        trace = run(config)
        assert trace.status is RunStatus.STALLED_ZERO_GRADIENT
        assert len(trace) == 1
        assert trace.step_size[0] == 0.0

    def test_evaluation_error_carries_iteration_index(self):
        model, theta_star, f_hat = linear_instance(50, 20, 3, 0.0, 0.5, seed=5)
        config = basic_config(model, theta_star, f_hat, s=5, step_kind=FIXED,
                              fixed_gamma=1e30, max_iters=50)
        with pytest.raises(OptimizerError, match="iteration"):
            run(config)

    def test_initial_point_sparsity_validated(self):
        model, theta_star, f_hat = linear_instance(50, 20, 3, 0.0, 0.5, seed=6)
        config = basic_config(model, theta_star, f_hat, s=5)
        with pytest.raises(ValueError):
            config2 = basic_config(model, theta_star, f_hat, s=2)
            config2.theta0 = ParamVector(np.ones(20))
            RunConfig(**{f: getattr(config2, f) for f in (
                "model", "operator", "step_rule", "theta0", "max_iters",
                "stop_tol", "theta_star")})


def vector_loop(config, full_product=False):
    """The per-cell loop on GEMV products, for linear sparse Polyak cells; the reference for `run`.

    The forward product is X[:, S] theta[S] on the iterate's support S, as
    `run` computes it; with full_product, it is the full X theta on a
    row-major copy of X, a kernel that gathers no columns (the drift
    reference).
    """
    model, op, rule = config.model, config.operator, config.step_rule
    X = np.ascontiguousarray(model.data.X) if full_product else model.data.X
    y, n = model.data.y, model.data.n
    theta, truth = config.theta0.values.copy(), config.theta_star.values
    width = min(op.s if rule.ht_width == "s" else 2 * op.s, model.dim)
    rows, status = [], RunStatus.MAX_ITERS
    for t in range(config.max_iters + 1):
        S = slice(None) if full_product else np.flatnonzero(theta)
        r = X[:, S] @ theta[S] - y
        f = float(0.5 * np.dot(r, r) / n)
        g = X.T @ r / n
        ht = grad_ht_norm_sq(g, width)
        gamma = sparse_polyak_step(f, rule.f_hat, ht)
        diff = theta - truth
        rows.append((t, f, gamma, ht, float(np.dot(diff, diff)), int(np.count_nonzero(theta))))
        if f - rule.f_hat <= config.resolved_stop_tol():
            status = RunStatus.CONVERGED
            break
        if t == config.max_iters:
            break
        theta = op.apply(theta - gamma * g)
    t, f, gamma, ht, err, nnz = (np.array(col) for col in zip(*rows))
    return RunTrace(iters=t, f_value=f, step_size=gamma, grad_ht_norm_sq=ht, error_sq=err,
                    support_size=nnz, status=status, final_theta=ParamVector(theta))


def zero_response_model(kind):
    """A model whose zero parameter is exactly stationary: the 2 x 2 identity, or a 60 x 40 design."""
    if kind == "identity":
        return ObjectiveModel(family=LINEAR, data=Dataset(X=np.eye(2), y=np.zeros(2))), (1, 2)
    X = np.random.default_rng(11).standard_normal((60, 40))
    return ObjectiveModel(family=LINEAR, data=Dataset(X=X, y=np.zeros(60))), (3, 6)


def mixed_configs(model, s_lo, s_hi):
    """HT/RT cells at two sparsities under all three rules, plus an instant and a stalled cell."""
    d = model.dim
    start = np.random.default_rng(12).standard_normal(d)
    zero = ParamVector(np.zeros(d))
    gamma = model.data.n / np.linalg.norm(model.data.X, 2) ** 2

    def cell(kind, s, step_kind, max_iters, f_hat=0.0, theta0=None, stop_tol=None, ht_width="s"):
        if theta0 is None:
            theta0 = ParamVector(hard_threshold(start, s))
        rule = StepRule(kind=step_kind, f_hat=f_hat, ht_width=ht_width,
                        fixed_gamma=gamma if step_kind == FIXED else None)
        return RunConfig(model=model, operator=ThresholdSpec(kind=kind, s=s), step_rule=rule,
                         theta0=theta0, max_iters=max_iters, stop_tol=stop_tol, theta_star=zero)

    return [
        cell(HT, s_hi, SPARSE_POLYAK, 400),
        cell(RT, s_lo, SPARSE_POLYAK, 60, ht_width="2s"),
        cell(HT, s_lo, CLASSIC_POLYAK, 400),
        cell(RT, s_hi, CLASSIC_POLYAK, 7),
        cell(HT, s_hi, FIXED, 90),
        cell(RT, s_lo, FIXED, 300),
        cell(RT, s_hi, SPARSE_POLYAK, 50, stop_tol=1e6),  # converges at iteration 0
        cell(HT, s_lo, SPARSE_POLYAK, 50, f_hat=-1.0, theta0=zero),  # stalls at iteration 0
    ]


def assert_same_cell(a, b):
    assert a.status is b.status
    assert len(a) == len(b)
    np.testing.assert_array_equal(a.support_size, b.support_size)
    for name in ("f_value", "step_size", "error_sq"):
        np.testing.assert_allclose(getattr(a, name), getattr(b, name), rtol=1e-12, atol=0.0)


class TestRunBatch:
    @pytest.mark.parametrize("kind", ["identity", "design"])
    def test_mixed_batch_matches_one_cell_runs(self, kind):
        model, (s_lo, s_hi) = zero_response_model(kind)
        configs = mixed_configs(model, s_lo, s_hi)
        batch = run_batch(configs, keep_iterates=True)
        singles = [run(c) for c in configs]
        for b, single in zip(batch, singles):
            assert_same_cell(b, single)
            assert len(b.iterates) == len(b) and len(b.pre_threshold) == len(b) - 1
            np.testing.assert_array_equal(b.iterates[-1], b.final_theta.values)
        statuses = [b.status for b in batch]
        assert statuses[6:] == [RunStatus.CONVERGED, RunStatus.STALLED_ZERO_GRADIENT]
        assert len(batch[6]) == len(batch[7]) == 1
        assert {RunStatus.CONVERGED, RunStatus.MAX_ITERS} <= set(statuses[:6])

    def test_cell_order_does_not_matter(self):
        model, (s_lo, s_hi) = zero_response_model("design")
        configs = mixed_configs(model, s_lo, s_hi)
        forward = run_batch(configs)
        order = [3, 7, 0, 5, 1, 6, 4, 2]
        permuted = run_batch([configs[i] for i in order])
        for i, trace in zip(order, permuted):
            assert_same_cell(trace, forward[i])

    def test_configs_on_different_models_rejected(self):
        a, _ = zero_response_model("identity")
        b, _ = zero_response_model("identity")
        configs = mixed_configs(a, 1, 2)[:1] + mixed_configs(b, 1, 2)[:1]
        with pytest.raises(ValueError, match="share one ObjectiveModel"):
            run_batch(configs)
        assert run_batch([]) == []

    def test_non_finite_evaluation_names_iteration_and_cell(self):
        model, theta_star, f_hat = linear_instance(50, 20, 3, 0.0, 0.5, seed=5)
        configs = [basic_config(model, theta_star, f_hat, s=4, kind=RT, max_iters=50),
                   basic_config(model, theta_star, f_hat, s=5, step_kind=FIXED,
                                fixed_gamma=1e30, max_iters=50)]
        with pytest.raises(OptimizerError, match=r"iteration \d+ \(operator ht, s = 5\)"):
            run_batch(configs)

    def test_one_cell_run_keeps_the_vector_loop_bytes(self):
        # the C10 configuration: RT at s = 100, d = 1000, seed 0, 1500 iterations
        n = int(np.ceil(5 * 20 * np.log(1000)))
        model, theta_star, f_hat = linear_instance(n, 1000, 20, 0.5, 0.5, seed=0)
        config = basic_config(model, theta_star, f_hat, s=100, kind=RT, max_iters=1500)
        assert trace_csv_text(run(config)) == trace_csv_text(vector_loop(config))

    @pytest.mark.parametrize("kind,s,seed", [(RT, 100, 0), (RT, 100, 3), (HT, 40, 5)])
    def test_support_product_drifts_from_the_full_product_within_rounding(self, kind, s, seed):
        # C10's shape over 1500 iterations: gathering the support columns
        # reorders sums only, so the run keeps its path and its values
        n = int(np.ceil(5 * 20 * np.log(1000)))
        model, theta_star, f_hat = linear_instance(n, 1000, 20, 0.5, 0.5, seed=seed)
        config = basic_config(model, theta_star, f_hat, s=s, kind=kind, max_iters=1500)
        got, old = run(config), vector_loop(config, full_product=True)
        assert got.status is old.status
        assert len(got) == len(old)
        np.testing.assert_array_equal(got.support_size, old.support_size)
        for name in ("f_value", "error_sq"):
            np.testing.assert_allclose(getattr(got, name), getattr(old, name), rtol=1e-12, atol=0.0)


class TestNoiselessRecovery:
    def test_exact_recovery_well_conditioned(self):
        # iid design, s = s*: the standard sanity check for the whole loop
        d, s_star = 300, 8
        n = int(np.ceil(8 * s_star * np.log(d)))
        for seed in range(3):
            model, theta_star, _ = linear_instance(n, d, s_star, 0.0, 1.0, seed=seed)
            # rebuild with exact responses to make the target value 0
            data = Dataset(X=model.data.X, y=model.data.X @ theta_star.values)
            model = ObjectiveModel(family=LINEAR, data=data)
            trace = run(basic_config(model, theta_star, 0.0, s=s_star, max_iters=500))
            assert trace.f_value[-1] < 1e-10
            assert trace.error_sq[-1] < 1e-8
            assert np.all(np.diff(trace.f_value) <= 1e-15)  # monotone decrease

    def test_recovery_faster_with_slack_sparsity(self):
        d, s_star = 400, 10
        n = int(np.ceil(8 * s_star * np.log(d)))
        model, theta_star, _ = linear_instance(n, d, s_star, 0.5, 1.0, seed=0)
        data = Dataset(X=model.data.X, y=model.data.X @ theta_star.values)
        model = ObjectiveModel(family=LINEAR, data=data)
        trace = run(basic_config(model, theta_star, 0.0, s=2 * s_star, max_iters=500))
        assert trace.status is RunStatus.CONVERGED
        assert trace.error_sq[-1] < 1e-8


class TestDimensionScalingOfSteps:
    def test_classic_steps_shrink_with_dimension_sparse_steps_do_not(self):
        # Matched statistical difficulty: n grows like s* log d.  Steps are
        # compared over the early productive phase (before the plateau, capped
        # at 40 iterations) where both rules still make progress; later
        # iterations only grind the gap down and carry no size information.
        from sparsepolyak.diagnostics import iters_to_plateau, plateau_level

        s_star, sigma = 20, 0.5
        medians = {}
        for d in (200, 2000):
            n = int(np.ceil(5 * s_star * np.log(d)))
            med_by_rule = {}
            for rule in (SPARSE_POLYAK, CLASSIC_POLYAK):
                steps = []
                for seed in range(3):
                    model, theta_star, f_hat = linear_instance(n, d, s_star, 0.5, sigma, seed=seed)
                    trace = run(basic_config(model, theta_star, f_hat, s=2 * s_star,
                                             step_kind=rule, max_iters=500))
                    hit = iters_to_plateau(trace.error_sq, plateau_level(trace.error_sq))
                    window = max(1, min(hit, 40))
                    steps.append(np.median(trace.step_size[:window]))
                med_by_rule[rule] = float(np.median(steps))
            medians[d] = med_by_rule
        assert medians[2000][CLASSIC_POLYAK] < medians[200][CLASSIC_POLYAK]
        ratio = medians[2000][SPARSE_POLYAK] / medians[200][SPARSE_POLYAK]
        assert 0.5 <= ratio <= 2.0


@pytest.fixture(scope="module")
def applicable_instance():
    # n large enough that mu_bar > 0 under the plug-in constants, and
    # sigma small enough that the guaranteed floor sits well below the
    # initial error ||theta*||^2
    d, s_star, s, n, sigma = 1000, 10, 40, 15000, 0.2
    design = DesignSpec(n=n, d=d, omega=0.5, column_normalize=True)
    truth = TruthSpec(d=d, s_star=s_star)
    noise = NoiseSpec(family=LINEAR, sigma=sigma)
    model, theta_star, f_hat = make_instance(design, truth, noise, seed=0)
    params = compute_regularity(design, s)
    assert params.theory_applicable
    ghat = gradient(model, theta_star)
    floor = theoretical_floor(params, np.linalg.norm(hard_threshold(ghat, s)))
    trace = run(basic_config(model, theta_star, f_hat, s=s, kind=RT, max_iters=300))
    return design, params, trace, floor, s, s_star, sigma


class TestContractionInvariants:
    def test_floor_confinement(self, applicable_instance):
        design, params, trace, floor, s, s_star, sigma = applicable_instance
        eta = relative_concavity_bound(RT, s_star, s)
        assert eta <= 0.25
        err = trace.error_sq
        below = np.flatnonzero(err < floor)
        assert below.size > 0, "run never reached the guaranteed floor"
        first = below[0]
        assert np.all(err[first:] <= (1.0 + 4.0 * eta) * floor * 1.01)

    def test_error_contracts_above_floor(self, applicable_instance):
        design, params, trace, floor, s, s_star, sigma = applicable_instance
        err = trace.error_sq
        above = [t for t in range(err.size - 1) if err[t] >= floor]
        assert len(above) >= 3, "need a nontrivial stretch above the floor"
        contracting = sum(err[t + 1] < err[t] for t in above)
        assert contracting >= 0.95 * len(above)

    def test_floor_matches_noise_scaling_within_order(self, applicable_instance):
        # the guaranteed radius should track sigma^2 s log(d) / (n mu_bar^2)
        # up to a moderate constant for a normalized design
        design, params, trace, floor, s, s_star, sigma = applicable_instance
        reference = 288.0 * sigma**2 * s * np.log(design.d) / (design.n * params.mu_bar**2)
        assert reference / 10.0 <= floor <= reference * 10.0

    def test_thresholding_deviation_inequality(self):
        # eta <= 1/4 configurations; the pre/post-threshold decomposition
        # must hold at every iteration up to rounding
        d, s_star = 300, 8
        n = int(np.ceil(5 * s_star * np.log(d)))
        for kind, s in ((HT, 4 * s_star), (RT, 4 * s_star)):
            eta = relative_concavity_bound(kind, s_star, s)
            assert eta <= 0.25
            model, theta_star, f_hat = linear_instance(n, d, s_star, 0.5, 0.5, seed=7)
            config = basic_config(model, theta_star, f_hat, s=s, kind=kind, max_iters=150)
            trace = run(config, keep_iterates=True)
            margins = decomposition_margins(trace, theta_star, eta)
            assert margins.size == len(trace) - 1
            assert np.all(margins >= -1e-9)
