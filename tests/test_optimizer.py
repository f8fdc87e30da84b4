"""Optimizer tests: step rules, loop contracts, recovery, contraction invariants."""

import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from sparsepolyak.dataio import trace_csv_text
from sparsepolyak.diagnostics import decomposition_margins, make_instance, step_target
from sparsepolyak.objectives import (
    LINEAR,
    GramRows,
    ObjectiveModel,
    objective_value,
    value_and_gradient,
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
    compute_regularity,
    generate_design,
    generate_truth,
)
from sparsepolyak.thresholding import HT, RT, ThresholdSpec, hard_threshold, relative_concavity_bound


def linear_instance(n, d, s_star, omega, sigma, seed):
    design = DesignSpec(n=n, d=d, omega=omega)
    noise = NoiseSpec(family=LINEAR, sigma=sigma)
    model, theta_star = make_instance(design, s_star, noise, seed)
    return model, theta_star, step_target(model, theta_star, None)


def basic_config(model, theta_star, f_hat, s, kind=HT, step_kind=SPARSE_POLYAK,
                 max_iters=300, fixed_gamma=None, ht_width="s"):
    rule = StepRule(kind=step_kind, f_hat=f_hat, ht_width=ht_width, fixed_gamma=fixed_gamma)
    return RunConfig(
        model=model,
        operator=ThresholdSpec(kind=kind, s=s),
        step_rule=rule,
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

    def test_grad_ht_norm_sq_boundary_ties(self):
        # three entries tie at |3| for two slots: any two of them give 18
        assert grad_ht_norm_sq(np.array([3.0, -3.0, 3.0, 1.0]), 2) == 18.0

    def test_grad_ht_norm_sq_width_equal_to_size(self):
        assert grad_ht_norm_sq(np.array([1.0, -2.0, 3.0]), 3) == 14.0

    def test_grad_ht_norm_sq_matches_the_hard_threshold_norm(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            g = rng.standard_normal(int(rng.integers(1, 300))) * 10.0 ** rng.uniform(-8, 8)
            w = int(rng.integers(1, g.size + 1))
            ht = hard_threshold(g, w)
            assert grad_ht_norm_sq(g, w) == pytest.approx(float(np.dot(ht, ht)), rel=1e-15, abs=0.0)

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
        for gamma in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="fixed_gamma"):
                StepRule(kind=FIXED, fixed_gamma=gamma)
        for kind, extra in ((SPARSE_POLYAK, {"f_hat": 0.0}), (CLASSIC_POLYAK, {"f_hat": 0.0}),
                            (FIXED, {"fixed_gamma": 0.1})):
            # every rule's trace records ||HT_w(grad)||^2, so every rule needs a valid width
            with pytest.raises(ValueError, match="ht_width"):
                StepRule(kind=kind, ht_width="3s", **extra)


class TestFixedStep:
    def test_formula_values(self):
        assert lhat_gamma(1.0, 500, 300) == pytest.approx(1.0 / 1.01)
        assert lhat_gamma(2.0, 7, 7) == pytest.approx(1.0 / 2.1)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            lhat_gamma(0.0, 5, 3)
        with pytest.raises(ValueError):
            lhat_gamma(1.0, 3, 5)

    def test_design_spectrum_matches_dense_eigensolve(self, ar1_covariance):
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
        config = replace(basic_config(model, theta_star, f_hat, s=5), theta0=theta_star)  # start at the target
        trace = run(config)
        assert len(trace) == 1
        assert trace.status is RunStatus.CONVERGED
        assert trace.step_size[0] == 0.0
        np.testing.assert_array_equal(trace.final_theta, theta_star)

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
        iters = [int(row.split(",")[0]) for row in trace_csv_text(trace).splitlines()[1:]]
        assert iters == list(range(len(trace)))
        assert len(trace) <= 26

    def test_deterministic_bit_for_bit(self):
        model, theta_star, f_hat = linear_instance(100, 50, 5, 0.5, 0.5, seed=4)
        t1 = run(basic_config(model, theta_star, f_hat, s=10, max_iters=60))
        t2 = run(basic_config(model, theta_star, f_hat, s=10, max_iters=60))
        for name in ("f_value", "step_size", "grad_ht_norm_sq", "error_sq"):
            assert getattr(t1, name).tobytes() == getattr(t2, name).tobytes()
        assert t1.final_theta.tobytes() == t2.final_theta.tobytes()

    def test_stall_terminates_with_distinct_status(self):
        # zero parameter is already stationary, but the target is unattainable
        model = ObjectiveModel(family=LINEAR, X=[[1.0, 0.0], [0.0, 1.0]], y=[0.0, 0.0])
        rule = StepRule(kind=SPARSE_POLYAK, f_hat=-1.0)
        config = RunConfig(
            model=model,
            operator=ThresholdSpec(kind=HT, s=1),
            step_rule=rule,
            theta0=np.zeros(2),
            max_iters=50,
            theta_star=np.zeros(2),
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

    @pytest.mark.parametrize("corrupt", ["nan_outside_top_w", "pos_inf", "neg_inf", "entry_1e200"])
    def test_non_finite_gradient_fails_at_its_iteration(self, monkeypatch, corrupt):
        # the finiteness check reads f and ||HT_w(g)||^2 only; a bad entry
        # anywhere in g, or a finite one whose square overflows, must make
        # the norm non-finite and stop the run
        from sparsepolyak import optimizer

        model, theta_star, f_hat = linear_instance(50, 20, 3, 0.0, 0.5, seed=5)
        config = basic_config(model, theta_star, f_hat, s=5, max_iters=50)
        real = optimizer.value_and_gradient
        calls = []

        def corrupted(model, Theta, gram, cols):
            F, G = real(model, Theta, gram, cols)
            calls.append(None)
            if len(calls) == 3:
                j = int(np.argmin(np.abs(G[0])))
                G[0, j] = {"nan_outside_top_w": np.nan, "pos_inf": np.inf, "neg_inf": -np.inf,
                           "entry_1e200": 1e200}[corrupt]
            return F, G

        monkeypatch.setattr(optimizer, "value_and_gradient", corrupted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OptimizerError, match=r"iteration 2 \(operator ht, s = 5\)"):
                run(config)

    def test_non_finite_step_size_fails_at_its_iteration(self, monkeypatch):
        # gamma = inf (a positive gap over a subnormal denominator) would put
        # inf * 0 = NaN into z; the cell must stop before the operator
        from sparsepolyak import optimizer

        model, theta_star, f_hat = linear_instance(50, 20, 3, 0.0, 0.5, seed=5)
        config = basic_config(model, theta_star, f_hat, s=5, max_iters=50)
        real = optimizer.sparse_polyak_step
        calls = []

        def overflowing(f_val, f_hat, ht_norm_sq):
            calls.append(None)
            return np.inf if len(calls) == 3 else real(f_val, f_hat, ht_norm_sq)

        monkeypatch.setattr(optimizer, "sparse_polyak_step", overflowing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OptimizerError, match=r"iteration 2 \(operator ht, s = 5\)"):
                run(config)

    def test_initial_point_sparsity_validated(self):
        model, theta_star, f_hat = linear_instance(50, 20, 3, 0.0, 0.5, seed=6)
        config = basic_config(model, theta_star, f_hat, s=2)
        with pytest.raises(ValueError, match="20 nonzeros, exceeding s = 2"):
            replace(config, theta0=np.ones(20))

    @pytest.mark.parametrize("field, value, message", [
        ("theta0", np.zeros(19), r"theta0 has shape \(19,\), expected \(20,\)"),
        ("theta_star", np.zeros((1, 20)), r"theta_star has shape \(1, 20\), expected \(20,\)"),
    ], ids=["theta0", "theta_star"])
    def test_parameter_shape_validated(self, field, value, message):
        model, theta_star, f_hat = linear_instance(50, 20, 3, 0.0, 0.5, seed=6)
        config = basic_config(model, theta_star, f_hat, s=2)
        with pytest.raises(ValueError, match=message):
            replace(config, **{field: value})

    @pytest.mark.parametrize("seed, updates", [(1, 291), (2, 320), (4, 308)])
    def test_noiseless_high_signal_run_keeps_its_stop(self, seed, updates, fresh_python):
        # y = X theta* with theta* scaled by 30, so ||y||^2 / 2n is 1e4 to 2e4
        # while the run stops at f <= 1e-12: the loss must not cancel terms
        # of the size of ||y||^2 / 2n (the zero anchor stops these runs
        # early, one at f = -3.6e-12).  The run's last bits depend on the
        # BLAS thread count, read when numpy loads its BLAS, so the counts
        # are pinned in a fresh interpreter at 1 thread.
        code = (
            "import numpy as np\n"
            "from sparsepolyak.config import derived_n\n"
            "from sparsepolyak.objectives import LINEAR, ObjectiveModel, objective_value\n"
            "from sparsepolyak.optimizer import RunConfig, StepRule, run\n"
            "from sparsepolyak.synthdata import DesignSpec, generate_design, generate_truth\n"
            "from sparsepolyak.thresholding import ThresholdSpec\n"
            f"d, s_star, seed = 1000, 20, {seed}\n"
            "X = generate_design(DesignSpec(n=derived_n(5.0, s_star, d), d=d, omega=0.5), seed)\n"
            "theta_star = 30.0 * generate_truth(d, s_star, seed)\n"
            "model = ObjectiveModel(family=LINEAR, X=X, y=X @ theta_star)\n"
            "trace = run(RunConfig(model=model, operator=ThresholdSpec(kind='ht', s=40),\n"
            "                      step_rule=StepRule(kind='sparse_polyak', f_hat=0.0), max_iters=1500,\n"
            "                      theta_star=theta_star))\n"
            "print(trace.status.name, len(trace), float(trace.f_value[-1]),\n"
            "      float(objective_value(model, trace.final_theta)))\n"
        )
        one = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
        status, length, f_last, f_residual = fresh_python(code, one).split()
        assert status == RunStatus.CONVERGED.name
        assert int(length) == updates + 1
        assert abs(float(f_last) - float(f_residual)) <= 1e-3 * float(f_residual)

    def test_config_is_frozen(self):
        model, theta_star, f_hat = linear_instance(50, 20, 3, 0.0, 0.5, seed=6)
        config = basic_config(model, theta_star, f_hat, s=2)
        with pytest.raises(FrozenInstanceError):
            config.theta0 = np.ones(20)
        # theta0 defaults to the zero vector of the model's dimension
        assert config.theta0.dtype == float and config.theta0.shape == (20,)
        assert np.count_nonzero(config.theta0) == 0


def vector_loop(config, full_product=False):
    """The per-cell loop on GEMV products, for linear sparse Polyak cells; the reference for `run`.

    The gradient comes from one product over the cached Gram rows of the
    columns the supports have used, when the support fits the cache, and
    f from it by the identity f(a) + (theta - a) . (g + g_a) / 2 at the
    truth a, over the columns where theta or a is nonzero; else f and the
    gradient come from X[:, S] theta[S] on the iterate's support S and
    X' r / n, as `run` computes them.  With full_product, they are the
    full X theta and X' r / n on a row-major copy of X, kernels that
    gather no columns (the drift reference).
    """
    model, op, rule = config.model, config.operator, config.step_rule
    X = np.ascontiguousarray(model.X) if full_product else model.X
    y, n = model.y, model.n
    theta, truth = config.theta0.copy(), config.theta_star
    gram = GramRows(model, truth)
    width = min(op.s if rule.ht_width == "s" else 2 * op.s, model.d)
    rows, status = [], RunStatus.MAX_ITERS
    for t in range(config.max_iters + 1):
        cols = np.flatnonzero(theta)
        Y = None if full_product else gram.product(theta, cols)
        if Y is None:
            S = slice(None) if full_product else cols
            r = X[:, S] @ theta[S] - y
            g = X.T @ r / n
            f = float(0.5 * np.dot(r, r) / n)
        else:
            g = Y - gram.xty
            idx = np.union1d(cols, np.flatnonzero(truth))
            f = float(gram.anchor_value + 0.5 * np.dot(theta[idx] - truth[idx], g[idx] + gram.anchor_grad[idx]))
        ht = grad_ht_norm_sq(g, width)
        gamma = sparse_polyak_step(f, rule.f_hat, ht)
        diff = theta - truth
        rows.append((f, gamma, ht, float(np.dot(diff, diff)), int(np.count_nonzero(theta))))
        if f - rule.f_hat <= 1e-12 * (abs(rule.f_hat) + 1.0):
            status = RunStatus.CONVERGED
            break
        if t == config.max_iters:
            break
        theta = op.apply(theta - gamma * g)
    f, gamma, ht, err, nnz = (np.array(col) for col in zip(*rows))
    return RunTrace(f_value=f, step_size=gamma, grad_ht_norm_sq=ht, error_sq=err,
                    support_size=nnz, status=status, final_theta=theta)


def zero_response_model(kind):
    """A model whose zero parameter is exactly stationary: the 2 x 2 identity, or a 60 x 40 design."""
    if kind == "identity":
        return ObjectiveModel(family=LINEAR, X=np.eye(2), y=np.zeros(2)), (1, 2)
    X = np.random.default_rng(11).standard_normal((60, 40))
    return ObjectiveModel(family=LINEAR, X=X, y=np.zeros(60)), (3, 6)


def mixed_configs(model, s_lo, s_hi):
    """HT/RT cells at two sparsities under all three rules, plus an instant and a stalled cell."""
    d = model.d
    start = np.random.default_rng(12).standard_normal(d)
    zero = np.zeros(d)
    gamma = model.n / np.linalg.norm(model.X, 2) ** 2

    def cell(kind, s, step_kind, max_iters, f_hat=0.0, theta0=None, ht_width="s"):
        if theta0 is None:
            theta0 = hard_threshold(start, s)
        rule = StepRule(kind=step_kind, f_hat=f_hat, ht_width=ht_width,
                        fixed_gamma=gamma if step_kind == FIXED else None)
        return RunConfig(model=model, operator=ThresholdSpec(kind=kind, s=s), step_rule=rule,
                         theta0=theta0, max_iters=max_iters, theta_star=zero)

    return [
        cell(HT, s_hi, SPARSE_POLYAK, 400),
        cell(RT, s_lo, SPARSE_POLYAK, 60, ht_width="2s"),
        cell(HT, s_lo, CLASSIC_POLYAK, 400),
        cell(RT, s_hi, CLASSIC_POLYAK, 7),
        cell(HT, s_hi, FIXED, 90),
        cell(RT, s_lo, FIXED, 300),
        cell(RT, s_hi, SPARSE_POLYAK, 50, f_hat=1e6),  # converges at iteration 0
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
        batch = run_batch(configs)
        singles = [run(c) for c in configs]
        for b, single in zip(batch, singles):
            assert_same_cell(b, single)
        statuses = [b.status for b in batch]
        assert statuses[6:] == [RunStatus.CONVERGED, RunStatus.STALLED_ZERO_GRADIENT]
        assert len(batch[6]) == len(batch[7]) == 1
        assert {RunStatus.CONVERGED, RunStatus.MAX_ITERS} <= set(statuses[:6])

    def test_final_theta_owns_its_memory(self, monkeypatch):
        # a view would keep the B x d batch buffer alive and writable
        from sparsepolyak import optimizer

        model, (s_lo, s_hi) = zero_response_model("design")
        real = optimizer.value_and_gradient
        buffers = []

        def recording(model, Theta, gram, cols):
            buffers.append(Theta)
            return real(model, Theta, gram, cols)

        monkeypatch.setattr(optimizer, "value_and_gradient", recording)
        traces = run_batch(mixed_configs(model, s_lo, s_hi))
        for trace in traces:
            assert not any(np.shares_memory(trace.final_theta, Theta) for Theta in buffers)

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

    @pytest.mark.parametrize("kind,s", [(HT, 10), (RT, 25)])
    def test_one_cell_product_reads_only_the_support_rows(self, monkeypatch, kind, s):
        # a column entering the support takes the slot of the one that left,
        # so the product multiplies the carried support's rows and no stale ones
        model, theta_star, f_hat = linear_instance(200, 300, 5, 0.5, 0.5, seed=1)
        product, calls = GramRows.product, []

        def recording(gram, v, cols):
            Y = product(gram, v, cols)
            calls.append((gram.used, cols.copy()))
            return Y

        monkeypatch.setattr(GramRows, "product", recording)
        trace = run(basic_config(model, theta_star, f_hat, s=s, kind=kind, max_iters=300))
        assert len(calls) == len(trace) and calls[0][1].size == 0
        assert all(used == cols.size for used, cols in calls)
        supports = {cols.tobytes() for _, cols in calls[1:]}
        assert len(supports) > 1  # the support moved after the first fill

    @pytest.mark.parametrize("kind,s,seed", [(RT, 100, 0), (RT, 100, 3), (HT, 40, 5)])
    def test_support_product_drifts_from_the_full_product_within_rounding(self, kind, s, seed):
        # C10's shape over 1500 iterations: gathering the support columns and
        # the Gram-row gradient reorder sums only, so the run keeps its path
        # and its values
        n = int(np.ceil(5 * 20 * np.log(1000)))
        model, theta_star, f_hat = linear_instance(n, 1000, 20, 0.5, 0.5, seed=seed)
        config = basic_config(model, theta_star, f_hat, s=s, kind=kind, max_iters=1500)
        got, old = run(config), vector_loop(config, full_product=True)
        assert got.status is old.status
        assert len(got) == len(old)
        np.testing.assert_array_equal(got.support_size, old.support_size)
        for name in ("f_value", "error_sq"):
            np.testing.assert_allclose(getattr(got, name), getattr(old, name), rtol=1e-12, atol=0.0)


DESK = {"default": (HT, 40, SPARSE_POLYAK), "rt_s100": (RT, 100, SPARSE_POLYAK), "fixed": (HT, 40, FIXED)}


def desk_traces(label):
    """The desk config `label` at seed 0 (d = 1000, s* = 20, 1500 iterations), as `sparsepolyak run` builds it."""
    from sparsepolyak.config import resolve_config
    from sparsepolyak.optimizer import make_step_rule

    kind, s, step = DESK[label]
    cfg = resolve_config({"noise.sigma": 0.5, "design.d": 1000, "design.omega": 0.5, "truth.s_star": 20,
                          "operator.kind": kind, "operator.s": s, "step.kind": step})
    model, theta_star = make_instance(cfg.design, cfg.s_star, cfg.noise, 0)
    f_hat = step_target(model, theta_star, None)
    rule = make_step_rule(step, f_hat, cfg.ht_width, cfg.design, s, 20)
    return [run(RunConfig(model=model, operator=ThresholdSpec(kind=kind, s=s), step_rule=rule, max_iters=1500,
                          theta_star=theta_star))]


def logistic_grid_traces():
    """One logistic grid instance: HT and RT at three sparsity levels in one batch."""
    from sparsepolyak.diagnostics import run_instance_cells

    design = DesignSpec(n=int(np.ceil(5 * 10 * np.log(300))), d=300, omega=0.5)
    cells = [(ThresholdSpec(kind=kind, s=s), SPARSE_POLYAK) for kind in (HT, RT) for s in (10, 20, 30)]
    runs = run_instance_cells(design, 10, NoiseSpec(family="logistic"), 0, cells, 150)
    return [trace for trace, _, _ in runs]


class TestCarriedSupport:
    """A cell's carried support, the step's guess of the next top-s set, changes no bit of a run, and is used."""

    @staticmethod
    def count_steps(monkeypatch, guess):
        """Patch the operator to count steps and partitions; without `guess`, never certify."""
        from sparsepolyak import thresholding

        counts = {"steps": 0, "partitioned": 0}
        step, top_s_mask = ThresholdSpec.step, thresholding._top_s_mask

        def counted_step(op, theta, gamma, g, support, scratch=None):
            counts["steps"] += 1
            if not guess:
                support = support[:0]  # a support shorter than s is never certified
            return step(op, theta, gamma, g, support, scratch)

        def counted_top_s_mask(a, s):
            counts["partitioned"] += 1
            return top_s_mask(a, s)

        monkeypatch.setattr(ThresholdSpec, "step", counted_step)
        monkeypatch.setattr(thresholding, "_top_s_mask", counted_top_s_mask)
        return counts

    @pytest.mark.parametrize("label", ["default", "rt_s100", "fixed", "logistic_grid"])
    def test_guess_keeps_the_bits(self, monkeypatch, label):
        make = logistic_grid_traces if label == "logistic_grid" else lambda: desk_traces(label)
        with monkeypatch.context() as patch:
            off = self.count_steps(patch, guess=False)
            unguessed = make()
        on = self.count_steps(monkeypatch, guess=True)
        guessed = make()
        selections = sum(len(trace) - 1 for trace in guessed)
        assert on["steps"] == off["steps"] == off["partitioned"] == selections
        for a, b in zip(guessed, unguessed):
            assert a.status is b.status
            for name in ("f_value", "step_size", "grad_ht_norm_sq", "error_sq",
                         "support_size", "final_theta"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        if label == "default":
            # the certified step must serve most selections, or the carried support does nothing
            assert on["partitioned"] <= 0.1 * selections

    def test_negative_zero_start_ends_with_positive_zeros(self):
        # certified steps leave the zeros off the support alone, and the operator writes +0.0 there
        model, theta_star, f_hat = linear_instance(200, 300, 5, 0.5, 0.1, seed=2)
        theta0 = np.where(theta_star != 0.0, theta_star, -0.0)
        config = replace(basic_config(model, theta_star, f_hat, s=5, max_iters=5), theta0=theta0)
        final = run(config).final_theta
        assert np.count_nonzero(final) == 5 and not np.signbit(final[final == 0.0]).any()

    def test_every_step_writes_the_batch_row(self, monkeypatch):
        # each step writes its row of the batch buffer in place, and most keep the carried support
        from sparsepolyak import optimizer

        real_vg, real_step = optimizer.value_and_gradient, ThresholdSpec.step
        buffers, rows = [], []

        def recording_vg(model, Theta, gram, cols):
            buffers.append(Theta)
            return real_vg(model, Theta, gram, cols)

        def recording_step(op, theta, gamma, g, support, scratch=None):
            kept = real_step(op, theta, gamma, g, support, scratch)
            rows.append((np.shares_memory(theta, buffers[-1]), kept is support))
            return kept

        monkeypatch.setattr(optimizer, "value_and_gradient", recording_vg)
        monkeypatch.setattr(ThresholdSpec, "step", recording_step)
        desk_traces("default")
        assert rows and all(in_buffer for in_buffer, _ in rows)
        assert sum(same_support for _, same_support in rows) >= 0.9 * len(rows)


class TestNoiselessRecovery:
    def test_exact_recovery_well_conditioned(self):
        # iid design, s = s*: the standard sanity check for the whole loop
        d, s_star = 300, 8
        n = int(np.ceil(8 * s_star * np.log(d)))
        for seed in range(3):
            model, theta_star, _ = linear_instance(n, d, s_star, 0.0, 1.0, seed=seed)
            # rebuild with exact responses to make the target value 0
            model = ObjectiveModel(family=LINEAR, X=model.X, y=model.X @ theta_star)
            trace = run(basic_config(model, theta_star, 0.0, s=s_star, max_iters=500))
            assert trace.f_value[-1] < 1e-10
            assert trace.error_sq[-1] < 1e-8
            assert np.all(np.diff(trace.f_value) <= 1e-15)  # monotone decrease

    def test_recovery_faster_with_slack_sparsity(self):
        d, s_star = 400, 10
        n = int(np.ceil(8 * s_star * np.log(d)))
        model, theta_star, _ = linear_instance(n, d, s_star, 0.5, 1.0, seed=0)
        model = ObjectiveModel(family=LINEAR, X=model.X, y=model.X @ theta_star)
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
    design = DesignSpec(n=n, d=d, omega=0.5)
    noise = NoiseSpec(family=LINEAR, sigma=sigma)
    model, theta_star = make_instance(design, s_star, noise, seed=0)
    f_hat = step_target(model, theta_star, None)
    params = compute_regularity(design, s)
    assert params.theory_applicable
    ghat = value_and_gradient(model, theta_star)[1]
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
        # up to a moderate constant
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
            trace = run(config)
            margins = decomposition_margins(config, trace, theta_star, eta)
            assert margins.size == len(trace) - 1
            assert np.all(margins >= -1e-9)
