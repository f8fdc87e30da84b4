"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines and timings.  Criteria 6 and 7 share one dimension sweep.

Criterion 4 asserts exact noiseless recovery with hard thresholding at the
minimal sparsity level s = s* on a correlated design.  That configuration
has spurious fixed points (a too-small truth entry can be permanently
displaced by a correlated column): seeds 0 and 7 settle on one, which no
budget recovers, while seed 3 is a budget miss that converges at iteration
544.  The test states the requirement faithfully and reports the per-seed
outcomes when it fails.  Recovery at s = 2 s*, with an uncorrelated design,
or with the reciprocal operator is exercised in the module suites and
succeeds on every seed.
"""

import time

import numpy as np
import pytest

from sparsepolyak.dataio import trace_csv_text
from sparsepolyak.diagnostics import (
    active_median_step,
    check_assumptions,
    contraction_profile,
    iters_to_plateau,
    make_instance,
    plateau_level,
    run_instance_cells,
    summarize_comparison,
)
from sparsepolyak.objectives import (
    LINEAR,
    LOGISTIC,
    ObjectiveModel,
    objective_value,
    value_and_gradient,
)
from sparsepolyak.optimizer import (
    CLASSIC_POLYAK,
    FIXED,
    SPARSE_POLYAK,
    RunConfig,
    StepRule,
    run,
)
from sparsepolyak.synthdata import (
    DesignSpec,
    NoiseSpec,
    compute_regularity,
    generate_design,
    generate_truth,
)
from sparsepolyak.thresholding import (
    HT,
    RT,
    ThresholdSpec,
    empirical_relative_concavity,
    hard_threshold,
    reciprocal_threshold,
    relative_concavity_bound,
)

SEEDS = list(range(11))


def report(criterion, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE C{criterion:02d} {status} ({elapsed:.1f}s / budget {budget:.0f}s): {detail}")


class TestC01OperatorUnitSuite:
    BUDGET = 5.0

    def test_operator_examples_and_invariants(self):
        t0 = time.time()
        np.testing.assert_array_equal(hard_threshold(np.array([3.0, -5.0, 2.0, 0.5]), 2),
                                      [3.0, -5.0, 0.0, 0.0])
        np.testing.assert_array_equal(hard_threshold(np.array([1.0, 2.0]), 2), [1.0, 2.0])
        np.testing.assert_array_equal(hard_threshold(np.zeros(3), 1), np.zeros(3))
        np.testing.assert_allclose(
            reciprocal_threshold(np.array([3.0, 2.0, 1.0]), 2),
            [1.5 + np.sqrt(8.0) / 2.0, 1.0 + np.sqrt(3.0) / 2.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(reciprocal_threshold(np.array([2.0, 2.0, 2.0]), 2),
                                   [1.0, 1.0, 0.0], atol=1e-12)
        np.testing.assert_array_equal(reciprocal_threshold(np.array([5.0, -4.0]), 2), [5.0, -4.0])

        rng = np.random.default_rng(0)
        n_vectors, dim, s = 100000, 16, 5
        V = rng.standard_normal((n_vectors, dim)) * 10.0 ** rng.uniform(-3, 3, size=(n_vectors, 1))
        out = reciprocal_threshold(V, s)
        kept = out != 0.0
        assert np.all(np.count_nonzero(out, axis=1) <= s)
        assert np.all(np.abs(out[kept]) <= np.abs(V[kept]) + 1e-15)
        assert np.all(np.abs(out[kept]) >= 0.5 * np.abs(V[kept]) - 1e-15)
        assert np.all(np.sign(out[kept]) == np.sign(V[kept]))
        ht_out = hard_threshold(V, s)
        assert np.all(np.einsum("ij,ij->i", out, out) <= np.einsum("ij,ij->i", ht_out, ht_out) + 1e-12)

        elapsed = time.time() - t0
        report(1, True, f"operator examples exact, RT invariants on {n_vectors} vectors", elapsed, self.BUDGET)
        assert elapsed < self.BUDGET


@pytest.mark.slow
class TestC02ConcavityCertification:
    BUDGET = 60.0

    def test_all_cells_within_bounds_and_search_is_tight(self):
        t0 = time.time()
        ht_achievement = 0.0
        worst_excess = -np.inf
        cells = 0
        for dim in range(1, 9):
            for s in range(1, min(4, dim) + 1):
                for s_star in range(1, s + 1):
                    for kind in (HT, RT):
                        est = empirical_relative_concavity(
                            ThresholdSpec(kind=kind, s=s), s_star, dim, trials=50000, seed=2024)
                        assert est.trials >= 100000
                        cells += 1
                        bound = est.theoretical_bound
                        if bound is None:
                            continue
                        worst_excess = max(worst_excess, est.estimate - bound)
                        assert est.estimate <= bound + 1e-9, (
                            f"{kind} s*={s_star} s={s} dim={dim}: {est.estimate} > {bound}")
                        if kind == HT:
                            ht_achievement = max(ht_achievement, est.estimate / bound)
        assert ht_achievement >= 0.9
        elapsed = time.time() - t0
        report(2, True,
               f"{cells} cells, worst excess {worst_excess:.2e}, best HT achievement {ht_achievement:.3f}",
               elapsed, self.BUDGET)
        assert elapsed < self.BUDGET


class TestC03GradientCorrectness:
    BUDGET = 10.0

    def test_analytic_gradient_matches_central_differences(self):
        t0 = time.time()
        rng = np.random.default_rng(7)
        worst = 0.0
        for family in (LINEAR, LOGISTIC):
            for _ in range(100):
                n = int(rng.integers(3, 21))
                d = int(rng.integers(2, 21))
                X = rng.standard_normal((n, d))
                y = rng.standard_normal(n) if family == LINEAR else rng.integers(0, 2, n).astype(float)
                model = ObjectiveModel(family=family, X=X, y=y)
                theta = rng.standard_normal(d)
                g = value_and_gradient(model, theta)[1]
                fd = np.empty(d)
                for i in range(d):
                    h = 1e-6 * (1.0 + abs(theta[i]))
                    up, dn = theta.copy(), theta.copy()
                    up[i] += h
                    dn[i] -= h
                    fd[i] = (objective_value(model, up) - objective_value(model, dn)) / (2 * h)
                rel = np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1e-3))
                worst = max(worst, rel)
                assert rel <= 1e-5
        elapsed = time.time() - t0
        report(3, True, f"200 instances, worst relative error {worst:.2e}", elapsed, self.BUDGET)
        assert elapsed < self.BUDGET


class TestC04NoiselessExactRecovery:
    BUDGET = 120.0

    def test_recovery_at_minimal_sparsity_all_seeds(self):
        t0 = time.time()
        d, s_star, omega = 1000, 20, 0.5
        n = int(np.ceil(8 * s_star * np.log(d)))
        outcomes = []
        for seed in SEEDS:
            design = DesignSpec(n=n, d=d, omega=omega)
            X = generate_design(design, seed)
            theta_star = generate_truth(d, s_star, seed)
            model = ObjectiveModel(family=LINEAR, X=X, y=X @ theta_star)
            config = RunConfig(
                model=model,
                operator=ThresholdSpec(kind=HT, s=s_star),
                step_rule=StepRule(kind=SPARSE_POLYAK, f_hat=0.0),
                theta0=np.zeros(d),
                max_iters=500,
                theta_star=theta_star,
            )
            trace = run(config)
            ok = trace.f_value[-1] < 1e-10 and trace.error_sq[-1] < 1e-8
            outcomes.append((seed, ok, float(trace.f_value[-1]), float(trace.error_sq[-1]),
                             float(np.min(np.abs(theta_star[theta_star != 0])))))
        elapsed = time.time() - t0
        assert elapsed < self.BUDGET
        n_ok = sum(1 for _, ok, *_ in outcomes if ok)
        report(4, n_ok == len(SEEDS),
               f"{n_ok}/{len(SEEDS)} seeds recovered (HT at s = s* on a correlated design)",
               elapsed, self.BUDGET)
        if n_ok != len(SEEDS):
            table = "\n".join(
                f"  seed {seed}: {'ok ' if ok else 'FAIL'} f_T={f:.3e} err_sq={e:.3e} min|truth|={m:.3f}"
                for seed, ok, f, e, m in outcomes)
            pytest.fail(
                "noiseless exact recovery with hard thresholding at s = s* did not hold on "
                f"{len(SEEDS) - n_ok} of {len(SEEDS)} seeds within 500 iterations.\n"
                "Hard thresholding at the minimal sparsity level admits spurious fixed points: "
                "when the smallest truth magnitude is small relative to the design correlation, "
                "a wrong support can become stationary.  Seeds 0 and 7 are such fixed points, "
                "which no iteration budget recovers; seed 3 is a budget miss that converges at "
                "iteration 544.  The same instances succeed with s = 2 s*, with an uncorrelated "
                "design, or with the reciprocal operator (see the optimizer test suite).\n" + table)


@pytest.fixture(scope="module")
def noisy_linear_sweep():
    """Shared runs for criteria 6 and 7: d in {250, 500, 1000} at matched difficulty."""
    t0 = time.time()
    s_star, sigma, omega, s = 20, 0.5, 0.5, 40
    results = {}
    for d in (250, 500, 1000):
        n = int(np.ceil(5 * s_star * np.log(d)))
        design = DesignSpec(n=n, d=d, omega=omega)
        noise = NoiseSpec(family=LINEAR, sigma=sigma)
        rules = (SPARSE_POLYAK, CLASSIC_POLYAK)
        op = ThresholdSpec(kind=HT, s=s)
        for seed in SEEDS:
            runs = run_instance_cells(design, s_star, noise, seed, [(op, rule) for rule in rules],
                                      max_iters=1500)
            for rule, (trace, _, _) in zip(rules, runs):
                results[(d, rule, seed)] = trace
    return results, time.time() - t0


class TestC05ContractionAndFloor:
    BUDGET = 300.0

    def test_above_plateau_contraction_and_floor_confinement(self):
        t0 = time.time()
        d, s_star, sigma, omega = 1000, 20, 0.5, 0.5
        n = int(np.ceil(5 * s_star * np.log(d)))
        s_grid = [s_star, 2 * s_star, 3 * s_star, 4 * s_star, 5 * s_star]
        design = DesignSpec(n=n, d=d, omega=omega)

        # plug-in constants: choose the smallest grid s with s >= 320 kappa_bar s*
        # when the constants apply; they do not at this sample size (mu_bar < 0),
        # so the largest grid value is used and the guaranteed rate bound
        # degenerates to its kappa -> infinity limit, i.e. plain contraction.
        chosen_s = None
        for s in s_grid:
            params = compute_regularity(design, s)
            if params.kappa_bar is not None and s >= 320 * params.kappa_bar * s_star:
                chosen_s = s
                break
        feasible = chosen_s is not None
        if not feasible:
            chosen_s = s_grid[-1]
        params = compute_regularity(design, chosen_s)
        rate_bound = 1.0 if params.kappa_bar is None else 1.0 - 1.0 / (80.0 * params.kappa_bar)
        eta = relative_concavity_bound(RT, s_star, chosen_s)
        confinement = 1.01 * (1.0 + 4.0 * eta)

        noise = NoiseSpec(family=LINEAR, sigma=sigma)
        pooled_ratios = []
        confinement_ok = []
        for seed in SEEDS:
            trace = run_instance_cells(design, s_star, noise, seed,
                                       [(ThresholdSpec(kind=RT, s=chosen_s), SPARSE_POLYAK)],
                                       max_iters=1500)[0][0]
            level = plateau_level(trace.error_sq)
            ratios, _ = contraction_profile(trace, floor=level)
            pooled_ratios.extend(ratios.tolist())
            first = int(np.argmax(trace.error_sq <= level))
            confinement_ok.append(bool(np.all(trace.error_sq[first:] <= confinement * level)))

        frac = float(np.mean(np.array(pooled_ratios) <= rate_bound))
        ok = frac >= 0.95 and all(confinement_ok)
        elapsed = time.time() - t0
        report(5, ok,
               f"s={chosen_s} (320*kappa*s* {'feasible' if feasible else 'infeasible; plug-in mu_bar='}"
               f"{'' if feasible else f'{params.mu_bar:.3f}'}), rate bound {rate_bound:.6f}, "
               f"{frac:.1%} of above-plateau steps within bound, confinement {sum(confinement_ok)}/{len(SEEDS)}",
               elapsed, self.BUDGET)
        assert frac >= 0.95
        assert all(confinement_ok)
        assert elapsed < self.BUDGET


@pytest.mark.slow
class TestC06PrecisionScaling:
    BUDGET = 600.0

    def test_plateau_error_constant_across_dimension(self, noisy_linear_sweep):
        runs, sweep_seconds = noisy_linear_sweep
        medians = {}
        for d in (250, 500, 1000):
            levels = [plateau_level(runs[(d, SPARSE_POLYAK, seed)].error_sq) for seed in SEEDS]
            medians[d] = float(np.median(levels))
        spread = max(medians.values()) / min(medians.values())
        ok = spread <= 3.0
        report(6, ok, f"median plateau error^2 by d: {medians}, spread {spread:.2f} (<= 3)",
               sweep_seconds, self.BUDGET)
        assert ok
        assert sweep_seconds < self.BUDGET


@pytest.mark.slow
class TestC07RateInvariance:
    BUDGET = 600.0

    def test_iterations_invariant_and_classic_steps_shrink(self, noisy_linear_sweep):
        runs, sweep_seconds = noisy_linear_sweep
        iters_med = {}
        classic_step_med = {}
        for d in (250, 500, 1000):
            hits = []
            steps = []
            for seed in SEEDS:
                sparse = runs[(d, SPARSE_POLYAK, seed)]
                hits.append(iters_to_plateau(sparse.error_sq, plateau_level(sparse.error_sq)))
                classic = runs[(d, CLASSIC_POLYAK, seed)]
                hit_c = iters_to_plateau(classic.error_sq, plateau_level(classic.error_sq))
                steps.append(active_median_step(classic.step_size, hit_c))
            iters_med[d] = float(np.median(hits))
            classic_step_med[d] = float(np.median(steps))
        spread = max(iters_med.values()) / min(iters_med.values())
        decreasing = classic_step_med[250] > classic_step_med[500] > classic_step_med[1000]
        ok = spread <= 2.0 and decreasing
        report(7, ok,
               f"sparse iters-to-plateau {iters_med} spread {spread:.2f} (<= 2); "
               f"classic active median steps {classic_step_med} strictly decreasing: {decreasing}",
               sweep_seconds, self.BUDGET)
        assert spread <= 2.0
        assert decreasing
        assert sweep_seconds < self.BUDGET


@pytest.mark.slow
class TestC08QuarterScaleLogisticReplication:
    BUDGET = 900.0
    ITER_BUDGET = 150  # mid-transient: grid search still differentiates the operators

    def test_grid_search_orderings(self):
        t0 = time.time()
        d, s_star, omega = 1250, 75, 0.5
        n = int(np.ceil(5 * s_star * np.log(d)))
        grid = [75, 100, 125, 150, 175]
        design = DesignSpec(n=n, d=d, omega=omega)
        noise = NoiseSpec(family=LOGISTIC)

        sparse_detail = []
        fixed_finals = {s: [] for s in grid}
        cells = ([(ThresholdSpec(kind=kind, s=s), SPARSE_POLYAK) for s in grid for kind in (HT, RT)]
                 + [(ThresholdSpec(kind=HT, s=s), FIXED) for s in grid])
        for seed in SEEDS:
            runs = run_instance_cells(design, s_star, noise, seed, cells, max_iters=self.ITER_BUDGET)
            for (op, rule), (trace, _, hit) in zip(cells, runs):
                if rule == FIXED:
                    fixed_finals[op.s].append(float(trace.error_sq[-1]))
                else:
                    sparse_detail.append((op.kind, op.s, seed, float(trace.error_sq[-1]), hit))

        rows = summarize_comparison(sparse_detail, grid)
        fixed_medians = {s: float(np.median(v)) for s, v in fixed_finals.items()}
        fixed_best = min(fixed_medians.values())
        sparse_best = min(rows[HT].final_error_sq, rows[RT].final_error_sq)

        a = sparse_best < fixed_best
        b = rows[RT].best_s <= rows[HT].best_s
        c = rows[RT].final_error_sq <= rows[HT].final_error_sq
        elapsed = time.time() - t0
        report(8, a and b and c,
               f"T={self.ITER_BUDGET}: sparse best {sparse_best:.3f} vs fixed best {fixed_best:.3f} (a={a}); "
               f"RT best_s {rows[RT].best_s} <= HT best_s {rows[HT].best_s} (b={b}); "
               f"RT median {rows[RT].final_error_sq:.3f} <= HT median {rows[HT].final_error_sq:.3f} (c={c})",
               elapsed, self.BUDGET)
        assert a, "sparse polyak did not beat the fixed step at equal iteration budget"
        assert b, "reciprocal thresholding required a larger grid sparsity than hard thresholding"
        assert c, "reciprocal thresholding ended with a larger median error than hard thresholding"
        assert elapsed < self.BUDGET


class TestC09AssumptionCheckers:
    BUDGET = 120.0

    def test_soundness_and_power(self):
        t0 = time.time()
        d, s = 1000, 20
        n = int(np.ceil(4 * s * np.log(d)))
        design = DesignSpec(n=n, d=d, omega=0.5)
        model, _ = make_instance(design, 10, NoiseSpec(family=LINEAR, sigma=0.5), seed=0)
        params = compute_regularity(design, s)
        sound_rsc, sound_rss, _ = check_assumptions(model, params, pairs=10000, seed=0)
        from sparsepolyak.synthdata import RegularityParams

        inflated = RegularityParams(mu=10.0 * params.mu, L=params.L, tau=params.tau, s=s)
        power = check_assumptions(model, inflated, pairs=10000, seed=0)[0]
        ok = sound_rsc.violations == 0 and sound_rss.violations == 0 and power.violations > 0
        elapsed = time.time() - t0
        report(9, ok,
               f"exact constants: rsc {sound_rsc.violations}/10000, rss {sound_rss.violations}/10000 "
               f"violations; mu x10: {power.violations} violations (must be > 0)",
               elapsed, self.BUDGET)
        assert sound_rsc.violations == 0
        assert sound_rss.violations == 0
        assert power.violations > 0
        assert elapsed < self.BUDGET


class TestC10Determinism:
    BUDGET = 120.0

    def test_repeated_run_reproduces_trace_bytes(self):
        t0 = time.time()
        d, s_star, sigma, omega = 1000, 20, 0.5, 0.5
        n = int(np.ceil(5 * s_star * np.log(d)))
        design = DesignSpec(n=n, d=d, omega=omega)
        noise = NoiseSpec(family=LINEAR, sigma=sigma)
        texts = []
        for _ in range(2):
            trace = run_instance_cells(design, s_star, noise, 0,
                                       [(ThresholdSpec(kind=RT, s=100), SPARSE_POLYAK)],
                                       max_iters=1500)[0][0]
            texts.append(trace_csv_text(trace))
        ok = texts[0] == texts[1]
        elapsed = time.time() - t0
        report(10, ok, f"identical seed reproduces byte-identical trace CSV ({len(texts[0])} bytes)",
               elapsed, self.BUDGET)
        assert ok
        assert elapsed < self.BUDGET
