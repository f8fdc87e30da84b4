"""Generator tests: moments against closed forms, support exactness, regularity constants."""

import tracemalloc

import numpy as np
import pytest

from sparsepolyak.objectives import LINEAR, LOGISTIC
from sparsepolyak.rng import CHUNK_ROWS, STREAM_DESIGN, substream
from sparsepolyak.synthdata import (
    DESIGN_BLOCK_BYTES,
    DesignSpec,
    NoiseSpec,
    RegularityParams,
    TruthSpec,
    ar1_covariance,
    compute_regularity,
    design_spectrum,
    generate_design,
    generate_responses,
    generate_truth,
)


def two_buffer_design(spec, seed):
    """The reference generator: all normals in a row-major n x d buffer, then the recursion into X."""
    eps = np.empty((spec.n, spec.d))
    for i in range(spec.n):
        eps[i] = substream(seed, STREAM_DESIGN, i).standard_normal(spec.d)
    X = np.empty((spec.n, spec.d), order="F")
    X[:, 0] = eps[:, 0] / np.sqrt(1.0 - spec.omega**2)
    for t in range(1, spec.d):
        X[:, t] = spec.omega * X[:, t - 1] + eps[:, t]
    if spec.column_normalize:
        X = X / (np.linalg.norm(X, axis=0) / np.sqrt(spec.n))
    return X


def block_rows(d):
    return DESIGN_BLOCK_BYTES // (8 * d)


def design_and_block_bytes(spec):
    """X, one row block, and a slack for a few column temporaries and the stream objects."""
    return 8 * spec.n * spec.d + 8 * block_rows(spec.d) * spec.d + 8 * 4 * spec.n + (64 << 10)


def traced_peak(spec):
    tracemalloc.start()
    try:
        generate_design(spec, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGenerateDesign:
    @pytest.mark.parametrize("spec", [
        DesignSpec(n=300, d=1000, omega=0.5),  # 131 rows per block: 2 blocks and 38 rows
        DesignSpec(n=50, d=200, omega=0.3),  # fewer rows than one block
        DesignSpec(n=1, d=1, omega=0.5),
        DesignSpec(n=300, d=1000, omega=0.5, column_normalize=True),
        DesignSpec(n=2 * CHUNK_ROWS + 3, d=40, omega=0.4),  # row streams cross two seeding chunks
    ], ids=["partial_last_block", "below_one_block", "one_by_one", "column_normalize", "crosses_chunks"])
    def test_matches_the_two_buffer_recursion(self, spec):
        assert spec.n % block_rows(spec.d) != 0
        X = generate_design(spec, seed=11)
        assert X.flags.f_contiguous
        assert X.tobytes(order="F") == two_buffer_design(spec, seed=11).tobytes(order="F")

    def test_generation_holds_one_design_and_one_block(self):
        spec = DesignSpec(n=2000, d=200, omega=0.5)  # X 3.2 MB, block 655 rows (1.05 MB)
        assert traced_peak(spec) < design_and_block_bytes(spec)

    def test_normalized_generation_holds_one_design_and_one_block(self):
        # the column norms square 65 columns (1.04 MB) at a time, after the block is freed
        spec = DesignSpec(n=2000, d=200, omega=0.5, column_normalize=True)
        assert traced_peak(spec) < design_and_block_bytes(spec)

    def test_iid_case_matches_identity_covariance(self):
        X = generate_design(DesignSpec(n=1000, d=5, omega=0.0), seed=0)
        cov = X.T @ X / 1000
        assert np.max(np.abs(cov - np.eye(5))) < 0.15

    def test_ar_stationary_moments(self):
        spec = DesignSpec(n=10000, d=6, omega=0.5)
        X = generate_design(spec, seed=1)
        var = X.var(axis=0)
        np.testing.assert_allclose(var, 4.0 / 3.0, atol=0.1)
        for t in range(5):
            corr = np.corrcoef(X[:, t], X[:, t + 1])[0, 1]
            assert abs(corr - 0.5) < 0.05

    def test_covariance_matches_closed_form_entrywise(self):
        spec = DesignSpec(n=10000, d=8, omega=0.5)
        X = generate_design(spec, seed=2)
        emp = X.T @ X / spec.n
        target = ar1_covariance(8, 0.5)
        assert np.max(np.abs(emp - target)) < 5.0 / np.sqrt(spec.n)

    def test_deterministic_in_seed(self):
        spec = DesignSpec(n=50, d=20, omega=0.3)
        a = generate_design(spec, seed=9)
        b = generate_design(spec, seed=9)
        assert a.tobytes() == b.tobytes()
        c = generate_design(spec, seed=10)
        assert a.tobytes() != c.tobytes()

    def test_column_normalization(self):
        spec = DesignSpec(n=200, d=10, omega=0.5, column_normalize=True)
        X = generate_design(spec, seed=3)
        np.testing.assert_allclose(np.linalg.norm(X, axis=0) / np.sqrt(200), 1.0, atol=1e-12)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DesignSpec(n=10, d=5, omega=1.0)
        with pytest.raises(ValueError):
            DesignSpec(n=0, d=5, omega=0.5)


class TestGenerateTruth:
    def test_full_support(self):
        theta = generate_truth(TruthSpec(d=10, s_star=10), seed=0)
        assert np.count_nonzero(theta) == 10
        assert not theta.flags.writeable

    def test_exact_support_size(self):
        rng_sizes = [(50, 7), (100, 1), (30, 29)]
        for d, s_star in rng_sizes:
            for seed in range(5):
                theta = generate_truth(TruthSpec(d=d, s_star=s_star), seed=seed)
                assert np.count_nonzero(theta) == s_star

    def test_zero_support_gives_zero_vector(self):
        theta = generate_truth(TruthSpec(d=5, s_star=0), seed=0)
        assert np.count_nonzero(theta) == 0

    def test_support_inclusion_frequencies(self):
        # Each index is included with probability p = s*/d; over N seeds the
        # empirical frequency is Binomial(N, p)/N with sigma = sqrt(p(1-p)/N).
        # Across d indices the expected maximum deviation is about
        # sigma * sqrt(2 ln d) ~ 4.3 sigma, so 5 sigma bounds the max and
        # 3 sigma should cover ~99% of indices.
        d, s_star, n_seeds = 2000, 20, 4000
        p = s_star / d
        counts = np.zeros(d)
        for seed in range(n_seeds):
            counts[generate_truth(TruthSpec(d=d, s_star=s_star), seed=seed) != 0] += 1
        freq = counts / n_seeds
        sigma = np.sqrt(p * (1 - p) / n_seeds)
        assert freq.mean() == pytest.approx(p, abs=1e-12)
        assert np.max(np.abs(freq - p)) <= 5.0 * sigma
        assert np.mean(np.abs(freq - p) <= 3.0 * sigma) >= 0.99

    def test_deterministic_in_seed(self):
        a = generate_truth(TruthSpec(d=100, s_star=10), seed=4)
        b = generate_truth(TruthSpec(d=100, s_star=10), seed=4)
        assert a.tobytes() == b.tobytes()


class TestGenerateResponses:
    def test_linear_noiseless_limit(self):
        spec = DesignSpec(n=100, d=10, omega=0.5)
        X = generate_design(spec, seed=0)
        theta = generate_truth(TruthSpec(d=10, s_star=5), seed=0)
        y = generate_responses(LINEAR, X, theta, NoiseSpec(family=LINEAR, sigma=1e-12), seed=0)
        assert np.max(np.abs(y - X @ theta)) < 1e-9

    def test_logistic_zero_truth_balanced(self):
        spec = DesignSpec(n=10000, d=4, omega=0.0)
        X = generate_design(spec, seed=1)
        y = generate_responses(LOGISTIC, X, np.zeros(4), NoiseSpec(family=LOGISTIC), seed=1)
        assert set(np.unique(y)) <= {0.0, 1.0}
        assert abs(y.mean() - 0.5) < 0.02

    def test_logistic_saturated_scores(self):
        # With x' theta* = 20 for every sample, P(y=0) = 2e-9 per sample.
        X = np.ones((2000, 1))
        y = generate_responses(LOGISTIC, X, np.array([20.0]), NoiseSpec(family=LOGISTIC), seed=2)
        assert np.all(y == 1.0)

    def test_family_mismatch_rejected(self):
        X = np.ones((3, 1))
        with pytest.raises(ValueError):
            generate_responses(LINEAR, X, np.array([1.0]), NoiseSpec(family=LOGISTIC), seed=0)

    def test_noise_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(family=LINEAR, sigma=0.0)
        NoiseSpec(family=LOGISTIC)  # sigma not required


class TestRegularity:
    def test_identity_covariance_constants(self):
        params = compute_regularity(DesignSpec(n=500, d=100, omega=0.0), s=10)
        assert params.mu == pytest.approx(0.5)
        assert params.L == pytest.approx(2.0)
        assert params.tau == pytest.approx(np.log(100) / 500)

    def test_spectrum_matches_dense_eigensolve(self):
        lmin, lmax = design_spectrum(0.5, 100)
        vals = np.linalg.eigvalsh(ar1_covariance(100, 0.5))
        assert lmin == pytest.approx(vals[0], abs=1e-10)
        assert lmax == pytest.approx(vals[-1], abs=1e-10)

    def test_symbol_bounds_bracket_dense_spectrum(self):
        # the Toeplitz symbol range brackets the exact eigenvalues and is approached as d grows
        omega = 0.5
        vals = np.linalg.eigvalsh(ar1_covariance(400, omega))
        lo, hi = 1.0 / (1.0 + omega) ** 2, 1.0 / (1.0 - omega) ** 2
        assert lo <= vals[0] and vals[-1] <= hi
        assert vals[0] == pytest.approx(lo, rel=0.02)
        assert vals[-1] == pytest.approx(hi, rel=0.02)

    @pytest.mark.parametrize("omega", [0.0, 0.1, 0.5, 0.9])
    @pytest.mark.parametrize("d", [1, 2, 3, 100, 1000])
    def test_spectrum_matches_eigvalsh(self, d, omega):
        lmin, lmax = design_spectrum(omega, d)
        vals = np.linalg.eigvalsh(ar1_covariance(d, omega))
        assert lmin == pytest.approx(vals[0], rel=1e-12, abs=0.0)
        assert lmax == pytest.approx(vals[-1], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("omega", [0.1, 0.5, 0.9])
    def test_large_d_spectrum_inside_symbol_range_and_interlaced(self, omega):
        lo, hi = 1.0 / (1.0 + omega) ** 2, 1.0 / (1.0 - omega) ** 2
        small, large = design_spectrum(omega, 10**4), design_spectrum(omega, 10**6)
        for lmin, lmax in (small, large):
            assert lo < lmin < lmax < hi
        # Cauchy interlacing: Sigma_d is a principal submatrix of Sigma_d' for d < d'
        assert large[0] <= small[0]
        assert large[1] >= small[1]

    def test_max_variance_closed_form(self):
        params = compute_regularity(DesignSpec(n=1000, d=50, omega=0.5), s=5)
        assert params.tau == pytest.approx((4.0 / 3.0) * np.log(50) / 1000)

    def test_bars_monotone_in_s(self):
        spec = DesignSpec(n=2000, d=100, omega=0.5)
        params = [compute_regularity(spec, s) for s in (1, 5, 20)]
        mus = [p.mu_bar for p in params]
        ls = [p.L_bar for p in params]
        assert mus[0] > mus[1] > mus[2]
        assert ls[0] < ls[1] < ls[2]

    def test_theory_inapplicable_flag(self):
        params = compute_regularity(DesignSpec(n=100, d=1000, omega=0.5), s=100)
        assert not params.theory_applicable
        assert params.kappa_bar is None

    def test_kappa_defined_when_applicable(self):
        params = compute_regularity(DesignSpec(n=200000, d=100, omega=0.5), s=5)
        assert params.theory_applicable
        assert params.kappa_bar == pytest.approx(params.L_bar / params.mu_bar)

    def test_validation(self):
        with pytest.raises(ValueError):
            RegularityParams(mu=1.0, L=0.5, tau=0.0, s=1)
        with pytest.raises(ValueError):
            RegularityParams(mu=1.0, L=2.0, tau=-0.1, s=1)
