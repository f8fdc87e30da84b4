"""Generator tests: moments against closed forms, support exactness, regularity constants."""

import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from sparsepolyak import synthdata
from sparsepolyak.objectives import LINEAR, LOGISTIC
from sparsepolyak.rng import CHUNK_ROWS, STREAM_DESIGN, substream
from sparsepolyak.synthdata import (
    DESIGN_BLOCK_BYTES,
    DESIGN_BLOCK_MIN_ROWS,
    DesignSpec,
    NoiseSpec,
    RegularityParams,
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
    return X


def block_rows(d):
    return max(DESIGN_BLOCK_MIN_ROWS, DESIGN_BLOCK_BYTES // (8 * d))


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
        DesignSpec(n=2 * CHUNK_ROWS + 3, d=40, omega=0.4),  # row streams cross two seeding chunks
    ], ids=["partial_last_block", "below_one_block", "one_by_one", "crosses_chunks"])
    def test_matches_the_two_buffer_recursion(self, spec):
        assert spec.n % block_rows(spec.d) != 0
        X = generate_design(spec, seed=11)
        assert X.flags.f_contiguous
        assert X.tobytes(order="F") == two_buffer_design(spec, seed=11).tobytes(order="F")

    def test_generation_holds_one_design_and_one_block(self):
        spec = DesignSpec(n=2000, d=200, omega=0.5)  # X 3.2 MB, block 655 rows (1.05 MB)
        assert traced_peak(spec) < design_and_block_bytes(spec)

    def test_many_cpus_draw_on_a_bounded_number_of_threads(self, monkeypatch):
        monkeypatch.setattr(synthdata, "usable_cpus", lambda: 64)
        spec = DesignSpec(n=2000, d=200, omega=0.5)  # drawn on DESIGN_THREADS_MAX threads, not 64
        assert traced_peak(spec) < design_and_block_bytes(spec)

    def test_wide_design_blocks_hold_the_minimum_rows(self):
        spec = DesignSpec(n=20, d=20000, omega=0.5)  # 6 rows fit the bytes; blocks of 8, 8 and 4
        assert DESIGN_BLOCK_BYTES // (8 * spec.d) < block_rows(spec.d) == DESIGN_BLOCK_MIN_ROWS
        X = generate_design(spec, seed=11)
        assert X.tobytes(order="F") == two_buffer_design(spec, seed=11).tobytes(order="F")
        assert traced_peak(spec) < design_and_block_bytes(spec)

    @pytest.mark.parametrize("spec", [
        DesignSpec(n=300, d=1000, omega=0.5),
        DesignSpec(n=50, d=200, omega=0.3),
        DesignSpec(n=1, d=1, omega=0.5),
        DesignSpec(n=2 * CHUNK_ROWS + 3, d=40, omega=0.4),
        DesignSpec(n=20, d=20000, omega=0.5),  # its 8-row block split 4/4 on two threads
        DesignSpec(n=2, d=30, omega=0.5),  # fewer rows than three threads
    ], ids=["partial_last_block", "below_one_block", "one_by_one", "crosses_chunks",
            "wide_min_block", "fewer_rows_than_threads"])
    def test_bytes_do_not_depend_on_the_thread_count(self, spec, monkeypatch):
        expected = two_buffer_design(spec, seed=11).tobytes(order="F")
        for cpus in (1, 2, 3):
            monkeypatch.setattr(synthdata, "usable_cpus", lambda: cpus)
            assert generate_design(spec, seed=11).tobytes(order="F") == expected, cpus

    def test_eight_threads_with_a_short_switch_interval_keep_the_bytes(self, monkeypatch):
        spec = DesignSpec(n=2 * CHUNK_ROWS + 3, d=40, omega=0.4)  # eight threads taking 64-row runs
        monkeypatch.setattr(synthdata, "usable_cpus", lambda: 8)
        monkeypatch.setattr(synthdata, "DESIGN_THREADS_MAX", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            X = generate_design(spec, seed=11)
        finally:
            sys.setswitchinterval(interval)
        assert X.tobytes(order="F") == two_buffer_design(spec, seed=11).tobytes(order="F")

    def test_a_failed_helper_stops_this_thread_at_its_next_run(self, monkeypatch):
        spec = DesignSpec(n=80, d=20000, omega=0.5)  # an 8-row block: runs of 4 rows per thread
        real, threads, drawn = synthdata.row_generator, threading.active_count(), []
        started = threading.Event()

        def generator(words):
            if threading.current_thread() is not threading.main_thread():
                started.wait(10)  # fails once this thread is inside its first run
                raise RuntimeError("drawing failed")
            started.set()
            deadline = time.monotonic() + 10
            while threading.active_count() > threads and time.monotonic() < deadline:
                time.sleep(0.001)  # until the helper has failed
            drawn.append(words)
            return real(words)

        monkeypatch.setattr(synthdata, "usable_cpus", lambda: 2)
        monkeypatch.setattr(synthdata, "row_generator", generator)
        with pytest.raises(RuntimeError, match="drawing failed"):
            generate_design(spec, seed=0)
        assert threading.active_count() == threads
        assert len(drawn) == 4  # its first run, not the 80 rows

    def test_an_interrupt_while_joining_stops_the_helper(self, monkeypatch):
        spec = DesignSpec(n=80, d=20000, omega=0.5)
        real, threads, helper_rows = synthdata.row_generator, threading.active_count(), []
        join = threading.Thread.join

        def generator(words):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.01)  # still drawing when this thread joins it
                helper_rows.append(words)
            return real(words)

        def interrupted_join(thread, timeout=None):
            monkeypatch.setattr(threading.Thread, "join", join)
            raise KeyboardInterrupt

        monkeypatch.setattr(synthdata, "usable_cpus", lambda: 2)
        monkeypatch.setattr(synthdata, "row_generator", generator)
        monkeypatch.setattr(threading.Thread, "join", interrupted_join)
        with pytest.raises(KeyboardInterrupt):
            generate_design(spec, seed=0)
        assert threading.active_count() == threads
        assert len(helper_rows) < 40

    def test_a_slow_thread_draws_fewer_rows(self, monkeypatch):
        spec = DesignSpec(n=80, d=20000, omega=0.5)
        real, helper_rows = synthdata.row_generator, []

        def generator(words):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.01)
                helper_rows.append(words)
            return real(words)

        monkeypatch.setattr(synthdata, "usable_cpus", lambda: 2)
        monkeypatch.setattr(synthdata, "row_generator", generator)
        X = generate_design(spec, seed=11)
        assert X.tobytes(order="F") == two_buffer_design(spec, seed=11).tobytes(order="F")
        assert 0 < len(helper_rows) < 40

    def test_threads_are_the_usable_cpus_capped(self, monkeypatch):
        monkeypatch.setattr(synthdata, "usable_cpus", lambda: 64)
        assert synthdata._draw_threads(100) == synthdata.DESIGN_THREADS_MAX
        assert synthdata._draw_threads(1) == 1
        monkeypatch.setattr(synthdata, "usable_cpus", lambda: 1)
        assert synthdata._draw_threads(100) == 1

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

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DesignSpec(n=10, d=5, omega=1.0)
        with pytest.raises(ValueError):
            DesignSpec(n=0, d=5, omega=0.5)


class TestGenerateTruth:
    def test_full_support(self):
        theta = generate_truth(10, 10, seed=0)
        assert np.count_nonzero(theta) == 10
        assert not theta.flags.writeable

    def test_exact_support_size(self):
        rng_sizes = [(50, 7), (100, 1), (30, 29)]
        for d, s_star in rng_sizes:
            for seed in range(5):
                theta = generate_truth(d, s_star, seed=seed)
                assert np.count_nonzero(theta) == s_star

    def test_zero_support_gives_zero_vector(self):
        theta = generate_truth(5, 0, seed=0)
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
            counts[generate_truth(d, s_star, seed=seed) != 0] += 1
        freq = counts / n_seeds
        sigma = np.sqrt(p * (1 - p) / n_seeds)
        assert freq.mean() == pytest.approx(p, abs=1e-12)
        assert np.max(np.abs(freq - p)) <= 5.0 * sigma
        assert np.mean(np.abs(freq - p) <= 3.0 * sigma) >= 0.99

    def test_deterministic_in_seed(self):
        a = generate_truth(100, 10, seed=4)
        b = generate_truth(100, 10, seed=4)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("d, s_star", [(0, 0), (5, -1), (5, 6)])
    def test_rejects_bad_dimension_or_support_size(self, d, s_star):
        with pytest.raises(ValueError):
            generate_truth(d, s_star, seed=0)


class TestGenerateResponses:
    def test_linear_noiseless_limit(self):
        spec = DesignSpec(n=100, d=10, omega=0.5)
        X = generate_design(spec, seed=0)
        theta = generate_truth(10, 5, seed=0)
        y = generate_responses(X, theta, NoiseSpec(family=LINEAR, sigma=1e-12), seed=0)
        assert np.max(np.abs(y - X @ theta)) < 1e-9

    def test_logistic_zero_truth_balanced(self):
        spec = DesignSpec(n=10000, d=4, omega=0.0)
        X = generate_design(spec, seed=1)
        y = generate_responses(X, np.zeros(4), NoiseSpec(family=LOGISTIC), seed=1)
        assert set(np.unique(y)) <= {0.0, 1.0}
        assert abs(y.mean() - 0.5) < 0.02

    def test_logistic_saturated_scores(self):
        # With x' theta* = 20 for every sample, P(y=0) = 2e-9 per sample.
        X = np.ones((2000, 1))
        y = generate_responses(X, np.array([20.0]), NoiseSpec(family=LOGISTIC), seed=2)
        assert np.all(y == 1.0)

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
