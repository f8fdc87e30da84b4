"""Objective-function tests: frozen values, finite-difference oracle, convexity."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsepolyak.objectives import (
    GATHER_MAX_FRAC,
    LINEAR,
    LOGISTIC,
    GramRows,
    ObjectiveModel,
    _as_params,
    _forward_product,
    _loss_and_residual,
    bregman_batch,
    objective_value,
    sigmoid,
    softplus,
    support_union,
    target_value,
    value_and_gradient,
)
from sparsepolyak.synthdata import DesignSpec, generate_design


def loss_and_residual(model, theta):
    v = _as_params(model, theta)
    return _loss_and_residual(model, _forward_product(model, v, support_union(v)))


def finite_difference_gradient(model, theta):
    """Central differences with a per-coordinate step 1e-6 (1 + |theta_i|)."""
    theta = np.asarray(theta, dtype=float)
    out = np.empty_like(theta)
    for i in range(theta.size):
        h = 1e-6 * (1.0 + abs(theta[i]))
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (objective_value(model, up) - objective_value(model, dn)) / (2.0 * h)
    return out


def random_model(rng, family):
    n = int(rng.integers(3, 21))
    d = int(rng.integers(2, 21))
    X = rng.standard_normal((n, d))
    if family == LINEAR:
        y = rng.standard_normal(n)
    else:
        y = rng.integers(0, 2, size=n).astype(float)
    return ObjectiveModel(family=family, X=X, y=y)


def one_sample(family):
    """A one-sample, one-feature model with x = 1 and y = 0: U = theta, f = psi(theta)."""
    return ObjectiveModel(family=family, X=[[1.0]], y=[0.0])


class TestCumulant:
    """The cumulant psi and its derivative, through the loss and sigmoid."""

    def test_linear_values(self):
        f, g = value_and_gradient(one_sample(LINEAR), [3.0])
        assert (f, g.tolist()) == (4.5, [3.0])

    def test_logistic_symmetry_point(self):
        assert objective_value(one_sample(LOGISTIC), [0.0]) == pytest.approx(math.log(2.0), abs=1e-15)
        assert sigmoid(0.0) == 0.5

    def test_logistic_saturated_regime(self):
        # log(1 + e^800) differs from 800 by e^-800, far below float64 resolution
        val = objective_value(one_sample(LOGISTIC), [800.0])
        assert abs(val - 800.0) <= 1e-12 * 800.0
        assert sigmoid(800.0) == 1.0

    def test_softplus_matches_logaddexp_without_warnings(self):
        t = np.array([-np.inf, -1000.0, -40.0, -1.0, -0.0, 0.0, 1e-300, 1.0, 40.0, 1000.0, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = softplus(t)
        ref = np.logaddexp(0.0, t)
        assert got[0] == 0.0 and got[-1] == np.inf
        np.testing.assert_allclose(got[1:-1], ref[1:-1], rtol=4e-16, atol=0.0)

    def test_logistic_derivative_strict_bounds(self):
        # saturation reaches exactly 0/1 beyond |t| ~ 36 in float64
        der = sigmoid(np.linspace(-36.0, 36.0, 2001))
        assert np.all(der > 0.0)
        assert np.all(der < 1.0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            one_sample("poisson")
        # the family is checked before the data
        with pytest.raises(ValueError, match="unknown family 'poisson'"):
            ObjectiveModel(family="poisson", X=[[1.0, np.nan]], y=[1.0])


class TestObjectiveValue:
    def test_linear_single_sample(self):
        model = ObjectiveModel(family=LINEAR, X=[[1.0, 0.0]], y=[1.0])
        assert objective_value(model, [0.0, 0.0]) == pytest.approx(0.5)

    def test_logistic_at_zero_is_log_two(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((7, 3))
        y = rng.integers(0, 2, size=7).astype(float)
        model = ObjectiveModel(family=LOGISTIC, X=X, y=y)
        assert objective_value(model, np.zeros(3)) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_linear_interpolation_is_zero(self):
        model = ObjectiveModel(family=LINEAR, X=[[1.0, 0.0], [0.0, 1.0]], y=[2.0, 4.0])
        assert objective_value(model, [2.0, 4.0]) == 0.0

    def test_dimension_mismatch(self):
        model = ObjectiveModel(family=LINEAR, X=[[1.0, 0.0]], y=[1.0])
        with pytest.raises(ValueError):
            objective_value(model, [1.0, 2.0, 3.0])

    def test_logistic_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            model = random_model(rng, LOGISTIC)
            theta = rng.standard_normal(model.d)
            assert objective_value(model, theta) >= -1e-12


class TestGradient:
    def test_linear_single_sample(self):
        model = ObjectiveModel(family=LINEAR, X=[[1.0, 0.0]], y=[1.0])
        np.testing.assert_allclose(value_and_gradient(model, [0.0, 0.0])[1], [-1.0, 0.0])

    def test_logistic_single_sample(self):
        model = ObjectiveModel(family=LOGISTIC, X=[[2.0, 0.0]], y=[1.0])
        np.testing.assert_allclose(value_and_gradient(model, [0.0, 0.0])[1], [-1.0, 0.0])

    @pytest.mark.parametrize("family", [LINEAR, LOGISTIC])
    def test_matches_finite_differences(self, family):
        rng = np.random.default_rng(42)
        for _ in range(100):
            model = random_model(rng, family)
            theta = rng.standard_normal(model.d)
            g = value_and_gradient(model, theta)[1]
            fd = finite_difference_gradient(model, theta)
            scale = np.maximum(np.abs(fd), 1e-3)
            assert np.max(np.abs(g - fd) / scale) <= 1e-5

    def test_linear_normal_equations_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            model = random_model(rng, LINEAR)
            theta = rng.standard_normal(model.d)
            X, y = model.X, model.y
            expected = X.T @ (X @ theta - y) / model.n
            np.testing.assert_allclose(value_and_gradient(model, theta)[1], expected, atol=1e-12)

    def test_dimension_mismatch(self):
        model = ObjectiveModel(family=LINEAR, X=[[1.0, 0.0]], y=[1.0])
        with pytest.raises(ValueError):
            value_and_gradient(model, [1.0])[1]


class TestConvexity:
    @pytest.mark.parametrize("family", [LINEAR, LOGISTIC])
    def test_convex_along_segments(self, family):
        rng = np.random.default_rng(23)
        for _ in range(100):
            model = random_model(rng, family)
            t1 = rng.standard_normal(model.d)
            t2 = rng.standard_normal(model.d)
            lam = rng.uniform(0.01, 0.99)
            mid = objective_value(model, lam * t1 + (1 - lam) * t2)
            chord = lam * objective_value(model, t1) + (1 - lam) * objective_value(model, t2)
            assert mid <= chord + 1e-10


class TestTargetValue:
    def test_noiseless_fit_is_zero(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((12, 5))
        theta = rng.standard_normal(5)
        model = ObjectiveModel(family=LINEAR, X=X, y=X @ theta)
        assert target_value(model, theta) <= 1e-28

    def test_single_point(self):
        model = ObjectiveModel(family=LINEAR, X=[[1.0]], y=[2.0])
        assert target_value(model, [1.0]) == pytest.approx(0.5)

    def test_logistic_zero_truth(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, LOGISTIC)
        assert target_value(model, np.zeros(model.d)) == pytest.approx(math.log(2.0), abs=1e-12)


class TestFusedEvaluation:
    @pytest.mark.parametrize("family", [LINEAR, LOGISTIC])
    def test_bit_identical_to_separate_calls(self, family):
        rng = np.random.default_rng(19)
        for _ in range(25):
            model = random_model(rng, family)
            theta = rng.standard_normal(model.d)
            f, g = value_and_gradient(model, theta)
            assert f == objective_value(model, theta)
            assert g.tobytes() == value_and_gradient(model, theta)[1].tobytes()


class TestBatchEvaluation:
    @pytest.mark.parametrize("family", [LINEAR, LOGISTIC])
    def test_batch_matches_scalar(self, family):
        rng = np.random.default_rng(31)
        model = random_model(rng, family)
        Thetas = rng.standard_normal((16, model.d))
        batch_f, batch_g = value_and_gradient(model, Thetas)
        singles = [objective_value(model, row) for row in Thetas]
        np.testing.assert_allclose(batch_f, singles, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(objective_value(model, Thetas), singles, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(batch_g, [value_and_gradient(model, row)[1] for row in Thetas],
                                   rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("family", [LINEAR, LOGISTIC])
    def test_bregman_matches_definition(self, family):
        rng = np.random.default_rng(37)
        model = random_model(rng, family)
        T1 = rng.standard_normal((8, model.d))
        T2 = rng.standard_normal((8, model.d))
        batch = bregman_batch(model, T1, T2)
        direct = [
            objective_value(model, a) - objective_value(model, b) - value_and_gradient(model, b)[1] @ (a - b)
            for a, b in zip(T1, T2)
        ]
        np.testing.assert_allclose(batch, direct, rtol=1e-9, atol=1e-11)
        assert np.all(batch >= -1e-12)


class TestSupportForwardProduct:
    """The forward product on the support union, against a dense X @ theta."""

    n, d = 40, 60

    def model(self, family):
        rng = np.random.default_rng(43)
        X = rng.standard_normal((self.n, self.d))  # row-major, as a caller may pass it
        y = rng.standard_normal(self.n) if family == LINEAR else (rng.random(self.n) < 0.5).astype(float)
        return ObjectiveModel(family=family, X=X, y=y), X

    @staticmethod
    def assert_matches_dense(model, X, Theta):
        f, R = loss_and_residual(model, Theta)
        y, n = model.y, model.n
        for j, theta in enumerate(np.atleast_2d(Theta)):
            u = X @ theta
            if model.family == LINEAR:
                r = u - y
                f_ref = 0.5 * np.dot(r, r) / n
            else:
                r = 1.0 / (1.0 + np.exp(-u)) - y
                f_ref = np.mean(np.logaddexp(0.0, u) - y * u)
            r_j = R if R.ndim == 1 else R[j]
            scale = np.abs(r).max()
            np.testing.assert_allclose(r_j, r, rtol=1e-13, atol=1e-13 * scale)
            np.testing.assert_allclose(np.atleast_1d(f)[j], f_ref, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("family", [LINEAR, LOGISTIC])
    def test_zero_dense_and_below_crossover(self, family):
        model, X = self.model(family)
        rng = np.random.default_rng(47)
        zero = np.zeros(self.d)
        _, R = loss_and_residual(model, zero)
        if family == LINEAR:
            assert np.array_equal(R, -model.y)
        else:
            assert np.array_equal(R, 0.5 - model.y)
        self.assert_matches_dense(model, X, zero)
        k = int(GATHER_MAX_FRAC * self.d)  # the widest union still gathered
        sparse = np.zeros(self.d)
        sparse[rng.choice(self.d, k, replace=False)] = rng.standard_normal(k)
        self.assert_matches_dense(model, X, sparse)
        self.assert_matches_dense(model, X, rng.standard_normal(self.d))

    @pytest.mark.parametrize("family", [LINEAR, LOGISTIC])
    def test_batch_rows_with_disjoint_supports(self, family):
        model, X = self.model(family)
        rng = np.random.default_rng(53)
        Theta = np.zeros((4, self.d))  # the last row stays zero
        for j, cols in enumerate((slice(0, 5), slice(20, 23), slice(55, 60))):
            Theta[j, cols] = rng.standard_normal(Theta[j, cols].size)
        self.assert_matches_dense(model, X, Theta)
        wide = Theta.copy()
        wide[3, 5:20] = rng.standard_normal(15)  # the union now exceeds the crossover
        self.assert_matches_dense(model, X, wide)

    def test_design_is_stored_column_major_without_a_copy(self):
        model, X = self.model(LINEAR)
        assert X.flags.c_contiguous and model.X.flags.f_contiguous
        assert np.array_equal(model.X, X)
        design = generate_design(DesignSpec(n=30, d=12, omega=0.5), seed=0)
        assert design.flags.f_contiguous
        assert np.shares_memory(design, ObjectiveModel(family=LINEAR, X=design, y=np.zeros(30)).X)


class TestGramGradient:
    """The linear gradient from cached Gram rows, against the full product R @ X / n."""

    n, d = 48, 60  # the cache holds GATHER_MAX_FRAC * n = 12 rows

    def model(self, family=LINEAR):
        rng = np.random.default_rng(59)
        X = rng.standard_normal((self.n, self.d))
        y = rng.standard_normal(self.n) if family == LINEAR else (rng.random(self.n) < 0.5).astype(float)
        return ObjectiveModel(family=family, X=X, y=y)

    @staticmethod
    def full_gradient(model, Theta):
        _, R = loss_and_residual(model, Theta)
        return R @ model.X / model.n

    def assert_matches_full(self, model, gram, Theta):
        _, G = value_and_gradient(model, Theta, gram)
        scale = np.abs(model.y @ model.X / model.n).max()
        np.testing.assert_allclose(G, self.full_gradient(model, Theta), rtol=0.0, atol=1e-13 * scale)
        assert gram.used <= gram.cap

    def sparse(self, rng, cols):
        theta = np.zeros(self.d)
        theta[cols] = rng.standard_normal(len(cols))
        return theta

    def test_zero_theta_gives_minus_xty(self):
        model = self.model()
        # X'y / n is the first row of the cache's one read of X, with the zero anchor's residual -y
        xty = (np.stack((model.y, -model.y)) @ model.X / model.n)[0]
        gram = GramRows(model, np.zeros(self.d))
        assert np.array_equal(value_and_gradient(model, np.zeros(self.d), gram)[1], -xty)
        assert np.array_equal(value_and_gradient(model, np.zeros((3, self.d)), gram)[1], -np.tile(xty, (3, 1)))
        assert gram.used == 0

    def test_sparse_batches_match_the_full_product(self):
        model = self.model()
        rng = np.random.default_rng(61)
        gram = GramRows(model, np.zeros(self.d))
        assert gram.cap == int(GATHER_MAX_FRAC * self.n) == 12
        Theta = np.zeros((4, self.d))  # the last row stays zero
        for j, cols in enumerate(([0, 1, 2], [20, 21], [55, 59])):
            Theta[j] = self.sparse(rng, cols)
        self.assert_matches_full(model, gram, Theta)
        assert gram.used == 7
        at_cap = Theta.copy()
        at_cap[3] = self.sparse(rng, [1, 30, 31, 32, 33, 40])  # 12 columns, one already cached
        self.assert_matches_full(model, gram, at_cap)
        assert gram.used == 12
        self.assert_matches_full(model, gram, Theta[::-1])  # stale slots get zero weight
        assert gram.used == 12 and gram.computed == 12

    def assert_block_matches_gathered(self, model, gram, Theta):
        """The slot block's product against X'X theta / n (linear), or its X theta, f and residual as gathered (logistic)."""
        v = _as_params(model, Theta)
        cols = support_union(v)
        Y = gram.product(v, cols)
        assert Y is not None and Y.shape == v.shape[:-1] + gram.block.shape[1:]
        if model.family == LINEAR:
            ref = v @ model.X.T @ model.X / model.n
            np.testing.assert_allclose(Y, ref, rtol=0.0, atol=1e-13 * np.abs(ref).max())
        else:
            f, R = _loss_and_residual(model, Y)
            f_ref, R_ref = _loss_and_residual(model, _forward_product(model, v, cols))
            np.testing.assert_allclose(f, f_ref, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(R, R_ref, rtol=1e-13, atol=1e-13 * np.abs(R_ref).max())
            f_vg, _ = value_and_gradient(model, Theta, gram)
            assert np.asarray(f_vg).tobytes() == np.asarray(f).tobytes()
        self.assert_matches_full(model, gram, Theta)

    @staticmethod
    def assert_slots_consistent(gram, cols):
        """Every column of cols holds a slot, and slot and order are inverse maps on the used slots."""
        assert (gram.slot[cols] >= 0).all()
        held = np.flatnonzero(gram.slot >= 0)
        assert held.size == gram.used <= gram.cap
        assert np.array_equal(np.sort(gram.order[:gram.used]), held)
        assert np.array_equal(gram.slot[gram.order[:gram.used]], np.arange(gram.used))

    def assert_slot_reuse(self, model, gram):
        """A sequence of unions whose new columns take freed slots: first contiguous ones, then scattered ones."""
        rng = np.random.default_rng(97)
        self.assert_block_matches_gathered(model, gram, self.sparse(rng, [3, 7, 11]))
        Theta = np.zeros((4, self.d))  # the last row stays zero
        for j, cols in enumerate(([0, 1, 2], [20, 21], [55, 59])):
            Theta[j] = self.sparse(rng, cols)
        self.assert_block_matches_gathered(model, gram, Theta)  # 0, 1, 2 take the slots of 3, 7, 11
        assert gram.used == 7 and gram.computed == 10
        assert np.array_equal(gram.order[:7], [0, 1, 2, 20, 21, 55, 59])
        self.assert_block_matches_gathered(model, gram, Theta[[1, 3]])  # 5 stale slots, zero weight
        assert gram.used == 7 and gram.computed == 10
        self.assert_block_matches_gathered(model, gram, self.sparse(rng, [20, 21, 40]))
        assert gram.slot[40] == 0 and gram.slot[0] == -1  # the lowest of the 5 freed slots
        after = np.array([self.sparse(rng, [0, 2, 21, 59, 30]), self.sparse(rng, [31, 32, 33, 34])])
        self.assert_block_matches_gathered(model, gram, after)  # slots 0, 1, 3 and 5 freed, 7 and 8 appended
        assert gram.used == 9 and gram.computed == 17
        assert np.array_equal(gram.order[:9], [0, 30, 2, 31, 21, 32, 59, 33, 34])
        self.assert_slots_consistent(gram, support_union(after))
        self.assert_block_matches_gathered(model, gram, after[1])

    def test_block_forward_product_matches_the_gathered_one(self):
        model = self.model()
        gram = GramRows(model, np.zeros(self.d))
        self.assert_slot_reuse(model, gram)
        assert gram.block.shape == (gram.cap, self.d)

    def test_union_past_the_cap_takes_the_full_product(self):
        model = self.model()
        rng = np.random.default_rng(67)
        gram = GramRows(model, np.zeros(self.d))
        Theta = np.array([self.sparse(rng, range(0, 7)), self.sparse(rng, range(7, 13))])
        assert np.array_equal(value_and_gradient(model, Theta, gram)[1], self.full_gradient(model, Theta))
        assert gram.used == 0

    def test_cap_is_at_most_the_dimension(self):
        X = np.random.default_rng(83).standard_normal((self.n, 6))
        gram = GramRows(ObjectiveModel(family=LINEAR, X=X, y=np.ones(self.n)), np.zeros(6))
        assert gram.cap == 6 and gram.block.shape == (6, 6)

    def test_drifting_window_reuses_the_slots_it_frees(self):
        model = self.model()
        rng = np.random.default_rng(71)
        gram = GramRows(model, np.zeros(self.d))
        # a window of 5 columns moving 2 columns per call, then back to columns whose slots were taken
        for start in list(range(0, 40, 2)) + [0]:
            theta = self.sparse(rng, range(start, start + 5))
            self.assert_matches_full(model, gram, theta)
            assert gram.used == 5
            self.assert_slots_consistent(gram, np.flatnonzero(theta))
        assert gram.computed == 5 + 19 * 2 + 5

    def test_drift_near_the_cap_fills_one_slot_per_new_column(self):
        # an 11-column window moving one column per call, one short of the
        # cap: each new column takes the slot of the one that left
        model = self.model()
        rng = np.random.default_rng(79)
        gram = GramRows(model, np.zeros(self.d))
        for start in range(45):
            theta = self.sparse(rng, range(start, start + 11))
            assert gram.product(theta, np.flatnonzero(theta)) is not None
            self.assert_matches_full(model, gram, theta)
            assert gram.used == 11
        assert gram.computed == 11 + 44

    def test_reentering_column_keeps_its_slot(self):
        model = self.model()
        rng = np.random.default_rng(89)
        gram = GramRows(model, np.zeros(self.d))
        theta = self.sparse(rng, [3, 7, 11])
        first = value_and_gradient(model, theta, gram)
        self.assert_matches_full(model, gram, self.sparse(rng, [3, 7]))
        again = value_and_gradient(model, theta, gram)  # 11 re-enters its intact slot
        assert gram.computed == 3 and np.array_equal(gram.order[:3], [3, 7, 11])
        for a, b in zip(first, again):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        self.assert_matches_full(model, gram, self.sparse(rng, [3, 7, 40]))  # 40 takes 11's slot
        assert gram.computed == 4 and gram.slot[11] == -1 and gram.slot[40] == 2
        self.assert_matches_full(model, gram, theta)  # 11 is filled again, into 40's slot
        assert gram.computed == 5 and gram.used == 3 and gram.slot[40] == -1

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(st.lists(st.sets(st.integers(0, d - 1), max_size=12), min_size=1, max_size=12))
    def test_slots_track_any_sequence_of_unions(self, unions):
        model = self.model()
        gram = GramRows(model, np.zeros(self.d))
        widest = 0
        for union in unions:
            cols = np.array(sorted(union), dtype=np.intp)
            theta = np.zeros(self.d)
            theta[cols] = 1.0 + cols
            widest = max(widest, cols.size)
            assert gram.product(theta, cols) is not None
            self.assert_slots_consistent(gram, cols)
            assert gram.used <= widest
        self.assert_matches_full(model, gram, theta)

    def test_logistic_slots_hold_columns_only(self):
        # the slot sequence of the linear case: X theta from the slots within
        # 1e-13 (relative) of the gathered product, the gradient the full
        # product R X / n
        model = self.model(LOGISTIC)
        gram = GramRows(model, np.zeros(self.d))
        assert gram.block.shape == (gram.cap, self.n)
        self.assert_slot_reuse(model, gram)
        assert gram.xty is None

    def test_logistic_repeat_call_gathers_no_columns(self):
        n, d, union = 400, 160, 40
        rng = np.random.default_rng(101)
        X = rng.standard_normal((n, d))
        model = ObjectiveModel(family=LOGISTIC, X=X, y=(rng.random(n) < 0.5).astype(float))
        gram = GramRows(model, np.zeros(d))
        Theta = np.zeros((2, d))
        Theta[0, :union // 2] = rng.standard_normal(union // 2)
        Theta[1, d - union // 2:] = rng.standard_normal(union // 2)
        first = value_and_gradient(model, Theta, gram)
        assert gram.used == gram.computed == union
        tracemalloc.start()
        try:
            second = value_and_gradient(model, Theta, gram)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gram.computed == union
        assert peak < 8 * n * union  # the gathered columns alone would take that
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()


class TestAnchoredLoss:
    """The linear Gram path's loss, f(a) + (1/2) (theta - a) . (grad f(theta) + grad f(a)), against the residual form.

    The two forms round differently; they must agree within

        16 eps (f(a) + f + ||theta - a|| (||grad f(theta)|| + ||grad f(a)||)),

    f the residual form's value: the anchored form's rounding scale (see the
    `objectives` docstring) plus the residual form's own.
    """

    n, d = 48, 60  # the cache holds GATHER_MAX_FRAC * n = 12 rows

    def model(self, anchor):
        rng = np.random.default_rng(103)
        X = rng.standard_normal((self.n, self.d))
        return ObjectiveModel(family=LINEAR, X=X, y=X @ anchor + rng.standard_normal(self.n))

    def anchor(self):
        a = np.zeros(self.d)
        a[[4, 17, 33]] = [30.0, -20.0, 10.0]
        return a

    def assert_matches_residual_form(self, model, gram, Theta):
        f, G = value_and_gradient(model, Theta, gram)
        assert gram.used > 0  # the Gram path
        f_ref = loss_and_residual(model, Theta)[0]
        a = gram.anchor
        dist = np.linalg.norm(np.atleast_2d(Theta) - a, axis=-1)
        scale = gram.anchor_value + f_ref + dist * (np.linalg.norm(G, axis=-1) + np.linalg.norm(gram.anchor_grad))
        assert np.all(np.abs(f - f_ref) <= 16 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("zero_anchor", [False, True], ids=["truth", "zero"])
    def test_vector_batch_and_stale_slots(self, zero_anchor):
        a = self.anchor()
        model = self.model(a)
        gram = GramRows(model, np.zeros(self.d) if zero_anchor else a)
        rng = np.random.default_rng(107)
        near = a + np.where(a != 0.0, 1e-3 * rng.standard_normal(self.d), 0.0)
        self.assert_matches_residual_form(model, gram, near)
        Theta = np.zeros((3, self.d))
        Theta[0] = near
        Theta[1, [4, 17, 40, 41]] = rng.standard_normal(4)
        Theta[2, [5, 50]] = [30.0, 1.0]
        self.assert_matches_residual_form(model, gram, Theta)
        assert gram.used == 7
        self.assert_matches_residual_form(model, gram, Theta[2])  # 5 stale slots, zero weight
        assert gram.used == 7

    def test_anchor_value_is_the_target_bit_for_bit(self):
        a = self.anchor()
        model = self.model(a)
        gram = GramRows(model, a)
        assert gram.anchor_value == target_value(model, a)
        f, _ = value_and_gradient(model, np.array([a, a]), gram)
        assert f.tolist() == [target_value(model, a)] * 2

    @pytest.mark.parametrize("anchor_size", [0, 3, 30, 60])
    def test_loss_columns_are_the_sorted_union(self, anchor_size):
        # the columns the loss's dot reads: cols with the anchor's support, as np.union1d gives them
        rng = np.random.default_rng(109 + anchor_size)
        a = np.zeros(self.d)
        a[rng.choice(self.d, anchor_size, replace=False)] = rng.standard_normal(anchor_size)
        model = self.model(a)
        gram = GramRows(model, a)
        for _ in range(20):
            theta = np.zeros(self.d)
            theta[rng.choice(self.d, rng.integers(0, 13), replace=False)] = 1.0
            cols = support_union(theta)
            gram.product(theta, cols)
            idx, a_idx, grad_a_idx = gram._idx
            expected = np.union1d(cols, np.flatnonzero(a))
            assert idx.dtype == expected.dtype and idx.tolist() == expected.tolist()
            assert a_idx.tolist() == a[expected].tolist()
            assert grad_a_idx.tolist() == gram.anchor_grad[expected].tolist()


class TestDomainTypes:
    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            ObjectiveModel(family=LINEAR, X=[[1.0, np.nan]], y=[1.0])
        with pytest.raises(ValueError):
            ObjectiveModel(family=LINEAR, X=[[1.0, 2.0]], y=[1.0, 2.0])
        with pytest.raises(ValueError):
            ObjectiveModel(family=LINEAR, X=np.zeros((0, 2)), y=np.zeros(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "pos_inf", "neg_inf"])
    @pytest.mark.parametrize("where", ["X", "y"])
    def test_dataset_rejects_non_finite(self, where, bad):
        X, y = np.ones((3, 4)), np.zeros(3)
        (X if where == "X" else y)[1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            ObjectiveModel(family=LINEAR, X=X, y=y)
        # 1000 x 400 is four column blocks of the finiteness pass (131, 131, 131 and 7
        # columns); the bad entry sits in the last one
        X, y = np.ones((1000, 400), order="F"), np.zeros(1000)
        if where == "X":
            X[-1, -1] = bad
        else:
            y[-1] = bad
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="must be finite"):
                ObjectiveModel(family=LINEAR, X=X, y=y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.size // 2  # an n x d mask of X would take X.size bytes

    def test_logistic_responses_validated(self):
        with pytest.raises(ValueError):
            ObjectiveModel(family=LOGISTIC, X=[[1.0]], y=[0.5])
