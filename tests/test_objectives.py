"""Objective-function tests: frozen values, finite-difference oracle, convexity."""

import math

import numpy as np
import pytest

from sparsepolyak.objectives import (
    LINEAR,
    LOGISTIC,
    Dataset,
    ObjectiveModel,
    ParamVector,
    bregman_batch,
    cumulant,
    gradient,
    objective_value,
    target_value,
    value_and_gradient,
)


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
    return ObjectiveModel(family=family, data=Dataset(X=X, y=y))


class TestCumulant:
    def test_linear_values(self):
        assert cumulant(LINEAR, 3.0) == (4.5, 3.0)

    def test_logistic_symmetry_point(self):
        val, der = cumulant(LOGISTIC, 0.0)
        assert val == pytest.approx(math.log(2.0), abs=1e-15)
        assert der == 0.5

    def test_logistic_saturated_regime(self):
        # log(1 + e^800) differs from 800 by e^-800, far below float64 resolution
        val, der = cumulant(LOGISTIC, 800.0)
        assert abs(val - 800.0) <= 1e-12 * 800.0
        assert der == 1.0

    def test_logistic_derivative_strict_bounds(self):
        # saturation reaches exactly 0/1 beyond |t| ~ 36 in float64
        t = np.linspace(-36.0, 36.0, 2001)
        _, der = cumulant(LOGISTIC, t)
        assert np.all(der > 0.0)
        assert np.all(der < 1.0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            cumulant("poisson", 1.0)


class TestObjectiveValue:
    def test_linear_single_sample(self):
        model = ObjectiveModel(family=LINEAR, data=Dataset(X=[[1.0, 0.0]], y=[1.0]))
        assert objective_value(model, [0.0, 0.0]) == pytest.approx(0.5)

    def test_logistic_at_zero_is_log_two(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((7, 3))
        y = rng.integers(0, 2, size=7).astype(float)
        model = ObjectiveModel(family=LOGISTIC, data=Dataset(X=X, y=y))
        assert objective_value(model, np.zeros(3)) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_linear_interpolation_is_zero(self):
        model = ObjectiveModel(family=LINEAR, data=Dataset(X=[[1.0, 0.0], [0.0, 1.0]], y=[2.0, 4.0]))
        assert objective_value(model, [2.0, 4.0]) == 0.0

    def test_dimension_mismatch(self):
        model = ObjectiveModel(family=LINEAR, data=Dataset(X=[[1.0, 0.0]], y=[1.0]))
        with pytest.raises(ValueError):
            objective_value(model, [1.0, 2.0, 3.0])

    def test_logistic_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            model = random_model(rng, LOGISTIC)
            theta = rng.standard_normal(model.dim)
            assert objective_value(model, theta) >= -1e-12


class TestGradient:
    def test_linear_single_sample(self):
        model = ObjectiveModel(family=LINEAR, data=Dataset(X=[[1.0, 0.0]], y=[1.0]))
        np.testing.assert_allclose(gradient(model, [0.0, 0.0]), [-1.0, 0.0])

    def test_logistic_single_sample(self):
        model = ObjectiveModel(family=LOGISTIC, data=Dataset(X=[[2.0, 0.0]], y=[1.0]))
        np.testing.assert_allclose(gradient(model, [0.0, 0.0]), [-1.0, 0.0])

    @pytest.mark.parametrize("family", [LINEAR, LOGISTIC])
    def test_matches_finite_differences(self, family):
        rng = np.random.default_rng(42)
        for _ in range(100):
            model = random_model(rng, family)
            theta = rng.standard_normal(model.dim)
            g = gradient(model, theta)
            fd = finite_difference_gradient(model, theta)
            scale = np.maximum(np.abs(fd), 1e-3)
            assert np.max(np.abs(g - fd) / scale) <= 1e-5

    def test_linear_normal_equations_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            model = random_model(rng, LINEAR)
            theta = rng.standard_normal(model.dim)
            X, y = model.data.X, model.data.y
            expected = X.T @ (X @ theta - y) / model.data.n
            np.testing.assert_allclose(gradient(model, theta), expected, atol=1e-12)

    def test_dimension_mismatch(self):
        model = ObjectiveModel(family=LINEAR, data=Dataset(X=[[1.0, 0.0]], y=[1.0]))
        with pytest.raises(ValueError):
            gradient(model, [1.0])


class TestConvexity:
    @pytest.mark.parametrize("family", [LINEAR, LOGISTIC])
    def test_convex_along_segments(self, family):
        rng = np.random.default_rng(23)
        for _ in range(100):
            model = random_model(rng, family)
            t1 = rng.standard_normal(model.dim)
            t2 = rng.standard_normal(model.dim)
            lam = rng.uniform(0.01, 0.99)
            mid = objective_value(model, lam * t1 + (1 - lam) * t2)
            chord = lam * objective_value(model, t1) + (1 - lam) * objective_value(model, t2)
            assert mid <= chord + 1e-10


class TestTargetValue:
    def test_noiseless_fit_is_zero(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((12, 5))
        theta = rng.standard_normal(5)
        model = ObjectiveModel(family=LINEAR, data=Dataset(X=X, y=X @ theta))
        assert target_value(model, theta) <= 1e-28

    def test_single_point(self):
        model = ObjectiveModel(family=LINEAR, data=Dataset(X=[[1.0]], y=[2.0]))
        assert target_value(model, [1.0]) == pytest.approx(0.5)

    def test_logistic_zero_truth(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, LOGISTIC)
        assert target_value(model, np.zeros(model.dim)) == pytest.approx(math.log(2.0), abs=1e-12)


class TestFusedEvaluation:
    @pytest.mark.parametrize("family", [LINEAR, LOGISTIC])
    def test_bit_identical_to_separate_calls(self, family):
        rng = np.random.default_rng(19)
        for _ in range(25):
            model = random_model(rng, family)
            theta = rng.standard_normal(model.dim)
            f, g = value_and_gradient(model, theta)
            assert f == objective_value(model, theta)
            assert g.tobytes() == gradient(model, theta).tobytes()


class TestBatchEvaluation:
    @pytest.mark.parametrize("family", [LINEAR, LOGISTIC])
    def test_batch_matches_scalar(self, family):
        rng = np.random.default_rng(31)
        model = random_model(rng, family)
        Thetas = rng.standard_normal((16, model.dim))
        batch_f, batch_g = value_and_gradient(model, Thetas)
        singles = [objective_value(model, row) for row in Thetas]
        np.testing.assert_allclose(batch_f, singles, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(objective_value(model, Thetas), singles, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(batch_g, [gradient(model, row) for row in Thetas],
                                   rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("family", [LINEAR, LOGISTIC])
    def test_bregman_matches_definition(self, family):
        rng = np.random.default_rng(37)
        model = random_model(rng, family)
        T1 = rng.standard_normal((8, model.dim))
        T2 = rng.standard_normal((8, model.dim))
        batch = bregman_batch(model, T1, T2)
        direct = [
            objective_value(model, a) - objective_value(model, b) - gradient(model, b) @ (a - b)
            for a, b in zip(T1, T2)
        ]
        np.testing.assert_allclose(batch, direct, rtol=1e-9, atol=1e-11)
        assert np.all(batch >= -1e-12)


class TestDomainTypes:
    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(X=[[1.0, np.nan]], y=[1.0])
        with pytest.raises(ValueError):
            Dataset(X=[[1.0, 2.0]], y=[1.0, 2.0])
        with pytest.raises(ValueError):
            Dataset(X=np.zeros((0, 2)), y=np.zeros(0))

    def test_logistic_responses_validated(self):
        with pytest.raises(ValueError):
            ObjectiveModel(family=LOGISTIC, data=Dataset(X=[[1.0]], y=[0.5]))

    def test_param_vector_support_cache(self):
        p = ParamVector([0.0, 3.0, 0.0, -2.0])
        assert p.support.tolist() == [1, 3]
        assert p.nnz == 2
        assert p.dim == 4
        with pytest.raises(ValueError):
            p.values[0] = 1.0  # stored values are read-only
