"""Concavity-oracle tests: bound compliance, search tightness, determinism."""

import pytest

from sparsepolyak import thresholding
from sparsepolyak.thresholding import (
    HT,
    RT,
    ThresholdSpec,
    empirical_relative_concavity,
)

TOL = 1e-9


class TestOracleBounds:
    def test_ht_quarter_bound(self):
        est = empirical_relative_concavity(ThresholdSpec(kind=HT, s=4), 1, 8, 100000, seed=0)
        assert est.theoretical_bound == pytest.approx(0.25)
        assert est.estimate <= 0.25 + TOL
        assert est.trials >= 100000

    def test_ht_half_bound_minimal_cell(self):
        est = empirical_relative_concavity(ThresholdSpec(kind=HT, s=1), 1, 2, 10000, seed=0)
        assert est.estimate <= 0.5 + TOL

    def test_rt_quarter_bound(self):
        est = empirical_relative_concavity(ThresholdSpec(kind=RT, s=4), 1, 8, 100000, seed=0)
        assert est.theoretical_bound == pytest.approx(0.25)
        assert est.estimate <= 0.25 + TOL

    def test_search_achieves_ht_bound(self):
        est = empirical_relative_concavity(ThresholdSpec(kind=HT, s=4), 1, 8, 20000, seed=0)
        assert est.estimate >= 0.9 * 0.25

    def test_rt_equal_sparsity_has_no_bound(self):
        est = empirical_relative_concavity(ThresholdSpec(kind=RT, s=3), 3, 6, 5000, seed=1)
        assert est.theoretical_bound is None
        assert est.estimate >= 0.0


class TestOracleContract:
    def test_s_star_above_s_rejected(self):
        with pytest.raises(ValueError):
            empirical_relative_concavity(ThresholdSpec(kind=HT, s=2), 3, 8, 100, seed=0)

    def test_s_above_dim_rejected(self):
        with pytest.raises(ValueError):
            empirical_relative_concavity(ThresholdSpec(kind=HT, s=9), 1, 8, 100, seed=0)

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            empirical_relative_concavity(ThresholdSpec(kind=HT, s=2), 1, 8, 0, seed=0)

    def test_deterministic_in_seed(self):
        a = empirical_relative_concavity(ThresholdSpec(kind=RT, s=3), 2, 6, 5000, seed=42)
        b = empirical_relative_concavity(ThresholdSpec(kind=RT, s=3), 2, 6, 5000, seed=42)
        assert a.estimate == b.estimate
        assert a.trials == b.trials

    def test_identity_regime_gives_zero(self):
        # s = dim: the operator is the identity, the residual vanishes
        est = empirical_relative_concavity(ThresholdSpec(kind=HT, s=4), 2, 4, 2000, seed=3)
        assert est.estimate == 0.0

    @pytest.mark.parametrize("kind", [HT, RT])
    def test_each_batch_is_thresholded_once(self, monkeypatch, kind):
        # 45000 trials in batches of 20000: three random batches plus the
        # structured one; the random y and the best response share Phi(Z),
        # and the best response takes its top-s* residual with one HT call
        calls = []
        original = thresholding._threshold

        def counting(V, s, op_kind, *args):
            calls.append((V.shape[0], s, op_kind))
            return original(V, s, op_kind, *args)

        monkeypatch.setattr(thresholding, "_threshold", counting)
        empirical_relative_concavity(ThresholdSpec(kind=kind, s=2), 1, 8, 45000, seed=5)
        assert calls == [call for rows in (20000, 20000, 5000, 50) for call in ((rows, 2, kind), (rows, 1, HT))]
