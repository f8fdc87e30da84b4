"""Unit and property tests for the sparsifying operators."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsepolyak.thresholding import (
    HT,
    RT,
    ThresholdSpec,
    hard_threshold,
    reciprocal_threshold,
    relative_concavity_bound,
)


def reference_support(v, s):
    """Top-s support by a stable descending sort of the magnitudes."""
    return np.sort(np.argsort(-np.abs(v), kind="stable")[: min(s, v.size)])


def reference_threshold(v, s, kind):
    """HT/RT written directly from the stable-sort support and tau."""
    if s >= v.size:
        return v.copy()
    order = np.argsort(-np.abs(v), kind="stable")
    keep, tau = order[:s], abs(v[order[s]])
    out = np.zeros_like(v)
    if kind == HT:
        out[keep] = v[keep]
    else:
        a = np.abs(v[keep])
        out[keep] = np.sign(v[keep]) * 0.5 * (a + np.sqrt(a * a - tau * tau))
    return out


# ties straddling the s-boundary at non-contiguous indices, a tied RT tau,
# signed zeros, and an all-zero vector
TIE_CASES = [
    np.array([1.0, 3.0, -1.0, 0.5, 1.0, 3.0, -1.0, 0.2, 1.0]),
    np.array([-2.0, 0.0, 2.0, 5.0, -2.0, 0.0, 2.0, -5.0]),
    np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0, -0.0]),
    np.array([-0.0, 0.0, -0.0, 0.0]),
    np.zeros(5),
]


def ht_support(v, s):
    """The support HT keeps: its nonzero entries, in ascending order."""
    return np.flatnonzero(hard_threshold(v, s))


def reference_nonzero_support(v, s):
    """The nonzero entries of the stable-sort support."""
    ref = reference_support(v, s)
    return ref[v[ref] != 0.0]


class TestTopSSupport:
    def test_distinct_magnitudes(self):
        assert ht_support(np.array([3.0, -5.0, 2.0, 0.5]), 2).tolist() == [0, 1]

    def test_tie_break_lowest_index(self):
        assert ht_support(np.array([2.0, 2.0, 2.0]), 2).tolist() == [0, 1]
        # five entries tie at magnitude 1 (0, 2, 4, 6, 8); two slots remain for them
        assert ht_support(TIE_CASES[0], 4).tolist() == [0, 1, 2, 5]
        for v in TIE_CASES:
            for s in range(1, v.size + 2):
                assert ht_support(v, s).tolist() == reference_nonzero_support(v, s).tolist()
                for kind, fn in ((HT, hard_threshold), (RT, reciprocal_threshold)):
                    assert fn(v, s).tobytes() == reference_threshold(v, s, kind).tobytes()

    def test_s_exceeding_dimension_clamps(self):
        assert ht_support(np.array([7.0]), 3).tolist() == [0]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            hard_threshold(np.array([1.0, 2.0]), 0)
        with pytest.raises(ValueError):
            hard_threshold(np.array([]), 1)

    @pytest.mark.parametrize("fn", [hard_threshold, reciprocal_threshold])
    def test_nan_input_rejected(self, fn):
        batches = (
            np.array([[1.0, 2.0, 3.0, 4.0], [1.0, np.nan, 2.0, 3.0]]),
            # the first row keeps four tied entries: the flat count is s per row
            np.array([[1.0, 1.0, 1.0, 1.0], [np.nan, 1.0, 2.0, 3.0]]),
        )
        for v in (np.array([np.nan, 1.0, 2.0, 3.0]), *batches):
            with pytest.raises(ValueError, match="NaN"):
                fn(v, 2)


class TestHardThreshold:
    def test_keeps_two_largest(self):
        out = hard_threshold(np.array([3.0, -5.0, 2.0, 0.5]), 2)
        np.testing.assert_array_equal(out, [3.0, -5.0, 0.0, 0.0])

    def test_identity_when_s_covers_vector(self):
        np.testing.assert_array_equal(hard_threshold(np.array([1.0, 2.0]), 2), [1.0, 2.0])

    def test_zero_input(self):
        np.testing.assert_array_equal(hard_threshold(np.zeros(3), 1), np.zeros(3))

    def test_idempotent_and_sparse(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = rng.integers(1, 40)
            s = int(rng.integers(1, d + 1))
            v = rng.standard_normal(d)
            out = hard_threshold(v, s)
            assert np.count_nonzero(out) <= s
            np.testing.assert_array_equal(hard_threshold(out, s), out)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal(50)
        a = hard_threshold(v, 9)
        b = hard_threshold(v.copy(), 9)
        assert a.tobytes() == b.tobytes()


class TestReciprocalThreshold:
    def test_boundary_shrinkage_values(self):
        # boundary magnitude is 1; kept entries are (|v| + sqrt(v^2 - 1)) / 2
        out = reciprocal_threshold(np.array([3.0, 2.0, 1.0]), 2)
        expected = [1.5 + math.sqrt(8.0) / 2.0, 1.0 + math.sqrt(3.0) / 2.0, 0.0]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_tied_boundary_halves_kept_entries(self):
        out = reciprocal_threshold(np.array([2.0, 2.0, 2.0]), 2)
        np.testing.assert_allclose(out, [1.0, 1.0, 0.0], atol=1e-12)

    def test_identity_when_s_covers_vector(self):
        np.testing.assert_array_equal(reciprocal_threshold(np.array([5.0, -4.0]), 2), [5.0, -4.0])

    def test_shrinkage_sign_and_sparsity(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            d = int(rng.integers(2, 30))
            s = int(rng.integers(1, d))
            v = rng.standard_normal(d) * 10.0 ** rng.uniform(-2, 2)
            out = reciprocal_threshold(v, s)
            assert np.count_nonzero(out) <= s
            kept = np.flatnonzero(out)
            assert np.all(np.abs(out[kept]) <= np.abs(v[kept]) + 1e-15)
            assert np.all(np.abs(out[kept]) >= 0.5 * np.abs(v[kept]) - 1e-15)
            assert np.all(np.sign(out[kept]) == np.sign(v[kept]))

    def test_norm_dominated_by_hard_threshold(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            d = int(rng.integers(2, 30))
            s = int(rng.integers(1, d + 1))
            v = rng.standard_normal(d)
            assert np.linalg.norm(reciprocal_threshold(v, s)) <= np.linalg.norm(hard_threshold(v, s)) + 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        v = rng.standard_normal(64)
        assert reciprocal_threshold(v, 8).tobytes() == reciprocal_threshold(v.copy(), 8).tobytes()


class TestBatchAgreement:
    def test_batch_matches_vector_functions(self):
        rng = np.random.default_rng(17)
        Z = rng.standard_normal((64, 12))
        # inject exact ties to exercise deterministic tie-breaking
        Z[:8, 3] = Z[:8, 7]
        # rounded rows: ties across the boundary at varying indices, tied RT
        # tau values, signed zeros and all-zero rows
        T = np.round(rng.standard_normal((200, 12)))
        T[rng.random(T.shape) < 0.2] = -0.0
        T[:3] = 0.0
        for s in (1, 4, 11, 12):
            for kind, fn in ((HT, hard_threshold), (RT, reciprocal_threshold)):
                batch = fn(Z, s)
                rows = np.stack([fn(z, s) for z in Z])
                np.testing.assert_array_equal(batch, rows)
                ref = np.stack([reference_threshold(t, s, kind) for t in T])
                assert fn(T, s).tobytes() == ref.tobytes()


# integer-rounded entries, so magnitudes tie often, with both signed zeros
ENTRIES = st.sampled_from([-3.0, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0])


@st.composite
def batches(draw):
    d = draw(st.integers(1, 10))
    row = st.lists(ENTRIES, min_size=d, max_size=d)
    return np.array(draw(st.lists(row, min_size=1, max_size=5)))


class TestOneSelectionPath:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(batches())
    # rows 0 and 2 tie past the boundary at s = 2, row 1 does not: the
    # flat count of kept entries must send the batch to the per-row counts
    @example(np.array([[1.0, 1.0, -1.0, 2.0], [3.0, 2.0, 1.0, 0.0], [0.0, -0.0, 0.0, -0.0]]))
    def test_vector_and_batch_match_stable_sort_reference(self, V):
        for s in range(1, V.shape[1] + 1):
            for kind, fn in ((HT, hard_threshold), (RT, reciprocal_threshold)):
                ref = np.stack([reference_threshold(v, s, kind) for v in V])
                assert fn(V, s).tobytes() == ref.tobytes()
                for v, r in zip(V, ref):
                    assert fn(v, s).tobytes() == r.tobytes()


@st.composite
def guessed_vectors(draw):
    """A vector (tied integers or floats, subnormals included), a sparsity level and a NaN flag."""
    d = draw(st.integers(2, 12))
    entries = st.one_of(ENTRIES, st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=True))
    v = np.array(draw(st.lists(entries, min_size=d, max_size=d)), dtype=float)
    return v, draw(st.integers(1, d)), draw(st.integers(0, 2 ** 32 - 1))


def support_guesses(v, s, seed):
    """Guesses of the top-s support: true, stale by one swap, random, short and tied."""
    rng = np.random.default_rng(seed)
    true = reference_support(v, s)
    out = {"true": true, "random": np.sort(rng.choice(v.size, size=min(s, v.size), replace=False)),
           "short": true[:-1], "empty": true[:0]}
    outside = np.setdiff1d(np.arange(v.size), true)
    if outside.size:
        stale = true.copy()
        stale[rng.integers(true.size)] = rng.choice(outside)
        out["stale"] = np.sort(stale)
        # the boundary entry of the top-s set swapped for a later entry of equal magnitude
        a = np.abs(v)
        edge = true[np.flatnonzero(a[true] == a[true].min())[-1]]
        tied = outside[a[outside] == a[edge]]
        if tied.size:
            out["tied"] = np.sort(np.append(true[true != edge], tied[0]))
    return out


class TestGuessedSupport:
    """A support guess leaves the output's bits alone and returns the output's support."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(guessed_vectors())
    # RT halves a kept subnormal to (signed) zero: the certified support must drop it
    @example((np.array([5e-324, 0.0, 0.0]), 1, 0))
    @example((np.array([0.0, -5e-324, 1.0, 0.0]), 2, 1))
    def test_guessed_selection_matches_reference(self, case):
        v, s, seed = case
        before = v.tobytes()
        for name, guess in support_guesses(v, s, seed).items():
            for kind, fn in ((HT, hard_threshold), (RT, reciprocal_threshold)):
                out, support = fn(v, s, guess)
                assert out.tobytes() == reference_threshold(v, s, kind).tobytes(), (name, kind)
                assert out.tobytes() == fn(v, s).tobytes(), (name, kind)
                assert support.tolist() == np.flatnonzero(out).tolist(), (name, kind)
                out_spec, support_spec = ThresholdSpec(kind=kind, s=s).apply(v, guess)
                assert out_spec.tobytes() == out.tobytes()
                assert support_spec.tolist() == support.tolist()
        assert v.tobytes() == before

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(guessed_vectors(), st.integers(0, 11))
    def test_nan_rejected_with_any_guess(self, case, where):
        v, s, seed = case
        if s >= v.size:
            return
        v[where % v.size] = np.nan
        for guess in support_guesses(np.nan_to_num(v), s, seed).values():
            for fn in (hard_threshold, reciprocal_threshold):
                with pytest.raises(ValueError, match="NaN"):
                    fn(v, s, guess)

    def test_certified_guess_is_returned_unchanged(self):
        v = np.array([0.1, -4.0, 0.2, 3.0, -0.3, 2.0])
        guess = np.array([1, 3, 5])
        for fn in (hard_threshold, reciprocal_threshold):
            assert fn(v, 3, guess)[1] is guess
        tied = np.array([1.0, 3.0, 2.0, -2.0])  # entries 2 and 3 tie at the boundary
        out, support = hard_threshold(tied, 2, np.array([1, 3]))
        assert support.tolist() == [1, 2] and out.tolist() == [0.0, 3.0, 2.0, 0.0]

    def test_guess_needs_a_vector(self):
        with pytest.raises(ValueError, match="vector"):
            hard_threshold(np.ones((2, 3)), 1, np.array([0]))


class TestThresholdSpec:
    def test_apply_dispatch(self):
        v = np.array([3.0, 2.0, 1.0])
        np.testing.assert_array_equal(ThresholdSpec(kind=HT, s=2).apply(v), hard_threshold(v, 2))
        np.testing.assert_array_equal(ThresholdSpec(kind=RT, s=2).apply(v), reciprocal_threshold(v, 2))

    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdSpec(kind="soft", s=2)
        with pytest.raises(ValueError):
            ThresholdSpec(kind=HT, s=0)


class TestConcavityBounds:
    def test_hard_threshold_bound_values(self):
        assert relative_concavity_bound(HT, 1, 4) == pytest.approx(0.25)
        assert relative_concavity_bound(HT, 1, 1) == pytest.approx(0.5)
        assert relative_concavity_bound(HT, 4, 4) == pytest.approx(0.5)

    def test_reciprocal_bound_values(self):
        # ratio 1/4 with slack: min{1, 4 * 3/4} = 1
        assert relative_concavity_bound(RT, 1, 4) == pytest.approx(0.25)
        # ratio 1/2: min{1, 2} = 1
        assert relative_concavity_bound(RT, 1, 2) == pytest.approx(0.5)
        # ratio 3/4: min{1, 1} = 1
        assert relative_concavity_bound(RT, 3, 4) == pytest.approx(0.75)
        assert relative_concavity_bound(RT, 4, 4) is None

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            relative_concavity_bound(HT, 5, 4)
        with pytest.raises(ValueError):
            relative_concavity_bound(HT, 0, 4)
