"""Unit and property tests for the sparsifying operators."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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


def step_cases(z, s, seed, gamma):
    """(guess, theta, g, S) per guess S of z's top-s set: theta is +0.0 off S and theta - gamma g aims at z.

    Off S, g is -z / gamma when gamma > 0 and any small integer
    otherwise; on S it is any small integer, and theta_S = z_S + gamma g_S.
    A subnormal gamma can leave no finite -z / gamma; the example is then
    rejected, inside a hypothesis test.
    """
    rng = np.random.default_rng(seed)
    for name, S in support_guesses(z, s, seed).items():
        off = np.setdiff1d(np.arange(z.size), S)
        g = rng.choice([-2.0, -1.0, 0.0, 0.0, 1.0, 2.0], size=z.size)
        if gamma > 0.0:
            with np.errstate(over="ignore"):
                g[off] = -z[off] / gamma
            assume(np.isfinite(g).all())
        theta = np.zeros(z.size)
        theta[S] = z[S] + gamma * g[S]
        yield name, theta, g, S


def certifies(theta, gamma, g, S, s):
    """The step's certificate: S has s < d entries and min_S |z_S| > gamma max_{j not in S} |g_j|."""
    if not S.size == s < theta.size:
        return False
    off = np.setdiff1d(np.arange(theta.size), S)
    return bool(np.abs(theta[S] - gamma * g[S]).min() > gamma * np.abs(g[off]).max())


GAMMAS = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0]), st.floats(0.0, 1e3))


class TestGuessedSupport:
    """A step guesses its top-s set from the carried support: same bits as the partition, and its support."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(guessed_vectors(), GAMMAS)
    # RT halves a kept subnormal to (signed) zero: the certified support must drop it
    @example((np.array([5e-324, 0.0, 0.0]), 1, 0), 0.0)
    @example((np.array([0.0, -5e-324, 1.0, 0.0]), 2, 1), 0.0)
    def test_guessed_selection_matches_reference(self, case, gamma):
        z, s, seed = case
        for name, theta, g, S in step_cases(z, s, seed, gamma):
            off = np.setdiff1d(np.arange(z.size), S)
            g_before = g.tobytes()
            for signed in (False, True):
                theta[off] = -0.0 if signed else 0.0
                before = theta.copy()
                for kind in (HT, RT):
                    op = ThresholdSpec(kind=kind, s=s)
                    ref = reference_threshold(before - gamma * g, s, kind)
                    support = op.step(theta, gamma, g, S)
                    assert support.tolist() == np.flatnonzero(ref).tolist(), (name, kind)
                    certified = certifies(before, gamma, g, S, s)
                    # the carried support comes back itself exactly while a certified step keeps it
                    assert (support is S) == (certified and support.size == s), (name, kind)
                    if certified:
                        # written on S, where the top-s set is; the zeros off S stay
                        assert theta[S].tobytes() == ref[S].tobytes(), (name, kind)
                        assert theta[off].tobytes() == before[off].tobytes() and not ref[off].any()
                    else:
                        # the fallback writes the operator's output over all of theta
                        assert theta.tobytes() == op.apply(before - gamma * g).tobytes(), (name, kind)
                    if not signed:
                        assert theta.tobytes() == ref.tobytes(), (name, kind)
                    theta[:] = before
            assert g.tobytes() == g_before

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(guessed_vectors(), GAMMAS, st.integers(0, 11))
    def test_nan_rejected_with_any_guess(self, case, gamma, where):
        z, s, seed = case
        if s >= z.size:
            return
        for _, theta, g, S in step_cases(np.nan_to_num(z), s, seed, gamma):
            bad_g = g.copy()
            bad_g[where % z.size] = np.nan
            bad_theta = theta.copy()
            if S.size:
                bad_theta[S[where % S.size]] = np.nan
            for kind in (HT, RT):
                op = ThresholdSpec(kind=kind, s=s)
                for t, grad in ((theta, bad_g), (bad_theta, g)):
                    if t is bad_theta and not S.size:
                        continue
                    stepped = t.copy()
                    with pytest.raises(ValueError, match="NaN"):
                        op.step(stepped, gamma, grad, S)
                    assert stepped.tobytes() == t.tobytes()  # raised before writing theta

    def test_certified_guess_is_returned_unchanged(self):
        # z = theta - g = [-0.1, -4.0, 0.2, 3.0, -0.3, 2.0]: S is its top-3 set
        theta = np.array([0.0, -4.0, 0.0, 3.0, 0.0, 2.5])
        g = np.array([0.1, 0.0, -0.2, 0.0, 0.3, 0.5])
        guess = np.array([1, 3, 5])
        for kind in (HT, RT):
            row = theta.copy()
            assert ThresholdSpec(kind=kind, s=3).step(row, 1.0, g, guess) is guess
            assert row.tobytes() == reference_threshold(theta - g, 3, kind).tobytes()
        # z = [1.0, 3.0, 2.0, -2.0]: entries 2 and 3 tie at the boundary, and the lower index wins
        op = ThresholdSpec(kind=HT, s=2)
        tied, g = np.array([0.0, 3.0, 0.0, -2.0]), np.array([-1.0, 0.0, -2.0, 0.0])
        z = tied - g
        support = op.step(tied, 1.0, g, np.array([1, 3]))
        # the fallback writes the operator's output over all of theta
        assert support.tolist() == [1, 2] and tied.tobytes() == op.apply(z).tobytes()
        assert tied.tolist() == [0.0, 3.0, 2.0, 0.0]

    def test_guess_needs_a_vector(self):
        with pytest.raises(ValueError, match="vector"):
            ThresholdSpec(kind=HT, s=1).step(np.ones((2, 3)), 1.0, np.ones((2, 3)), np.array([0]))


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
