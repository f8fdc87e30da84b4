"""Sparsifying operators and an empirical relative-concavity oracle.

Two operators are provided.  Hard thresholding (HT) keeps the ``s``
largest-magnitude entries of a vector and zeroes the rest.  Reciprocal
thresholding (RT) keeps the same support but shrinks each kept entry::

    RT(v)_i = sign(v_i) * (|v_i| + sqrt(v_i^2 - tau^2)) / 2

where ``tau`` is the magnitude of the (s+1)-th largest entry.  Kept
magnitudes therefore lie in ``[|v_i|/2, |v_i|]`` and shrink to exactly
half at a tied boundary.

Both operators break magnitude ties deterministically in favour of the
lowest index, so identical inputs always produce identical outputs.  The
support is selected in O(d) per vector, by one path for a vector and for
each row of a batch.  One ``np.partition`` at d-s-1 puts tau, the
(s+1)-th largest magnitude, there and the s largest after it; their
minimum is t, the s-th largest.  (Partitioning at both d-s-1 and d-s
measured twice as slow.)  Entries at or above t are kept.  Every row
keeps at least s entries, so when the flat count of kept entries is s
per row, no row has a tie past the boundary; only otherwise are the rows
counted one by one, and in a row that keeps too many, the entries tied
at t fill the remaining slots in index order.  The result equals the
first s positions of a stable descending sort (see Blumensath & Davies
2009 for the operator).

The descent loop hands the operator its gradient step:
`ThresholdSpec.step` writes Phi_s(theta - gamma g) into an iterate theta
that is zero off a carried support S, in the loop the support of the
previous step, and returns the new support.  Off S, z = theta - gamma g
has |z_j| = fl(gamma |g_j|), and rounding is monotone, so the largest of
them is fl(gamma max |g_j|).  When S has s < d entries and
min_S |z_S| > gamma max_{j not in S} |g_j|, S is exactly the top-s set
of z, with t and tau those two numbers: the step writes z_S, or RT's
values, into theta on S only, without forming z or partitioning (the
guess-then-verify active set of glmnet, Friedman, Hastie & Tibshirani
2010, and the strong rules of Tibshirani et al. 2012).  The test is
strict, so a tie at the boundary or a NaN (whose maximum or minimum is
NaN) falls back to forming z, partitioning it and writing all of theta,
as does a changed support; the certified output has the partition's
bits.

``empirical_relative_concavity`` lower-bounds the worst-case ratio

    <y - Phi_s(z), z - Phi_s(z)> / ||y - Phi_s(z)||^2      (y s*-sparse)

by maximizing over randomized pairs, per-z analytically optimal sparse
responses, and deterministic tied-boundary configurations where the
supremum is attained.
"""

from dataclasses import dataclass

import numpy as np

from .rng import STREAM_CONCAVITY, substream

HT = "ht"
RT = "rt"
_KINDS = (HT, RT)

# Random trials the concavity oracle draws and thresholds per batch.
CONCAVITY_BATCH = 20000


@dataclass(frozen=True)
class ThresholdSpec:
    """Which sparsifying operator to apply, and at which sparsity level."""

    kind: str
    s: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown thresholding kind {self.kind!r}; expected one of {_KINDS}")
        if self.s < 1:
            raise ValueError(f"sparsity level must be >= 1, got {self.s}")

    def apply(self, v: np.ndarray) -> np.ndarray:
        """HT or RT of ``v``, or of each row of a batch."""
        return (hard_threshold if self.kind == HT else reciprocal_threshold)(v, self.s)

    def step(self, theta: np.ndarray, gamma: float, g: np.ndarray, support: np.ndarray,
             scratch: np.ndarray | None = None) -> np.ndarray:
        """Write Phi_s(theta - gamma g) into theta; return its support, ``np.flatnonzero`` of it.

        ``theta`` is a float vector that is zero off ``support``, ascending
        distinct indices such as the support a previous step returned (as
        with `np.searchsorted`'s sorted input this is not checked), and
        ``gamma`` a finite step size >= 0.  When the certificate of the
        module docstring holds, only theta's entries on ``support`` are
        written, its zeros off it stay as they are (the operator writes
        +0.0 there), and ``support`` itself comes back unless RT halved a
        subnormal kept value to 0.  Otherwise the operator's output is
        copied into all of theta.  ``scratch``, a float vector of theta's
        length, saves the certificate's |g| allocation.  A NaN in z
        raises ValueError when s is below d, and leaves theta as it was.
        """
        if theta.ndim != 1:
            raise ValueError("a step needs a vector")
        if support.size == self.s < theta.size:
            # argmax and argmin (which find a NaN first) cost a third of max and min at desk scale
            a = np.abs(g, out=scratch)
            a[support] = 0.0
            tau = gamma * a[a.argmax()]  # the largest |z_j| off the support
            z_in = theta[support] - gamma * g[support]
            a_in = np.abs(z_in)
            if a_in[a_in.argmin()] > tau:
                kept = z_in if self.kind == HT else _shrink(z_in, a_in, tau)
                theta[support] = kept
                # RT halves a kept subnormal to 0, which leaves the support
                return support if np.count_nonzero(kept) == self.s else support[kept != 0.0]
        theta[:] = self.apply(theta - gamma * g)
        return np.flatnonzero(theta)


def _check_input(v: np.ndarray, s: int) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] == 0:
        raise ValueError("input must be a vector or a batch of rows with a nonempty last axis")
    if s < 1:
        raise ValueError(f"sparsity level must be >= 1, got {s}")
    return v


def _top_s_mask(a: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mask of the ``s`` largest magnitudes ``a`` along the last axis, with t and tau.

    Needs ``1 <= s < a.shape[-1]``.  One partition puts the s largest last:
    their minimum t is the s-th largest magnitude, the entry before them
    the (s+1)-th, tau (both kept with a trailing axis of length 1).
    Entries at or above t are kept, and when more tie at t than slots
    remain, only the lowest-index tied entries.  A NaN sorts last, so t
    is NaN exactly in a row that holds one, and that row keeps nothing.
    A vector that keeps s entries therefore holds no NaN; t is checked
    for one otherwise, and in every batch, where a row with ties past
    the boundary can make up the flat count of a row that keeps nothing.
    """
    n = a.shape[-1]
    part = np.partition(a, n - s - 1, axis=-1)
    t, tau = part[..., n - s :].min(axis=-1, keepdims=True), part[..., n - s - 1 : n - s]
    keep = a >= t
    kept = np.count_nonzero(keep)
    if (kept != s or a.ndim > 1) and np.isnan(t).any():
        raise ValueError("thresholding input holds a NaN")
    if kept != s * (a.size // n):
        tied = a == t
        excess = np.count_nonzero(keep, axis=-1, keepdims=True) - s
        slots = np.count_nonzero(tied, axis=-1, keepdims=True) - excess
        keep &= ~tied | (np.cumsum(tied, axis=-1) <= slots)
    return keep, t, tau


def _shrink(v: np.ndarray, a: np.ndarray, tau) -> np.ndarray:
    """RT's kept value sign(v) (|v| + sqrt(v^2 - tau^2)) / 2 at entries v with magnitudes a.

    A kept magnitude is at least t >= tau, so the clamp at 0 acts only off
    the support.  The value takes v's sign bit, so a kept zero keeps its
    sign; a subnormal v whose half rounds to 0 gives a zero of v's sign.
    """
    return np.copysign(0.5 * (a + np.sqrt(np.maximum(a * a - tau * tau, 0.0))), v)


def _threshold(V: np.ndarray, s: int, kind: str) -> np.ndarray:
    """HT or RT of a vector, or of each row of a batch."""
    if s >= V.shape[-1]:
        return V.copy()
    a = np.abs(V)
    keep, t, tau = _top_s_mask(a, s)
    # RT writes +0.0 for a kept zero of either sign; + 0.0 turns -0.0 into +0.0 and nothing else
    return np.where(keep, V if kind == HT else _shrink(V + 0.0, a, tau), 0.0)


def hard_threshold(v: np.ndarray, s: int) -> np.ndarray:
    """Keep the ``s`` largest-magnitude entries of ``v``, or of each row of a batch, zero the rest.

    A row that holds a NaN, when ``s`` is below its length, raises
    ValueError.
    """
    return _threshold(_check_input(v, s), s, HT)


def reciprocal_threshold(v: np.ndarray, s: int) -> np.ndarray:
    """Keep the top-``s`` support of ``v``, or of each row of a batch, with reciprocal shrinkage.

    When ``s`` is at least the row length the boundary magnitude is 0 and
    the operator is the identity; otherwise a NaN is rejected.
    """
    return _threshold(_check_input(v, s), s, RT)


def relative_concavity_bound(kind: str, s_star: int, s: int) -> float | None:
    """Worst-case concavity ratio guaranteed for the operator.

    HT: sqrt(s*/s) / 2 for all s* <= s.
    RT: (s*/s) / min{1, 4 (1 - s*/s)}, defined only for s* < s.
    """
    if not 1 <= s_star <= s:
        raise ValueError(f"need 1 <= s_star <= s, got s_star={s_star}, s={s}")
    r = s_star / s
    if kind == HT:
        return 0.5 * np.sqrt(r)
    if kind == RT:
        if s_star == s:
            return None
        return r / min(1.0, 4.0 * (1.0 - r))
    raise ValueError(f"unknown thresholding kind {kind!r}")


@dataclass(frozen=True)
class ConcavityEstimate:
    """Empirical lower bound on the concavity ratio of one operator cell."""

    operator: ThresholdSpec
    s_star: int
    dim: int
    estimate: float
    theoretical_bound: float | None
    trials: int


def _pair_ratios(Y: np.ndarray, Z: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Concavity ratios for row-paired (y, z), P = Phi(Z); pairs with y = Phi(z) are dropped."""
    R = Z - P
    W = Y - P
    num = np.einsum("ij,ij->i", W, R)
    den = np.einsum("ij,ij->i", W, W)
    ok = den > 0.0
    return num[ok] / den[ok]


def _best_response(Z: np.ndarray, P: np.ndarray, s_star: int) -> np.ndarray:
    """Per-row s*-sparse y maximizing the ratio over supports off the kept set.

    For y supported on T disjoint from the kept support of P = Phi(Z), the
    ratio is (c A - q) / (c^2 A + B) with A = ||r_T||^2, B = ||Phi(z)||^2,
    q = <Phi(z), z - Phi(z)> and y = c r_T; the best T is the top-s* of the
    off-support residual (selected by `hard_threshold`, lowest index on a
    tie) and the optimal scale is c = (q + sqrt(q^2+AB))/A.
    """
    R = Z - P
    Rm = np.where(P != 0.0, 0.0, R)
    nrows, dim = Z.shape
    rT = hard_threshold(Rm, min(s_star, dim))
    A = np.einsum("ij,ij->i", rT, rT)
    B = np.einsum("ij,ij->i", P, P)
    q = np.einsum("ij,ij->i", P, R)
    c = np.zeros(nrows)
    good = A > 0.0
    c[good] = (q[good] + np.sqrt(q[good] ** 2 + A[good] * B[good])) / A[good]
    return c[:, None] * rT


def _batch_max_ratio(Y: np.ndarray, Z: np.ndarray, op: ThresholdSpec, s_star: int) -> tuple[float, int]:
    """Largest ratio over the pairs (Y, Z) and (best response, Z), and the pair count.

    Z is thresholded once; both candidate sets reuse the result.
    """
    P = op.apply(Z)
    best, total = 0.0, 0
    for cand in (Y, _best_response(Z, P, s_star)):
        r = _pair_ratios(cand, Z, P)
        if r.size:
            best = max(best, float(r.max()))
        total += r.size
    return best, total


def _structured_pairs(s: int, s_star: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Tied-boundary configurations where the supremum is approached.

    z has s unit entries followed by a block of s* entries at magnitude
    1 - delta; y lives on that block.  The scale grid brackets
    sqrt(s/s*), the maximizer at an exact tie.
    """
    k = min(s_star, dim - s)
    if k <= 0:
        return np.empty((0, dim)), np.empty((0, dim))
    b_star = np.sqrt(s / s_star)
    zs, ys = [], []
    for delta in (0.0, 1e-9, 1e-6, 1e-3, 1e-2, 0.05, 0.1, 0.2, 0.4, 0.8):
        z = np.zeros(dim)
        z[:s] = 1.0
        z[s : s + k] = 1.0 - delta
        for g in (0.25, 0.5, 1.0, 2.0, 4.0):
            y = np.zeros(dim)
            y[s : s + k] = g * b_star * (1.0 - delta)
            zs.append(z)
            ys.append(y)
    return np.array(ys), np.array(zs)


def empirical_relative_concavity(
    op: ThresholdSpec,
    s_star: int,
    dim: int,
    trials: int,
    seed: int,
) -> ConcavityEstimate:
    """Maximize the concavity ratio over randomized and structured pairs.

    ``trials`` counts random z draws; each contributes a random s*-sparse y
    and the analytically optimal off-support response, so the number of
    evaluated pairs is at least ``2 * trials``.  The estimate is a lower
    bound on the true supremum (tight at tied boundaries for HT).
    """
    s = op.s
    if s_star < 1 or s_star > s:
        raise ValueError(f"need 1 <= s_star <= s, got s_star={s_star}, s={s}")
    if s > dim:
        raise ValueError(f"operator sparsity {s} exceeds dimension {dim}")
    if trials < 1:
        raise ValueError("trials must be >= 1")

    rng = substream(seed, STREAM_CONCAVITY)
    best = 0.0
    total = 0
    for done in range(0, trials, CONCAVITY_BATCH):
        b = min(CONCAVITY_BATCH, trials - done)
        Z = rng.standard_normal((b, dim))
        keys = rng.random((b, dim))
        idx = np.argpartition(keys, kth=min(s_star, dim) - 1, axis=1)[:, : min(s_star, dim)]
        rows = np.arange(b)[:, None]
        Y = np.zeros((b, dim))
        scale = 10.0 ** rng.uniform(-1.0, 1.5, size=(b, 1))
        Y[rows, idx] = rng.standard_normal((b, min(s_star, dim))) * scale
        batch_best, pairs = _batch_max_ratio(Y, Z, op, s_star)
        best = max(best, batch_best)
        total += pairs

    Ys, Zs = _structured_pairs(s, s_star, dim)
    if Zs.size:
        batch_best, pairs = _batch_max_ratio(Ys, Zs, op, s_star)
        best = max(best, batch_best)
        total += pairs

    return ConcavityEstimate(
        operator=op,
        s_star=s_star,
        dim=dim,
        estimate=best,
        theoretical_bound=relative_concavity_bound(op.kind, s_star, s),
        trials=total,
    )
