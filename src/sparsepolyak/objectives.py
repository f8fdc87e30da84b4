"""GLM objectives: squared-error and logistic losses with a shared cumulant form.

One problem is one `ObjectiveModel(family, X, y)`: a GLM family, an n x d
design and n responses.  The loss of a parameter vector theta is the
1/n-averaged

    f(theta) = (1/n) sum_i [ psi(x_i' theta) - y_i x_i' theta ]

up to a theta-independent constant, where psi is the family's cumulant
function (t^2 / 2 linear, log(1 + e^t) logistic).  For the linear family
we evaluate the equivalent squared-error form f(theta) = ||y - X theta||^2
/ (2n) instead; the two differ by ||y||^2 / (2n) only, so target values
used in step-size gaps come from `target_value`, in the same form.

An evaluation forms U = X theta and reduces it to the loss and the
residual psi'(U) - y (`_loss_and_residual`; the logistic cumulant is
`softplus`).  Iterates are sparse, so U needs only the columns in the
union of the supports of the parameter rows: `_forward_product` gathers
them from the column-major design, or takes every column (the full
product) when the union spans more than `GATHER_MAX_FRAC` of them.  The
gradient has all d entries, since selection and the step rule read
every one: the full product X' r / n.

While a `GramRows` cache covers the support union, a logistic model
takes U from the cached columns, and a linear model forms no U at all:
its gradient is X'X theta / n - X'y / n from the Gram rows of the
support columns, and its loss comes from the gradient by the exact
identity for a quadratic,

    f(theta) = f(a) + (1/2) (theta - a) . (grad f(theta) + grad f(a)),

at an anchor a where f(a) and grad f(a) are computed once, by the
residual form.  Its rounding is about eps (f(a) + |theta - a| (|grad
f(theta)| + |grad f(a)|)), so an anchor near the iterates keeps it small
where the residual form is small too: a run anchors at its truth, where
the zero anchor would cancel terms of size ||y||^2 / (2n).  At theta = a
the identity gives f(a) bit for bit.  Parameters are float arrays: a
1-d vector or a B x d batch of rows.
"""

from dataclasses import dataclass

import numpy as np

LINEAR = "linear"
LOGISTIC = "logistic"
_FAMILIES = (LINEAR, LOGISTIC)

# Largest share of the d columns a forward product gathers; a wider support
# union takes the full product.  Measured with 1 OpenBLAS thread on a 2-vCPU
# x86 host, the gathered product breaks even with the full one at about
# 0.37 d (one row, 691 x 1000), 0.33 d (one row, 2675 x 1250), 0.55 d (ten
# rows, 2675 x 1250) and 0.32 d (one row, 922 x 10000); below 0.25 d it was
# never slower.  The gathered block is then at most a quarter of X's bytes
# (1.4 MB at 691 x 1000, 6.7 MB at 2675 x 1250), a temporary per product.
# The same share of n bounds the slots of a `GramRows` cache, so a linear
# block, cap x d, is at most a quarter of X's bytes, and a logistic one,
# cap x n, a quarter of n x n; its pages are touched only as slots fill.
GATHER_MAX_FRAC = 0.25


def sigmoid(t):
    """Overflow-safe logistic function 1 / (1 + exp(-t))."""
    t = np.asarray(t, dtype=float)
    return 0.5 * (1.0 + np.tanh(0.5 * t))


def softplus(t):
    """Overflow-safe log(1 + exp(t)), the logistic cumulant.

    max(t, 0) + log1p(exp(-|t|)): the branch formula of
    `np.logaddexp(0, t)`, built from vectorised ufuncs, which agree with it
    to a few ulps.  On a 10 x 2675 batch it took 0.10-0.16 ms against
    0.72-1.03 ms for `np.logaddexp` (one core of a shared 2-vCPU x86 host).
    """
    t = np.asarray(t, dtype=float)
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


@dataclass(frozen=True)
class ObjectiveModel:
    """One M-estimation problem: a GLM family, an n x d design X and a length-n response y.

    X is stored column-major (a no-op for a generated design), so the
    columns a forward product gathers are contiguous, and y contiguous, so
    `dataio` can write each array from its own buffer.  The family is
    checked first, then the data, then that logistic responses are 0 or 1.
    """

    family: str
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {_FAMILIES}")
        X = np.asfortranarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float, order="C")
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("X must be a nonempty n x d matrix")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError(f"y must have length n = {X.shape[0]}, got shape {y.shape}")
        # one pass over column blocks of about 1 MB of the column-major X, without an n x d mask
        width = max(1, 2**20 // X[:, 0].nbytes)
        if not (np.isfinite(y).all()
                and all(np.isfinite(X[:, j:j + width]).all() for j in range(0, X.shape[1], width))):
            raise ValueError("dataset entries must be finite")
        if self.family == LOGISTIC and not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("logistic responses must be in {0, 1}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def _as_params(model: ObjectiveModel, theta) -> np.ndarray:
    """A 1-d vector or a B x d batch of row vectors, checked against the model."""
    v = np.asarray(theta, dtype=float)
    if v.ndim not in (1, 2):
        raise ValueError("parameter must be a 1-d vector or a B x d batch")
    if v.shape[-1] != model.d:
        raise ValueError(f"parameter has dimension {v.shape[-1]}, expected {model.d}")
    return v


def support_union(v: np.ndarray) -> np.ndarray:
    """Columns where any row of a vector or B x d batch is nonzero, ascending."""
    return v.reshape(-1, v.shape[-1]).any(axis=0).nonzero()[0]


def _forward_product(model: ObjectiveModel, v: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """X theta for a checked vector or B x d batch v whose support union is cols.

    Multiplies the columns cols, or all columns when they span more than
    `GATHER_MAX_FRAC` of them.
    """
    if cols.size > GATHER_MAX_FRAC * model.d:
        cols = slice(None)
    return v[..., cols] @ model.X.T[cols]


def _loss_and_residual(model: ObjectiveModel, U: np.ndarray):
    """Average loss (squared-error form if linear) and residual psi'(U) - y at U = X theta.

    An n-vector U gives a float and an n-vector, a B x n batch B losses
    and a B x n residual.  Each loss is reduced over its own row
    (`np.vecdot`, which keeps the bits of `np.dot` on each row, where
    `np.einsum` does not), so a one-row batch has the bits of the vector
    call.  U is a product's own output: the linear residual overwrites it.
    """
    y, n = model.y, model.n
    if model.family == LINEAR:
        R = np.subtract(U, y, out=U)
        f = 0.5 * np.vecdot(R, R) / n
    else:
        f = np.mean(softplus(U) - y * U, axis=-1)
        R = sigmoid(U) - y
    return (float(f) if U.ndim == 1 else f), R


class GramRows:
    """Cached Gram rows x_j' X / n (linear) or columns x_j (logistic) of the model's X in a run's support union.

    A column that enters the support union takes the lowest slot whose
    column has left the union, or, when every used slot holds a column of
    the union, the next unused one; ``order`` keeps each slot's column, so
    one product of the parameters in slot order with the used slots gives
    X'X theta / n (linear, a cap x d block) or X theta (logistic, a cap x
    n block).  A stale slot, whose column has left the union, weighs
    exactly +0.0, as thresholding writes +0.0 off the support, and keeps
    its row until another column takes it: a column that re-enters before
    that costs nothing.  For the squared-error loss the gradient is
    X'X theta / n - X'y / n, and theta is sparse, so only the Gram rows of
    its support columns are needed (the covariance update of glmnet's
    coordinate descent, Friedman, Hastie & Tibshirani 2010); the loss
    comes from the gradient by the anchored identity of the module
    docstring (`value`).  ``anchor`` is a: a run passes its truth, and a
    logistic model ignores it.  One 2-row product, which reads X once,
    gives ``xty`` = X'y / n and ``anchor_grad`` = grad f(a) when the cache
    is made; ``anchor_value`` is f(a) as `objective_value` computes it.
    ``xty`` is None for a logistic model, whose gradient stays the full
    product R X / n.

    Gram rows pay off while the support union of a batch is narrow and
    stable: one takes the flops of one row of the full product R X / n,
    and is then reused.  Every call whose union fits uses the slots.
    There are at most `GATHER_MAX_FRAC` n slots and at most d; a union
    wider than the slots takes the other path.  A union that fits never
    needs more slots than its own columns, so ``used`` is the widest
    union seen so far, a product reads no more rows than that, and the
    slots never restart.  `computed` counts the slots filled.  A call
    given the same ``cols`` array object as the previous call (the loop
    passes an unchanged union unchanged) skips the slot lookup, and with
    it the rebuild of the columns the loss's dot reads: ``cols`` marked in
    a copy of the anchor's d-long support mask, read back ascending by
    `np.flatnonzero`, which gives `np.union1d`'s indices without its sort
    (and without the `numpy.ma` import of its first call).

    The block is valid for one model, whose X and y it reads, and is not
    freed until the object is: create one per run (`optimizer.run_batch`
    does) rather than keeping it on the model.
    """

    def __init__(self, model: ObjectiveModel, anchor):
        self.model = model
        linear = model.family == LINEAR
        self.cap = min(int(GATHER_MAX_FRAC * model.n), model.d)
        self.slot = np.full(model.d, -1, dtype=np.intp)  # column -> slot, -1 if absent
        self.used = 0
        self.computed = 0
        self.block = np.empty((self.cap, model.d if linear else model.n))
        # after the block: before it, glibc's heap layout kept ~5 MB more resident on grid_logistic
        self.order = np.empty(self.cap, dtype=np.intp)  # slot -> column
        self.xty = None
        if linear:
            a = _as_params(model, anchor)
            self.anchor = a
            anchor_cols = support_union(a)
            self._anchor_mask = np.zeros(model.d, dtype=bool)
            self._anchor_mask[anchor_cols] = True
            self.anchor_value, r = _loss_and_residual(model, _forward_product(model, a, anchor_cols))
            self.xty, self.anchor_grad = np.stack((model.y, r)) @ model.X / model.n
        self._cols = None  # the previous call's cols, whose columns all hold slots
        self._idx = None  # the previous call's cols with the anchor's support, ascending; a and grad f(a) there

    def product(self, v: np.ndarray, cols: np.ndarray) -> np.ndarray | None:
        """v in slot order @ the used slots, at a checked vector or B x d batch v with support union cols.

        X'X theta / n for a linear model, X theta for a logistic one; None
        when cols has more columns than the slots.
        """
        if cols.size > self.cap:
            return None
        if cols is not self._cols:
            self._fill(cols)
            self._cols = cols
            if self.model.family == LINEAR:
                mask = self._anchor_mask.copy()
                mask[cols] = True
                idx = np.flatnonzero(mask)
                self._idx = idx, self.anchor[idx], self.anchor_grad[idx]
        return v.take(self.order[:self.used], axis=-1) @ self.block[:self.used]

    def value(self, v: np.ndarray, G: np.ndarray):
        """Linear loss at v from its gradient G, f(a) + (1/2) (v - a) . (G + grad f(a)).

        v and G are the last `product` call's parameters and the gradient
        from its output; the dot runs over the columns where v or the
        anchor is nonzero, row by row (`np.vecdot`, as `_loss_and_residual`).
        """
        idx, a, grad_a = self._idx
        f = self.anchor_value + 0.5 * np.vecdot(v[..., idx] - a, G[..., idx] + grad_a)
        return float(f) if v.ndim == 1 else f

    def _fill(self, cols: np.ndarray) -> None:
        """Give every column of cols a slot: the lowest slots of columns not in cols, then new ones."""
        X, n = self.model.X, self.model.n
        linear = self.model.family == LINEAR
        held = self.slot[cols]
        new = cols[held < 0]
        if not new.size:
            return
        live = np.zeros(self.used, dtype=bool)
        live[held[held >= 0]] = True
        freed = np.flatnonzero(~live)[:new.size]
        self.slot[self.order[freed]] = -1
        # cols fits the cap, so the appended slots stay within it
        appended = new.size - freed.size
        dest = np.concatenate((freed, np.arange(self.used, self.used + appended)))
        self.slot[new] = dest
        self.order[dest] = new
        self.used += appended
        self.computed += new.size
        # each run of consecutive slots is one gather, and for a linear model one product, written in place
        bounds = np.flatnonzero(np.diff(dest) != 1) + 1
        for i, j in zip([0, *bounds], [*bounds, new.size]):
            rows = self.block[dest[i]:dest[i] + j - i]
            if linear:
                np.matmul(X.T[new[i:j]], X, out=rows)
                rows /= n
            else:
                np.take(X.T, new[i:j], axis=0, out=rows, mode="clip")  # no copy with "clip"


def value_and_gradient(model: ObjectiveModel, theta, gram: GramRows | None = None,
                       cols: np.ndarray | None = None):
    """Average loss and its gradient (1/n) X' (psi'(X theta) - y).

    For a B x d batch: B losses and the B x d gradient rows.  ``cols`` is
    the support union of theta's rows, ascending, when the caller keeps
    it (it is computed otherwise).  With `gram`, the `GramRows` of this
    model, when the union fits its slots: a linear model's gradient is
    the product with its Gram rows less X'y / n, written in the product's
    own output, and its loss comes from that gradient by the anchored
    identity (`GramRows.value`); a logistic model's X theta is the product
    with its columns.  Otherwise, and without `gram`, X theta is the
    forward product on the support union, and the loss is the residual
    form.  Every gradient but the linear Gram one is the full product
    X' r / n.
    """
    v = _as_params(model, theta)
    if cols is None:
        cols = support_union(v)
    Y = None if gram is None else gram.product(v, cols)
    if Y is not None and model.family == LINEAR:
        Y -= gram.xty
        return gram.value(v, Y), Y
    f, R = _loss_and_residual(model, _forward_product(model, v, cols) if Y is None else Y)
    return f, R @ model.X / model.n


def objective_value(model: ObjectiveModel, theta):
    """Average loss at theta (or at each batch row), without the gradient product."""
    v = _as_params(model, theta)
    return _loss_and_residual(model, _forward_product(model, v, support_union(v)))[0]


def target_value(model: ObjectiveModel, theta_star) -> float:
    """Loss at a reference parameter, in the same form as `objective_value`."""
    return objective_value(model, theta_star)


def bregman_batch(model: ObjectiveModel, Theta1: np.ndarray, Theta2: np.ndarray) -> np.ndarray:
    """Bregman divergences f(t1) - f(t2) - <grad f(t2), t1 - t2>, row-paired.

    The response terms are linear in theta and cancel, so this reduces to
    the cumulant's own divergence averaged over samples; it is nonnegative
    up to rounding for both (convex) families.
    """
    Theta1 = np.asarray(Theta1, dtype=float)
    Theta2 = np.asarray(Theta2, dtype=float)
    if Theta1.shape != Theta2.shape or Theta1.ndim != 2 or Theta1.shape[1] != model.d:
        raise ValueError("batches must be equal-shape B x d")
    X = model.X
    U1 = X @ Theta1.T
    U2 = X @ Theta2.T
    if model.family == LINEAR:
        U1 -= U2
        return 0.5 * np.einsum("ij,ij->j", U1, U1) / model.n
    vals = softplus(U1) - softplus(U2)
    U1 -= U2
    U1 *= sigmoid(U2)
    vals -= U1
    return np.mean(vals, axis=0)
