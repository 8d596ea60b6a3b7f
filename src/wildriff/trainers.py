"""Built-in black-box trainers implementing the TrainerOracle contract.

* ``fourier_ridge`` -- exact minimizer of penalized mean squared error over
  real trigonometric polynomials; the reference exact solver.
* ``mlp``           -- small fully-connected ReLU network trained full-batch
  with L-BFGS (or plain gradient descent).
* ``tree``          -- CART regression tree(s) with variance-reduction splits.

All trainers are deterministic given (dataset, seed).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

from .core import (ConfigError, InvalidDataError, PredictorHandle, RegressionDataset,
                   TrainerFailedError, TrainerOracle, check_real, derive_rng)

__all__ = [
    "TrainerError",
    "IllConditionedError",
    "DivergedError",
    "FourierRidgeSpec",
    "MlpSpec",
    "TreeSpec",
    "fourier_ridge_fit",
    "mlp_fit",
    "tree_fit",
    "fourier_ridge_trainer",
    "mlp_trainer",
    "tree_trainer",
    "make_trainer",
    "TRAINER_NAMES",
]

TRAINER_NAMES = ("fourier_ridge", "mlp", "tree")


class TrainerError(ConfigError):
    """Trainer settings that are invalid, or infeasible on the data."""


class IllConditionedError(TrainerFailedError):
    """Linear system too singular to solve reliably."""


class DivergedError(TrainerFailedError):
    """Iterative training produced a non-finite loss."""


def _check_integer(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TrainerError(f"{name} must be an integer, got {value!r}")


def _check_dimension(xs: np.ndarray, d: int) -> None:
    if xs.shape[1] != d:
        raise InvalidDataError(
            f"predictor trained on {d}-dimensional points got points of dimension {xs.shape[1]}")


# ---------------------------------------------------------------------------
# Batched prediction
# ---------------------------------------------------------------------------

# Every matrix product of a prediction is cut to at most this many
# multiply-adds.  OpenBLAS runs a product this small on one thread; a larger
# one wakes its other threads, which then spin between the many small
# products of an evaluate and cost CPU time without saving wall time.
_PRODUCT_BUDGET = 2 ** 18


class _BatchHandle(PredictorHandle):
    """A built-in handle.  Handles whose ``fill`` compare equal predict
    together: ``fill(items, xs, out)`` writes the predictions on ``xs`` of
    the handles holding ``items`` into the rows of ``out``.  `predict` is its
    one-handle case, so a handle has one prediction path, alone or batched.
    """

    def __init__(self, fill, item, name: str, meta: dict):
        super().__init__(functools.partial(_predict_alone, fill, item), name, meta)
        self.fill = fill
        self.item = item


def _predict_alone(fill, item, xs: np.ndarray) -> np.ndarray:
    out = np.empty((1, xs.shape[0]))
    fill([item], xs, out)
    return out[0]


def _predict_multi(handles, xs: np.ndarray) -> np.ndarray:
    """The built-in trainers' `TrainerOracle.predict_multi_fn`: one ``fill``
    call per group of built-in handles, in place when the group's rows are
    consecutive; any other handle through its own ``predict``."""
    out = np.empty((len(handles), xs.shape[0]))
    groups = {}
    for i, handle in enumerate(handles):
        if isinstance(handle, _BatchHandle):
            groups.setdefault(handle.fill, []).append(i)
        else:
            out[i] = handle.predict(xs)
    for fill, rows in groups.items():
        items = [handles[i].item for i in rows]
        if rows[-1] - rows[0] + 1 == len(rows):
            fill(items, xs, out[rows[0]:rows[-1] + 1])
        else:
            block = np.empty((len(rows), xs.shape[0]))
            fill(items, xs, block)
            out[rows] = block
    return out


def _tiled_product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """``out = a @ b.T``, in blocks of at most `_PRODUCT_BUDGET`
    multiply-adds (one row of ``a`` and one of ``b`` at the least)."""
    rows = max(1, _PRODUCT_BUDGET // a.shape[1])
    for r in range(0, a.shape[0], rows):
        block = a[r:r + rows]
        cols = max(1, _PRODUCT_BUDGET // block.size)
        for c in range(0, b.shape[0], cols):
            np.matmul(block, b[c:c + cols].T, out=out[r:r + rows, c:c + cols])


# ---------------------------------------------------------------------------
# Fourier ridge
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierRidgeSpec:
    """Trigonometric-polynomial ridge regression.

    ``N`` is the maximum frequency per coordinate; the model has
    p = (2N+1)^d real features (constant, cosines, sines).  ``lam`` is the
    ridge penalty on the coefficient vector; lam=0 uses the minimum-norm
    least-squares solution.  With lam > 0 and p > n the fit runs through
    the closed-form Dirichlet kernel and never builds the n x p design, so
    ``max_features`` caps p only where that design is built: lam > 0 with
    p <= n, and lam = 0.
    """

    N: int = 8
    lam: float = 1e-6
    max_features: int = 20000

    def __post_init__(self):
        _check_integer("N", self.N)
        _check_integer("max_features", self.max_features)
        check_real("lam", self.lam, TrainerError)
        if self.N < 0:
            raise TrainerError("N must be >= 0")
        if self.lam < 0:
            raise TrainerError("lambda must be >= 0")

    def feature_count(self, d: int) -> int:
        return (2 * self.N + 1) ** d


@functools.lru_cache(maxsize=16)
def _half_space_frequencies(N: int, d: int) -> np.ndarray:
    """Multi-indices with max-norm <= N, one representative per +/- pair.

    Cached per (N, d): every caller shares one read-only array.
    """
    if N == 0:
        freqs = np.zeros((0, d), dtype=int)
    else:
        out = []
        for k in itertools.product(range(-N, N + 1), repeat=d):
            arr = np.array(k, dtype=int)
            nz = np.flatnonzero(arr)
            if nz.size and arr[nz[0]] > 0:
                out.append(arr)
        freqs = np.array(out, dtype=int).reshape(len(out), d)
    freqs.setflags(write=False)
    return freqs


# The last features built: (builder, its parameter, copy of xs, features),
# the explicit design on the primal path and the per-coordinate Dirichlet
# features on the kernel path.  Every candidate block of a report is
# predicted on the same full-data covariates, so all but the first reuse
# them.  Keyed by values, so no caller needs to keep or freeze an array.
_design_memo = None


def _memoized(build, param, xs: np.ndarray) -> np.ndarray:
    """``build(xs, param)``, read-only.

    The last result is kept; a call with the same builder, the same
    parameter object and equal covariates returns it, and any other call
    replaces it.
    """
    global _design_memo
    entry = _design_memo
    if (entry is not None and entry[0] is build and entry[1] is param
            and np.array_equal(entry[2], xs)):
        return entry[3]
    features = build(xs, param)
    features.setflags(write=False)
    _design_memo = (build, param, xs.copy(), features)
    return features


def _build_design(xs: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    phase = 2.0 * np.pi * (xs @ freqs.T)
    return np.hstack([np.ones((xs.shape[0], 1)), np.cos(phase), np.sin(phase)])


def _dirichlet_features(xs: np.ndarray, N: int) -> np.ndarray:
    """Per-coordinate features, shape (d, n, 2N+1).

    Row i of slice j is [1, sqrt2 cos(2 pi k x_ij), sqrt2 sin(2 pi k x_ij)]
    for k = 1..N, so slice j of two inputs multiplies out to the Dirichlet
    kernel D_N(x_j - z_j) = 1 + 2 sum_k cos(2 pi k (x_j - z_j)).
    """
    phase = (2.0 * np.pi) * (xs.T[:, :, None] * np.arange(1, N + 1))
    root2 = np.sqrt(2.0)
    ones = np.ones(phase.shape[:2] + (1,))
    return np.concatenate([ones, root2 * np.cos(phase), root2 * np.sin(phase)], axis=2)


# Kernel rows are filled in tiles of about this many entries, small enough
# to stay in cache while every coordinate's factor multiplies in.
_KERNEL_TILE_ENTRIES = 2 ** 16


def _dirichlet_kernel(psi_a: np.ndarray, psi_b: np.ndarray,
                      coef: Optional[np.ndarray] = None) -> np.ndarray:
    """The Gram matrix of the half-space features, phi(a) . phi(b) =
    (1 + prod_j D_N(a_j - b_j)) / 2, one small GEMM per coordinate and row
    tile, so no temporary is as large as the kernel.

    Given ``coef``, it returns the kernel times ``coef`` instead, each tile
    multiplied as it is filled, so it never holds more than one tile.  That
    is a prediction, and its tiles also keep every product within
    `_PRODUCT_BUDGET`.
    """
    rows, cols = psi_a.shape[1], psi_b.shape[1]
    step = max(1, _KERNEL_TILE_ENTRIES // cols)
    if coef is None:
        out = np.empty((rows, cols))
    else:
        width = max(psi_a.shape[2], coef.size // cols)
        step = min(step, max(1, _PRODUCT_BUDGET // (cols * width)))
        out = np.empty((rows,) + coef.shape[1:])
        scratch = np.empty((min(step, rows), cols))
    for start in range(0, rows, step):
        tile_a = psi_a[:, start:start + step]
        tile = out[start:start + step] if coef is None else scratch[:tile_a.shape[1]]
        np.matmul(tile_a[0], psi_b[0].T, out=tile)
        for j in range(1, psi_a.shape[0]):
            tile *= np.matmul(tile_a[j], psi_b[j].T)
        tile += 1.0
        tile *= 0.5
        if coef is not None:
            out[start:start + step] = np.matmul(tile, coef)
    return out


def _fourier_fits(xs: np.ndarray, Y: np.ndarray,
                  spec: FourierRidgeSpec) -> List[PredictorHandle]:
    """`fourier_ridge_fit` on every column of ``Y``, all solved against one
    factorization; one handle per column.

    The kernel is built once: after the solve its diagonal is restored and
    it gives the fitted values, which a prediction on the training points
    returns.  Explicit-design handles predict together with every handle on
    the same frequency table (`_PrimalRows`); kernel-path handles with the
    others of this call (`_KernelRows`).
    """
    n, d = xs.shape
    p = spec.feature_count(d)
    dual = spec.lam > 0 and p > n
    if not dual and p > spec.max_features:
        raise TrainerError(f"feature count {p} exceeds cap {spec.max_features}")
    freqs = None if dual else _half_space_frequencies(spec.N, d)
    try:
        if dual:
            psi = _dirichlet_features(xs, spec.N)
            kernel = _dirichlet_kernel(psi, psi)
            diagonal = kernel.diagonal().copy()
            kernel[np.diag_indices(n)] += n * spec.lam
            coef = np.linalg.solve(kernel, Y)
            kernel[np.diag_indices(n)] = diagonal
        elif spec.lam > 0:
            phi = _memoized(_build_design, freqs, xs)
            gram = phi.T @ phi / n + spec.lam * np.eye(p)
            coef = np.linalg.solve(gram, phi.T @ Y / n)
        else:
            coef = np.linalg.lstsq(_memoized(_build_design, freqs, xs), Y, rcond=None)[0]
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"ridge system singular: {exc}") from exc
    if not np.all(np.isfinite(coef)):
        raise IllConditionedError("non-finite ridge coefficients")
    # One contiguous row per column, and on the kernel path its fitted values.
    coefs = np.ascontiguousarray(coef.T)
    if dual:
        fill = _KernelRows(xs.copy(), psi, coefs, np.ascontiguousarray((kernel @ coef).T),
                           spec.N)
    else:
        fill = _PrimalRows(spec.N, d)

    def meta(c: int) -> dict:
        solution = ({"dual_coefficients": coefs[c]} if dual
                    else {"coefficients": coefs[c], "frequencies": freqs})
        return {"kind": "fourier_ridge", **solution, "lam": spec.lam, "N": spec.N}

    return [_BatchHandle(fill, c if dual else coefs[c],
                         f"fourier_ridge(N={spec.N}, lam={spec.lam:g})", meta(c))
            for c in range(Y.shape[1])]


@dataclass(frozen=True)
class _PrimalRows:
    """Explicit-design handles on the (N, d) frequency table.  An item is a
    coefficient row; one tiled product against the memoized design predicts
    every handle asked for."""

    N: int
    d: int

    def __call__(self, coefs, xs: np.ndarray, out: np.ndarray) -> None:
        _check_dimension(xs, self.d)
        design = _memoized(_build_design, _half_space_frequencies(self.N, self.d), xs)
        _tiled_product(np.stack(coefs), design, out)


class _KernelRows:
    """The kernel-path handles of one fit call.  Item c predicts with
    column c's dual coefficients; one tiled K(x, X) pass predicts every
    column asked for, and covariates equal to the training points read the
    fitted values."""

    def __init__(self, xs: np.ndarray, psi: np.ndarray, coefs: np.ndarray,
                 fitted: np.ndarray, N: int):
        self.xs, self.psi, self.coefs, self.fitted, self.N = xs, psi, coefs, fitted, N

    def __call__(self, columns, pts: np.ndarray, out: np.ndarray) -> None:
        _check_dimension(pts, self.xs.shape[1])
        if np.array_equal(pts, self.xs):
            out[:] = self.fitted[columns]
        else:
            features = _memoized(_dirichlet_features, self.N, pts)
            out[:] = _dirichlet_kernel(features, self.psi, self.coefs[columns].T).T


def fourier_ridge_fit(dataset: RegressionDataset, spec: FourierRidgeSpec = FourierRidgeSpec(),
                      seed: int = 0) -> PredictorHandle:
    """Exact penalized least-squares fit over trigonometric polynomials.

    With lam > 0 it solves the p x p normal equations when the feature
    count p is at most n, and the equal n x n kernel system when p > n;
    that handle carries ``dual_coefficients`` in place of ``coefficients``
    and ``frequencies``.  With lam = 0 it takes the minimum-norm
    least-squares solution on the explicit design.  The seed is accepted
    for interface uniformity; the solution is a pure function of the
    dataset and spec.
    """
    return _fourier_fits(dataset.xs, dataset.ys[:, None], spec)[0]


# ---------------------------------------------------------------------------
# MLP
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MlpSpec:
    """Fully-connected ReLU regressor trained full-batch.

    ``optimizer`` is "lbfgs" (quasi-Newton with a fixed iteration budget)
    or "gd" (plain full-batch gradient descent at ``learning_rate``).
    """

    widths: tuple = (32, 32)
    activation: str = "relu"
    optimizer: str = "lbfgs"
    max_iter: int = 200
    learning_rate: float = 0.05

    def __post_init__(self):
        for w in self.widths:
            _check_integer("layer widths", w)
        _check_integer("max_iter", self.max_iter)
        check_real("learning_rate", self.learning_rate, TrainerError)
        if self.learning_rate <= 0:
            raise TrainerError("learning_rate must be > 0")
        if any(w < 1 for w in self.widths):
            raise TrainerError("layer widths must be >= 1")
        if self.max_iter < 1:
            raise TrainerError("max_iter must be >= 1")
        if self.activation != "relu":
            raise TrainerError(f"unsupported activation {self.activation!r}")
        if self.optimizer not in ("lbfgs", "gd"):
            raise TrainerError(f"unsupported optimizer {self.optimizer!r}")
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))


def _mlp_shapes(d: int, widths: tuple):
    dims = [d, *widths, 1]
    return [(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]


def _mlp_init(shapes, rng: np.random.Generator):
    params = []
    for fan_in, fan_out in shapes:
        scale = np.sqrt(2.0 / fan_in)
        params.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
        params.append(np.zeros(fan_out))
    return params


def _pack(params):
    return np.concatenate([p.ravel() for p in params])


def _unpack(theta, shapes):
    params, pos = [], 0
    for fan_in, fan_out in shapes:
        size = fan_in * fan_out
        params.append(theta[pos:pos + size].reshape(fan_in, fan_out))
        pos += size
        params.append(theta[pos:pos + fan_out])
        pos += fan_out
    return params


def _mlp_forward(xs, params):
    a = xs
    pre = []
    acts = [a]
    for i in range(0, len(params), 2):
        z = a @ params[i] + params[i + 1]
        pre.append(z)
        a = np.maximum(z, 0.0) if i + 2 < len(params) else z
        acts.append(a)
    return acts[-1][:, 0], pre, acts


def _mlp_loss_grad(theta, shapes, xs, y):
    params = _unpack(theta, shapes)
    out, pre, acts = _mlp_forward(xs, params)
    resid = out - y
    n = y.shape[0]
    loss = float(np.mean(resid ** 2))
    grad_list = [None] * len(params)
    delta = (2.0 / n) * resid[:, None]
    for i in range(len(params) - 2, -2, -2):
        layer = i // 2
        grad_list[i] = acts[layer].T @ delta
        grad_list[i + 1] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ params[i].T) * (pre[layer - 1] > 0.0)
    return loss, _pack(grad_list)


def mlp_fit(dataset: RegressionDataset, spec: MlpSpec = MlpSpec(), seed: int = 0) -> PredictorHandle:
    """Deterministic full-batch MLP fit; approximate empirical risk minimizer."""
    d = dataset.d
    shapes = _mlp_shapes(d, spec.widths)
    rng = derive_rng(seed, "mlp-init")
    theta0 = _pack(_mlp_init(shapes, rng))
    xs, y = dataset.xs, dataset.ys

    if spec.optimizer == "lbfgs":
        # Imported here: scipy.optimize takes most of a cold `import wildriff`,
        # and only this branch uses it.
        from scipy.optimize import minimize

        result = minimize(
            _mlp_loss_grad, theta0, args=(shapes, xs, y), jac=True, method="L-BFGS-B",
            options={"maxiter": spec.max_iter, "ftol": 1e-14, "gtol": 1e-12},
        )
        theta = result.x
        final_loss = float(result.fun)
    else:
        theta = theta0
        final_loss = np.inf
        for _ in range(spec.max_iter):
            final_loss, grad = _mlp_loss_grad(theta, shapes, xs, y)
            if not np.isfinite(final_loss):
                raise DivergedError(f"gradient descent diverged (loss={final_loss})")
            theta = theta - spec.learning_rate * grad

    if not (np.isfinite(final_loss) and np.all(np.isfinite(theta))):
        raise DivergedError("training produced non-finite parameters")

    params = _unpack(theta.copy(), shapes)
    weights = [params[i] for i in range(0, len(params), 2)]
    biases = [params[i + 1] for i in range(0, len(params), 2)]

    def predict(pts: np.ndarray) -> np.ndarray:
        _check_dimension(pts, d)
        out, _, _ = _mlp_forward(pts, params)
        return out

    return PredictorHandle(
        predict,
        name=f"mlp(widths={spec.widths}, opt={spec.optimizer})",
        meta={"kind": "mlp", "weights": weights, "biases": biases,
              "train_mse": final_loss, "spec": spec},
    )


# ---------------------------------------------------------------------------
# CART trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeSpec:
    """Regression tree / small forest with variance-reduction splits.

    A forest averages ``n_trees`` trees, each grown on the full data with
    per-split feature subsampling at ``feature_fraction``.
    """

    max_depth: int = 5
    min_samples_leaf: int = 1
    n_trees: int = 1
    feature_fraction: float = 1.0

    def __post_init__(self):
        for name in ("max_depth", "min_samples_leaf", "n_trees"):
            _check_integer(name, getattr(self, name))
        check_real("feature_fraction", self.feature_fraction, TrainerError)
        if self.max_depth < 1:
            raise TrainerError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise TrainerError("min_samples_leaf must be >= 1")
        if self.n_trees < 1:
            raise TrainerError("n_trees must be >= 1")
        if not (0.0 < self.feature_fraction <= 1.0):
            raise TrainerError("feature_fraction must lie in (0, 1]")


class _Trees(NamedTuple):
    """Every tree of one `_grow_trees` call as flat node arrays.

    Tree g's root is node g.  A leaf points to itself both ways, so routing
    a point ``levels`` times from a root always ends on its leaf.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_leaves: np.ndarray   # per tree
    levels: int


class _Padded(NamedTuple):
    """Training data plus one padding row m, which ranks last in every
    feature, sits at x = inf and has y = 0 in every column."""

    rank: np.ndarray   # rank[j, i]: place of row i in the stable order of feature j
    xs: np.ndarray
    Y: np.ndarray


# Split search pads a level's nodes, taken in size order, into blocks of at
# most this many (node x row) entries, so memory stays bounded however
# unevenly the rows spread over the nodes.  Prediction routes points in
# tiles of at most this many (tree x point) entries.
_LEVEL_BLOCK_ENTRIES = 2 ** 15


def _size_blocks(nodes: np.ndarray, sizes: np.ndarray):
    """``nodes`` in size order, cut into runs whose count times their
    largest size stays within the entry budget (one node at the least)."""
    nodes = nodes[np.argsort(sizes[nodes], kind="stable")]
    start = 0
    while start < nodes.size:
        widths = sizes[nodes[start:]]
        fits = np.arange(1, widths.size + 1) * widths <= _LEVEL_BLOCK_ENTRIES
        stop = start + max(1, int(fits.sum()))
        yield nodes[start:stop]
        start = stop


def _node_sums(y: np.ndarray, starts: np.ndarray, sizes: np.ndarray):
    """Each node's sum of y and of y^2, as ``y[node].sum()`` takes them.

    That is numpy's pairwise sum in row order, which summing equal-length
    segments as the rows of a C-ordered block reproduces; `np.take` returns
    one (fancy indexing with a leading slice need not).
    """
    y_y2 = np.stack([y, np.square(y)])
    sums = np.empty((2, sizes.size))
    by_size = np.argsort(sizes, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(sizes[by_size])) + 1), sizes.size]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        at = by_size[lo:hi]
        segments = starts[at, None] + np.arange(sizes[at[0]])
        sums[:, at] = np.take(y_y2, segments, axis=1).sum(axis=2)
    return sums


def _grow_trees(xs: np.ndarray, Y: np.ndarray, seeds, spec: TreeSpec) -> _Trees:
    """CART on every column of ``Y`` (spec.n_trees trees each), level by level.

    Tree g = c * n_trees + t fits column c and draws its feature subsets
    from (seeds[c], t), in level order.  A node with constant responses,
    fewer than 2 * min_samples_leaf rows, or at max_depth is a leaf, as is
    one with no split above the gain floor (`_block_splits`).
    """
    m, d = xs.shape
    n_trees = spec.n_trees
    n_groups = Y.shape[1] * n_trees
    subsample = spec.feature_fraction < 1.0 and d > 1
    n_feats = max(1, int(round(spec.feature_fraction * d))) if subsample else d
    rngs = [derive_rng(seed, "tree-features", t) for seed in seeds
            for t in range(n_trees)] if subsample else None

    rank = np.empty((d, m + 1), dtype=np.intp)
    rank[np.arange(d)[:, None], np.argsort(xs, axis=0, kind="stable").T] = np.arange(m)
    rank[:, m] = m
    pad = _Padded(rank, np.vstack([xs, np.full((1, d), np.inf)]),
                  np.vstack([Y, np.zeros((1, Y.shape[1]))]))

    # The current level: each node's rows in their original order, nodes
    # one after the other, and the tree of each node.
    tree = np.arange(n_groups)
    sizes = np.full(n_groups, m)
    rows = np.tile(np.arange(m), n_groups)
    levels = []   # per level: (feature, threshold, left, right, value, is_leaf, tree)
    base = 0
    while sizes.size:
        count = sizes.size
        starts = np.cumsum(sizes) - sizes
        col = tree // n_trees
        y = Y[rows, np.repeat(col, sizes)]
        total, sq_total = _node_sums(y, starts, sizes)
        grow = ((sizes >= 2 * spec.min_samples_leaf)
                & (np.maximum.reduceat(y, starts) != np.minimum.reduceat(y, starts))
                & (len(levels) < spec.max_depth))

        nodes = np.flatnonzero(grow)
        if subsample:
            feats = np.zeros((count, n_feats), dtype=np.intp)
            for a in nodes:
                feats[a] = np.sort(rngs[tree[a]].choice(d, size=n_feats, replace=False))
        else:
            feats = np.tile(np.arange(d), (count, 1))
        feature = np.zeros(count, dtype=np.intp)
        threshold = np.zeros(count)
        gain = np.full(count, -np.inf)
        for block in _size_blocks(nodes, sizes):
            feature[block], threshold[block], gain[block] = _block_splits(
                pad, spec.min_samples_leaf, rows, starts[block], sizes[block], total[block],
                sq_total[block], col[block], feats[block])

        split = gain > -np.inf
        child = np.cumsum(split) - 1
        ids = base + np.arange(count)
        first = base + count + 2 * child
        levels.append((feature, threshold, np.where(split, first, ids),
                       np.where(split, first + 1, ids), total / sizes, ~split, tree))

        # The next level: the rows of every split node, left child then
        # right child, each still in original row order.
        node = np.repeat(np.arange(count), sizes)
        keep = split[node]
        rows, node = rows[keep], node[keep]
        side = 2 * child[node] + ~(xs[rows, feature[node]] <= threshold[node])
        rows = rows[np.argsort(side, kind="stable")]
        sizes = np.bincount(side, minlength=2 * split.sum())
        tree = np.repeat(tree[split], 2)
        base += count

    feature, threshold, left, right, value, is_leaf, owner = (
        np.concatenate(parts) for parts in zip(*levels))
    return _Trees(feature, threshold, left, right, value,
                  np.bincount(owner[is_leaf], minlength=n_groups), len(levels) - 1)


def _block_splits(pad: _Padded, min_leaf: int, rows: np.ndarray, starts: np.ndarray,
                  n: np.ndarray, total: np.ndarray, sq_total: np.ndarray, col: np.ndarray,
                  feats: np.ndarray):
    """The best split of each node of a block: (feature, threshold, gain).

    Node a holds rows[starts[a]:starts[a] + n[a]] of column col[a]; its
    rows, sorted by a feature and padded to the block's width, are one row
    of a matrix, and one cumulative sum scores every split position.  The
    split maximizes the SSE drop, ties going to the first position and then
    to the first of the node's features ``feats[a]``, and counts only above
    1e-12 * max(node SSE, 1); a node without one gets gain -inf.
    """
    pos = np.arange(int(n.max()))
    size = n[:, None]
    padded = np.where(pos < size, rows[np.minimum(starts[:, None] + pos, rows.size - 1)],
                      pad.rank.shape[1] - 1)
    tot = total[:, None]
    floor = 1e-12 * np.maximum(sq_total - total * total / n, 1.0)
    left_sizes = pos[1:]
    right_sizes = size - left_sizes
    r = np.arange(n.size)
    feature = np.zeros(n.size, dtype=np.intp)
    threshold = np.zeros(n.size)
    gain = np.full(n.size, -np.inf)
    for j in feats.T:
        order = np.take_along_axis(padded, np.argsort(pad.rank[j[:, None], padded], axis=1),
                                   axis=1)
        xj = pad.xs[order, j[:, None]]
        left_sum = np.cumsum(pad.Y[order, col[:, None]], axis=1)[:, :-1]
        valid = (xj[:, :-1] < xj[:, 1:]) & (left_sizes >= min_leaf) & (right_sizes >= min_leaf)
        sse_drop = (left_sum ** 2 / left_sizes
                    + (tot - left_sum) ** 2 / np.maximum(right_sizes, 1)
                    - tot * tot / size)
        sse_drop = np.where(valid, sse_drop, -np.inf)
        at = np.argmax(sse_drop, axis=1)
        best = sse_drop[r, at]
        better = (best > floor) & (best > gain)
        lo, hi = xj[r, at], xj[r, at + 1]
        # The midpoint rounds onto hi when hi is the next float after lo and
        # lo's last bit is odd; lo then still separates the two sides.
        mid = 0.5 * (lo + hi)
        feature[better] = j[better]
        threshold[better] = np.where(mid < hi, mid, lo)[better]
        gain[better] = best[better]
    return feature, threshold, gain


def _tree_fits(xs: np.ndarray, Y: np.ndarray, seeds, spec: TreeSpec) -> List[PredictorHandle]:
    """One tree (or forest) handle per column of ``Y``, all grown together."""
    trees = _grow_trees(xs, Y, seeds, spec)
    fill = _TreeRows(trees, spec.n_trees, xs.shape[1])
    leaves = trees.n_leaves.reshape(Y.shape[1], spec.n_trees).sum(axis=1)
    return [_BatchHandle(fill, c, f"tree(depth={spec.max_depth}, trees={spec.n_trees})",
                         {"kind": "tree", "n_leaves": int(leaves[c]), "spec": spec})
            for c in range(Y.shape[1])]


class _TreeRows:
    """The handles of one `_grow_trees` call.  Item c is column c's forest,
    roots c * n_trees onward; every root asked for is routed at once, and a
    forest's trees are summed in root order, as one handle alone sums them.
    """

    def __init__(self, trees: _Trees, n_trees: int, d: int):
        self.trees, self.n_trees, self.d = trees, n_trees, d

    def __call__(self, columns, pts: np.ndarray, out: np.ndarray) -> None:
        _check_dimension(pts, self.d)
        trees = self.trees
        roots = np.add.outer(np.asarray(columns) * self.n_trees, np.arange(self.n_trees))
        step = max(1, _LEVEL_BLOCK_ENTRIES // roots.size)
        for start in range(0, pts.shape[0], step):
            tile = pts[start:start + step]
            at = np.arange(tile.shape[0])
            node = np.repeat(roots[:, :, None], tile.shape[0], axis=2)
            for _ in range(trees.levels):
                node = np.where(tile[at, trees.feature[node]] <= trees.threshold[node],
                                trees.left[node], trees.right[node])
            acc = np.zeros((roots.shape[0], tile.shape[0]))
            for t in range(self.n_trees):
                acc += trees.value[node[:, t]]
            out[:, start:start + step] = acc / self.n_trees


def tree_fit(dataset: RegressionDataset, spec: TreeSpec = TreeSpec(), seed: int = 0) -> PredictorHandle:
    """CART regression fit; a forest when spec.n_trees > 1."""
    return _tree_fits(dataset.xs, dataset.ys[:, None], [seed], spec)[0]


# ---------------------------------------------------------------------------
# Oracle factories and the by-name registry
# ---------------------------------------------------------------------------

def fourier_ridge_trainer(spec: FourierRidgeSpec = FourierRidgeSpec()) -> TrainerOracle:
    return TrainerOracle(
        name="fourier_ridge",
        fit_fn=lambda ds, seed: fourier_ridge_fit(ds, spec, seed),
        fit_multi_fn=lambda xs, Y, seeds: _fourier_fits(xs, Y, spec),
        predict_multi_fn=_predict_multi,
        optimization_tol=1e-10,
    )


def mlp_trainer(spec: MlpSpec = MlpSpec()) -> TrainerOracle:
    return TrainerOracle(
        name="mlp",
        fit_fn=lambda ds, seed: mlp_fit(ds, spec, seed),
        optimization_tol=1e-2,
    )


def tree_trainer(spec: TreeSpec = TreeSpec()) -> TrainerOracle:
    return TrainerOracle(
        name="tree",
        fit_fn=lambda ds, seed: tree_fit(ds, spec, seed),
        fit_multi_fn=lambda xs, Y, seeds: _tree_fits(xs, Y, seeds, spec),
        predict_multi_fn=_predict_multi,
        optimization_tol=float("inf"),
    )


def make_trainer(name: str, params: Optional[dict] = None) -> TrainerOracle:
    """Build a trainer oracle from its registry name and spec parameters."""
    params = dict(params or {})
    if name == "fourier_ridge":
        return fourier_ridge_trainer(FourierRidgeSpec(**params))
    if name == "mlp":
        if "widths" in params:
            params["widths"] = tuple(params["widths"])
        return mlp_trainer(MlpSpec(**params))
    if name == "tree":
        return tree_trainer(TreeSpec(**params))
    raise TrainerError(f"unknown trainer {name!r}; pick one of {TRAINER_NAMES}")
