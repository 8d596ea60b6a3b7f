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
from typing import Optional

import numpy as np

from .core import (ConfigError, PredictorHandle, RegressionDataset, TrainerFailedError,
                   TrainerOracle, derive_rng)

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


# The last design built: (freqs, copy of xs, design).  Every candidate of a
# report is predicted on the same full-data covariates, so all but the first
# reuse it.  Keyed by values, so no caller needs to keep or freeze an array.
_design_memo = None


def _build_design(xs: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    phase = 2.0 * np.pi * (xs @ freqs.T)
    return np.hstack([np.ones((xs.shape[0], 1)), np.cos(phase), np.sin(phase)])


def _fourier_design(xs: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """The n x p feature matrix: constant, cosines, sines, read-only.

    The last design built is kept; a call with the same frequency table and
    equal covariates returns it, and any other call replaces it.
    """
    global _design_memo
    entry = _design_memo
    if entry is not None and entry[0] is freqs and np.array_equal(entry[1], xs):
        return entry[2]
    design = _build_design(xs, freqs)
    design.setflags(write=False)
    _design_memo = (freqs, xs.copy(), design)
    return design


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


def _dirichlet_kernel(psi_a: np.ndarray, psi_b: np.ndarray) -> np.ndarray:
    """The Gram matrix of the half-space features, phi(a) . phi(b) =
    (1 + prod_j D_N(a_j - b_j)) / 2, one small GEMM per coordinate."""
    gram = psi_a[0] @ psi_b[0].T
    for j in range(1, psi_a.shape[0]):
        gram *= psi_a[j] @ psi_b[j].T
    gram += 1.0
    gram *= 0.5
    return gram


_KERNEL_BLOCK_ENTRIES = 2 ** 22


def _fourier_kernel_fit(dataset: RegressionDataset, spec: FourierRidgeSpec) -> PredictorHandle:
    """The ridge fit through its kernel: alpha = (K + n lam I)^-1 y and
    predictions K(xs, X) alpha, by the representer theorem."""
    n = dataset.n
    psi = _dirichlet_features(dataset.xs, spec.N)
    system = _dirichlet_kernel(psi, psi)
    system[np.diag_indices(n)] += n * spec.lam
    try:
        alpha = np.linalg.solve(system, dataset.ys)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"ridge system singular: {exc}") from exc
    if not np.all(np.isfinite(alpha)):
        raise IllConditionedError("non-finite ridge coefficients")

    # Predict in row blocks of at most _KERNEL_BLOCK_ENTRIES kernel entries,
    # so memory stays bounded however many points are predicted.
    block_rows = max(1, _KERNEL_BLOCK_ENTRIES // n)

    def predict(xs: np.ndarray) -> np.ndarray:
        out = np.empty(xs.shape[0])
        for start in range(0, xs.shape[0], block_rows):
            block = xs[start:start + block_rows]
            out[start:start + block_rows] = (
                _dirichlet_kernel(_dirichlet_features(block, spec.N), psi) @ alpha)
        return out

    return PredictorHandle(
        predict,
        name=f"fourier_ridge(N={spec.N}, lam={spec.lam:g})",
        meta={"kind": "fourier_ridge", "dual_coefficients": alpha, "lam": spec.lam,
              "N": spec.N},
    )


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
    p = spec.feature_count(dataset.d)
    if spec.lam > 0 and p > dataset.n:
        return _fourier_kernel_fit(dataset, spec)
    if p > spec.max_features:
        raise TrainerError(f"feature count {p} exceeds cap {spec.max_features}")
    freqs = _half_space_frequencies(spec.N, dataset.d)
    phi = _fourier_design(dataset.xs, freqs)
    y = dataset.ys
    n = dataset.n

    if spec.lam > 0:
        try:
            gram = phi.T @ phi / n + spec.lam * np.eye(phi.shape[1])
            coef = np.linalg.solve(gram, phi.T @ y / n)
        except np.linalg.LinAlgError as exc:
            raise IllConditionedError(f"ridge system singular: {exc}") from exc
    else:
        coef, _, _, _ = np.linalg.lstsq(phi, y, rcond=None)
    if not np.all(np.isfinite(coef)):
        raise IllConditionedError("non-finite ridge coefficients")

    def predict(xs: np.ndarray) -> np.ndarray:
        return _fourier_design(xs, freqs) @ coef

    return PredictorHandle(
        predict,
        name=f"fourier_ridge(N={spec.N}, lam={spec.lam:g})",
        meta={"kind": "fourier_ridge", "coefficients": coef, "frequencies": freqs,
              "lam": spec.lam, "N": spec.N},
    )


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
    shapes = _mlp_shapes(dataset.d, spec.widths)
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
        if self.max_depth < 1:
            raise TrainerError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise TrainerError("min_samples_leaf must be >= 1")
        if self.n_trees < 1:
            raise TrainerError("n_trees must be >= 1")
        if not (0.0 < self.feature_fraction <= 1.0):
            raise TrainerError("feature_fraction must lie in (0, 1]")


class _TreeNode:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, value=None, feature=None, threshold=None, left=None, right=None):
        self.value = value
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right


def _best_split(xs, y, features, min_leaf):
    best = None  # (gain, feature, threshold)
    total = y.sum()
    sq_total = np.square(y).sum()
    n = y.shape[0]
    parent_sse = sq_total - total * total / n
    for j in features:
        order = np.argsort(xs[:, j], kind="stable")
        xj = xs[order, j]
        ys = y[order]
        csum = np.cumsum(ys)
        # Candidate split after position i (1-based left size), only where
        # consecutive values differ and both sides satisfy the leaf minimum.
        left_sizes = np.arange(1, n)
        valid = (xj[:-1] < xj[1:]) & (left_sizes >= min_leaf) & (n - left_sizes >= min_leaf)
        if not np.any(valid):
            continue
        left_sum = csum[:-1]
        sse_drop = (left_sum ** 2 / left_sizes
                    + (total - left_sum) ** 2 / (n - left_sizes)
                    - total * total / n)
        sse_drop = np.where(valid, sse_drop, -np.inf)
        pos = int(np.argmax(sse_drop))
        gain = float(sse_drop[pos])
        if gain <= 1e-12 * max(parent_sse, 1.0):
            continue
        threshold = 0.5 * (xj[pos] + xj[pos + 1])
        if best is None or gain > best[0]:
            best = (gain, int(j), float(threshold))
    return best


def _grow(xs, y, depth, spec: TreeSpec, rng: Optional[np.random.Generator]):
    n, d = xs.shape
    if depth >= spec.max_depth or n < 2 * spec.min_samples_leaf or np.ptp(y) == 0.0:
        return _TreeNode(value=float(y.mean()))
    if spec.feature_fraction < 1.0 and d > 1:
        k = max(1, int(round(spec.feature_fraction * d)))
        features = np.sort(rng.choice(d, size=k, replace=False))
    else:
        features = np.arange(d)
    split = _best_split(xs, y, features, spec.min_samples_leaf)
    if split is None:
        return _TreeNode(value=float(y.mean()))
    _, j, thr = split
    mask = xs[:, j] <= thr
    left = _grow(xs[mask], y[mask], depth + 1, spec, rng)
    right = _grow(xs[~mask], y[~mask], depth + 1, spec, rng)
    return _TreeNode(feature=j, threshold=thr, left=left, right=right)


def _tree_predict(node: _TreeNode, xs: np.ndarray, out: np.ndarray, rows: np.ndarray):
    if node.value is not None:
        out[rows] = node.value
        return
    mask = xs[rows, node.feature] <= node.threshold
    _tree_predict(node.left, xs, out, rows[mask])
    _tree_predict(node.right, xs, out, rows[~mask])


def _count_leaves(node: _TreeNode) -> int:
    if node.value is not None:
        return 1
    return _count_leaves(node.left) + _count_leaves(node.right)


def tree_fit(dataset: RegressionDataset, spec: TreeSpec = TreeSpec(), seed: int = 0) -> PredictorHandle:
    """CART regression fit; a forest when spec.n_trees > 1."""
    roots = []
    for t in range(spec.n_trees):
        rng = derive_rng(seed, "tree-features", t)
        roots.append(_grow(dataset.xs, dataset.ys, 0, spec, rng))

    def predict(pts: np.ndarray) -> np.ndarray:
        acc = np.zeros(pts.shape[0])
        rows = np.arange(pts.shape[0])
        for root in roots:
            out = np.empty(pts.shape[0])
            _tree_predict(root, pts, out, rows)
            acc += out
        return acc / len(roots)

    return PredictorHandle(
        predict,
        name=f"tree(depth={spec.max_depth}, trees={spec.n_trees})",
        meta={"kind": "tree", "n_leaves": sum(_count_leaves(r) for r in roots), "spec": spec},
    )


# ---------------------------------------------------------------------------
# Oracle factories and the by-name registry
# ---------------------------------------------------------------------------

def fourier_ridge_trainer(spec: FourierRidgeSpec = FourierRidgeSpec()) -> TrainerOracle:
    return TrainerOracle(
        name="fourier_ridge",
        fit_fn=lambda ds, seed: fourier_ridge_fit(ds, spec, seed),
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
