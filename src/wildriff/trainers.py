"""Built-in black-box trainers implementing the TrainerOracle contract.

* ``fourier_ridge`` -- exact minimizer of penalized mean squared error over
  real trigonometric polynomials; the reference exact solver.
* ``mlp``           -- small fully-connected ReLU network trained full-batch
  with L-BFGS.
* ``tree``          -- CART regression tree with variance-reduction splits.

All trainers are deterministic given (dataset, seed).
"""

from __future__ import annotations

import functools
import itertools
import warnings
import weakref
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

import numpy as np

from .core import (ConfigError, ConvergenceWarning, InvalidDataError, PredictorHandle,
                   RegressionDataset, TrainerFailedError, TrainerOracle, check_integer,
                   check_real, derive_rng)

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


def _check_dimension(xs: np.ndarray, d: int) -> None:
    if xs.shape[1] != d:
        raise InvalidDataError(
            f"predictor trained on {d}-dimensional points got points of dimension {xs.shape[1]}")


# ---------------------------------------------------------------------------
# Batched prediction
# ---------------------------------------------------------------------------

# Every product that forms prediction values (`_PrimalRows`, the fitted
# values that stand in for predictions, `_dirichlet_kernel`'s coefficient
# tiles) is cut to at most this many multiply-adds.  OpenBLAS runs a product
# this small on one thread; a larger one wakes its other threads, which then
# spin between the many small predictions of an evaluate and cost CPU time
# without saving wall time.  A sum over the data's points is one product.
_PRODUCT_BUDGET = 2 ** 18


class _BatchHandle(PredictorHandle):
    """A built-in handle.  Handles whose ``fill`` compare equal predict
    together: ``fill(items, xs, out)`` writes the predictions on ``xs`` of
    the handles holding ``items`` into the rows of ``out``.  `predict` is its
    one-handle case, so a handle has one prediction path, alone or batched."""

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
    """``out = a @ b.T`` over the last two axes, in blocks of at most
    `_PRODUCT_BUDGET` multiply-adds (one row of ``a`` and one of ``b`` at
    the least).  Leading axes are a stack, each item multiplied as alone."""
    rows = max(1, _PRODUCT_BUDGET // a.shape[-1])
    for r in range(0, a.shape[-2], rows):
        block = a[..., r:r + rows, :]
        cols = max(1, _PRODUCT_BUDGET // (block.shape[-2] * block.shape[-1]))
        for c in range(0, b.shape[-2], cols):
            np.matmul(block, b[..., c:c + cols, :].swapaxes(-1, -2),
                      out=out[..., r:r + rows, c:c + cols])


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
        check_integer("N", self.N, TrainerError)
        check_integer("max_features", self.max_features, TrainerError)
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


def _build_design(xs: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """The (n, p) design: a constant column, then cos and then sin of the
    phases 2 pi xs freqs^T, written in place; the (n, len(freqs)) phase
    block is its one temporary."""
    k = len(freqs)
    design = np.empty((xs.shape[0], 1 + 2 * k))
    design[:, 0] = 1.0
    phase = xs @ freqs.T
    phase *= 2.0 * np.pi
    np.cos(phase, out=design[:, 1:k + 1])
    np.sin(phase, out=design[:, k + 1:])
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


@dataclass(frozen=True, eq=False)
class _Run:
    """One run of a `_fourier_fits` call: its fill, its training points
    (m x d), its coefficient rows (c x p, or on the kernel path c x m dual
    coefficients) and its fitted values (c x m), those rows times the
    features the run solved on.  A kernel run keeps those features, its
    (d, m, 2N+1) Dirichlet features; a primal run only as the whole run of
    its call (on all of the call's points, in order), read-only, with its
    design^T design / m if lam > 0.  A whole run also keeps the other
    fill's features of its points once a prediction built them (`_features`)."""

    fill: object
    xs: np.ndarray
    features: Optional[np.ndarray]
    coefs: np.ndarray
    fitted: np.ndarray
    gram: Optional[np.ndarray]
    other_features: list = field(default_factory=list)


# The last whole run that built its features, referred to weakly: its
# handles keep it alive.  Fits on rows of its points gather their features
# from it (`_held`), and predictions on its points read them (`_features`).
_whole = None


def _whole_on(fill, xs: np.ndarray):
    """The last whole run if it has ``fill``'s N and the points ``xs``, by
    value; else None.  The run is taken into a strong reference first, so
    a collection during the check cannot free it."""
    run = _whole and _whole()
    return run if run and run.fill.N == fill.N and np.array_equal(run.xs, xs) else None


def _held(fill, xs: np.ndarray) -> Optional[np.ndarray]:
    """The last whole run's features if it has ``fill`` and the points ``xs``."""
    run = _whole_on(fill, xs)
    return run.features if run is not None and run.fill == fill else None


def _features(fill, xs: np.ndarray) -> np.ndarray:
    """The features of ``xs`` for a prediction: the last whole run's when
    it is on the points ``xs``, else built.  A fill other than the whole
    run's builds them once, and the run keeps them: with a design warm-up
    and kernel refits, every prediction of the refits on the full data
    reads the Dirichlet features the first one built."""
    run = _whole_on(fill, xs)
    if run is None or run.fill == fill:
        return fill.build(xs) if run is None else run.features
    if not run.other_features:
        run.other_features.append(fill.build(xs))
    return run.other_features[0]


@dataclass(frozen=True)
class _PrimalRows:
    """The explicit-design handles on the (N, d) frequency table, from any
    number of runs and fit calls.  An item is (`_Run`, column).  Handles
    predicted on exactly their training points read their fitted values;
    one tiled product against the design of the points predicts all others."""

    N: int
    d: int

    def build(self, xs: np.ndarray) -> np.ndarray:
        return _build_design(xs, _half_space_frequencies(self.N, self.d))

    def __call__(self, items, xs: np.ndarray, out: np.ndarray) -> None:
        _check_dimension(xs, self.d)
        rest = []
        for i, (run, c) in enumerate(items):
            if np.array_equal(run.xs, xs):
                out[i] = run.fitted[c]
            else:
                rest.append(i)
        if not rest:
            return
        design = _features(self, xs)
        coefs = np.stack([run.coefs[c] for run, c in (items[i] for i in rest)])
        if len(rest) == len(items):
            _tiled_product(coefs, design, out)
        else:
            block = np.empty((len(rest), xs.shape[0]))
            _tiled_product(coefs, design, block)
            out[rest] = block


@dataclass(frozen=True)
class _KernelRows:
    """The kernel-path handles of N and d, from any number of runs and fit
    calls.  An item is (`_Run`, column of dual coefficients).  A run's
    columns asked for are predicted together: on its training points from
    its fitted values, elsewhere in one tiled K(x, X) pass, on features of
    the covariates got at most once per call."""

    N: int
    d: int

    def build(self, xs: np.ndarray) -> np.ndarray:
        return _dirichlet_features(xs, self.N)

    def __call__(self, items, pts: np.ndarray, out: np.ndarray) -> None:
        _check_dimension(pts, self.d)
        runs = {}
        for i, (run, _) in enumerate(items):
            runs.setdefault(run, []).append(i)
        features = None
        for run, rows in runs.items():
            columns = [items[i][1] for i in rows]
            if np.array_equal(pts, run.xs):
                out[rows] = run.fitted[columns]
            else:
                features = _features(self, pts) if features is None else features
                out[rows] = _dirichlet_kernel(features, run.features, run.coefs[columns].T).T


def _fourier_fits(xs: np.ndarray, features: np.ndarray, Y: np.ndarray, spec: FourierRidgeSpec,
                  fill, whole: bool) -> List[PredictorHandle]:
    """`fourier_ridge_fit` on every column of the runs ``Y`` (R x m x c):
    run r's columns on the points ``xs[r]``, from their ``features[r]``:
    their design, or for a `_KernelRows` fill their (d, m, 2N+1) Dirichlet
    features, whose kernel is built once per run and gives the fitted
    values kept for predictions on ``xs[r]``.  Primal ridge runs are solved
    as one stack: one normal-equation product, one `np.linalg.solve` and
    one fitted-value product, each computing every run as it would alone.
    Kernel and least-squares runs are solved one at a time.  One handle per
    column, run by run.  A ``whole`` call's one run is on all of its call's
    points; it keeps its features, and its gram if primal."""
    R, m, d = xs.shape
    dual = isinstance(fill, _KernelRows)
    gram = None
    try:
        if dual:
            coef, fitted = np.empty((R, m, Y.shape[2])), np.empty((R, Y.shape[2], m))
            for psi, y, run_coef, run_fitted in zip(features, Y, coef, fitted):
                kernel = _dirichlet_kernel(psi, psi)
                diagonal = kernel.diagonal().copy()
                kernel[np.diag_indices(m)] += m * spec.lam
                run_coef[:] = np.linalg.solve(kernel, y)
                kernel[np.diag_indices(m)] = diagonal
                run_fitted[:] = (kernel @ run_coef).T
        elif spec.lam > 0:
            design_t = features.swapaxes(1, 2)
            gram = design_t @ features / m
            coef = np.linalg.solve(gram + spec.lam * np.eye(features.shape[2]),
                                   design_t @ Y / m)
        else:
            coef = np.stack([np.linalg.lstsq(f, y, rcond=None)[0] for f, y in zip(features, Y)])
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"ridge system singular: {exc}") from exc
    if not np.all(np.isfinite(coef)):
        raise IllConditionedError("non-finite ridge coefficients")
    # One contiguous row per column, and its fitted values.
    coefs = np.ascontiguousarray(coef.swapaxes(1, 2))
    if dual:
        solutions = [{"dual_coefficients": row} for run in coefs for row in run]
    else:
        fitted = np.empty(coefs.shape[:2] + (m,))
        _tiled_product(coefs, features, fitted)
        freqs = _half_space_frequencies(spec.N, d)
        solutions = [{"coefficients": row, "frequencies": freqs} for run in coefs for row in run]
    kept = features if dual or whole else [None] * R
    grams = gram if whole and gram is not None else [None] * R
    runs = [_Run(fill, *run) for run in zip(xs, kept, coefs, fitted, grams)]
    items = [(run, c) for run in runs for c in range(len(run.coefs))]
    name = f"fourier_ridge(N={spec.N}, lam={spec.lam:g})"
    return [_BatchHandle(fill, item, name,
                         {"kind": "fourier_ridge", **solution, "lam": spec.lam, "N": spec.N})
            for item, solution in zip(items, solutions)]


# Most feature entries `_fourier_multi` gathers into one stack of runs.
_STACK_ENTRIES = 2 ** 14


def _fourier_multi(xs: np.ndarray, Y: np.ndarray, rows: np.ndarray,
                   spec: FourierRidgeSpec) -> List[PredictorHandle]:
    """`_fourier_fits` on the runs of consecutive columns of ``Y`` that
    share their rows of ``xs``, stacked: consecutive runs of one width, up
    to `_STACK_ENTRIES` feature entries (one run at the least), and a whole
    run (on all of ``xs``, in order) alone.  A stack's features are its
    runs' rows of the last whole run's (`_held`), or else, if the call has
    a whole run, of the features built for it, which becomes `_whole`;
    else each run builds its own.  The kernel path is taken when lam > 0
    and p > m."""
    global _whole
    n, d = xs.shape
    m = rows.shape[1]
    p = spec.feature_count(d)
    if spec.lam > 0 and p > m:
        fill, axis = _KernelRows(spec.N, d), 1
        per_run = d * m * (2 * spec.N + 1)
    elif p > spec.max_features:
        raise TrainerError(f"feature count {p} exceeds cap {spec.max_features}")
    else:
        fill, axis = _PrimalRows(spec.N, d), 0
        per_run = m * p
    cuts = [0, *(np.flatnonzero((rows[1:] != rows[:-1]).any(axis=1)) + 1), len(rows)]
    at, widths = rows[cuts[:-1]], np.diff(cuts)   # each run's rows and column count
    wholes = [m == n and np.array_equal(r, np.arange(n)) for r in at]
    full = _held(fill, xs)
    built = full is None and any(wholes)
    if built:
        full = fill.build(xs)
    stacks, lo = [], 0
    for hi in range(1, len(at) + 1):
        if (hi == len(at) or wholes[lo] or wholes[hi] or widths[hi] != widths[lo]
                or (hi - lo + 1) * per_run > _STACK_ENTRIES):
            stacks.append((lo, hi))
            lo = hi
    fits = []
    for lo, hi in stacks:
        runs = at[lo:hi]
        if wholes[lo]:
            features = full[None]
            features.setflags(write=False)
        elif full is None:
            features = np.stack([fill.build(xs[r]) for r in runs])
        else:
            features = np.take(full, runs, axis=axis)
            if axis:
                features = np.ascontiguousarray(np.moveaxis(features, axis, 0))
        Y_runs = Y[:, cuts[lo]:cuts[hi]].reshape(m, hi - lo, widths[lo]).transpose(1, 0, 2)
        fits += _fourier_fits(xs[runs], features, np.ascontiguousarray(Y_runs), spec, fill,
                              wholes[lo])
        if wholes[lo] and built:
            _whole = weakref.ref(fits[-1].item[0])
    return fits


def _fourier_pair_moments(base: PredictorHandle, handles, xs: np.ndarray,
                          weights: np.ndarray):
    """`TrainerOracle.pair_moments_fn` of ``fourier_ridge``: the moments of
    the pairs (a_k - base, b_k) on ``xs`` from their coefficients, when
    ``base`` and every handle are primal handles on one frequency table;
    None otherwise.

    With A the rows theta_a - theta_base (differences taken before any
    quadratic form), B the rows theta_b, G = Phi^T Phi / n and W = weights
    Phi / n: wd = W A^T, wb = W B^T, and dd, db, bb are the diagonals of
    A G A^T, A G B^T and B G B^T.  G is the base run's own when it was fit
    with lam > 0 on exactly ``xs``; the design of ``xs`` is the last whole
    run's when it holds it (`_held`).  Each of G, W, A G and B G is one
    product: none forms a prediction, so none is cut to `_PRODUCT_BUDGET`.
    """
    fill = base.fill if isinstance(base, _BatchHandle) else None
    if not isinstance(fill, _PrimalRows) or not all(
            isinstance(h, _BatchHandle) and h.fill == fill for h in handles):
        return None
    _check_dimension(xs, fill.d)
    n = xs.shape[0]
    base_run, base_c = base.item
    theta = np.stack([run.coefs[c] for run, c in (h.item for h in handles)])
    diff, slope = theta[0::2] - base_run.coefs[base_c], theta[1::2]
    design = _features(fill, xs)
    gram = (base_run.gram if base_run.gram is not None and np.array_equal(base_run.xs, xs)
            else design.T @ design / n)
    w = weights @ design / n
    diff_g, slope_g = diff @ gram, slope @ gram
    return (w @ diff.T, w @ slope.T, np.einsum("ij,ij->i", diff_g, diff),
            np.einsum("ij,ij->i", diff_g, slope), np.einsum("ij,ij->i", slope_g, slope))


def fourier_ridge_fit(dataset: RegressionDataset, spec: FourierRidgeSpec = FourierRidgeSpec(),
                      seed: int = 0) -> PredictorHandle:
    """Exact penalized least-squares fit over trigonometric polynomials.

    With lam > 0 it solves the p x p normal equations when p <= n, and the
    equal n x n kernel system when p > n, whose handle carries
    ``dual_coefficients`` in place of ``coefficients`` and ``frequencies``.
    With lam = 0 it takes the minimum-norm least-squares solution on the
    explicit design.  The seed is ignored: the solution is a pure function
    of the dataset and spec.
    """
    return _fourier_multi(dataset.xs, dataset.ys[:, None], np.arange(dataset.n)[None], spec)[0]


# ---------------------------------------------------------------------------
# MLP
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MlpSpec:
    """Fully-connected ReLU regressor with hidden layers of ``widths``,
    trained full-batch with L-BFGS for at most ``max_iter`` iterations."""

    widths: tuple = (32, 32)
    max_iter: int = 200

    def __post_init__(self):
        for w in self.widths:
            check_integer("widths entries", w, TrainerError)
        check_integer("max_iter", self.max_iter, TrainerError)
        if any(w < 1 for w in self.widths):
            raise TrainerError("layer widths must be >= 1")
        if self.max_iter < 1:
            raise TrainerError("max_iter must be >= 1")
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
    """Deterministic full-batch MLP fit; approximate empirical risk minimizer.

    A fit that stops before scipy's convergence test holds, such as one
    that spends ``max_iter`` iterations, warns with `ConvergenceWarning` and
    returns its last iterate; a non-finite result raises `DivergedError`.
    """
    # Imported here: scipy.optimize takes most of a cold `import wildriff`,
    # and only this fit uses it.
    from scipy.optimize import minimize

    d = dataset.d
    shapes = _mlp_shapes(d, spec.widths)
    theta0 = _pack(_mlp_init(shapes, derive_rng(seed, "mlp-init")))
    result = minimize(
        _mlp_loss_grad, theta0, args=(shapes, dataset.xs, dataset.ys), jac=True,
        method="L-BFGS-B", options={"maxiter": spec.max_iter, "ftol": 1e-14, "gtol": 1e-12},
    )
    if not result.success:
        warnings.warn(f"mlp L-BFGS stopped after {result.nit} iterations: {result.message}",
                      ConvergenceWarning, stacklevel=2)
    theta = result.x
    final_loss = float(result.fun)
    if not (np.isfinite(final_loss) and np.all(np.isfinite(theta))):
        raise DivergedError("training produced non-finite parameters")

    params = _unpack(theta, shapes)
    weights = [params[i] for i in range(0, len(params), 2)]
    biases = [params[i + 1] for i in range(0, len(params), 2)]

    def predict(pts: np.ndarray) -> np.ndarray:
        _check_dimension(pts, d)
        out, _, _ = _mlp_forward(pts, params)
        return out

    return PredictorHandle(
        predict,
        name=f"mlp(widths={spec.widths})",
        meta={"kind": "mlp", "weights": weights, "biases": biases,
              "train_mse": final_loss, "spec": spec},
    )


# ---------------------------------------------------------------------------
# CART trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeSpec:
    """Regression tree with variance-reduction splits."""

    max_depth: int = 5
    min_samples_leaf: int = 1

    def __post_init__(self):
        for name in ("max_depth", "min_samples_leaf"):
            check_integer(name, getattr(self, name), TrainerError)
        if self.max_depth < 1:
            raise TrainerError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise TrainerError("min_samples_leaf must be >= 1")


class _Trees(NamedTuple):
    """Every tree of one `_grow_trees` call as flat node arrays.

    Column c's tree has its root at node c.  A leaf points to itself both
    ways, so routing a point ``levels`` times from a root always ends on its
    leaf.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    tree: np.ndarray       # per node, the column whose tree it belongs to
    n_leaves: np.ndarray   # per tree
    levels: int


class _Padded(NamedTuple):
    """Training data in stacked row space (`_grow_trees`) plus one padding
    row after the last, which ranks last in every feature, sits at x = inf
    and has y = 0."""

    rank: np.ndarray   # rank[j, s]: place of stacked row s in the stable order of feature j
    xs: np.ndarray
    y: np.ndarray


# Split search pads a level's nodes, taken in size order, into blocks of at
# most this many (node x row) entries, so memory stays bounded however
# unevenly the rows spread over the nodes.  Prediction keeps its (tree x
# point) temporaries within it too: d > 1 routes points in tiles of at most
# this many entries, and d = 1 cuts sorted points for as many trees at a
# time as fit (one at the least).
_LEVEL_BLOCK_ENTRIES = 2 ** 12


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


def _grow_trees(xs: np.ndarray, Y: np.ndarray, spec: TreeSpec, rows: np.ndarray) -> _Trees:
    """CART on every column of ``Y``, one tree each, level by level.

    Column c fits the points ``xs[rows[c]]``.  The columns' rows are stacked:
    column c's i-th row is stacked row c * m + i, and one stable rank per
    feature over the stacked rows orders every column's rows as a rank over
    that column alone would.  A node with constant responses, fewer than
    2 * min_samples_leaf rows, or at max_depth is a leaf, as is one with no
    split above the gain floor (`_block_splits`).
    """
    m, n_cols = Y.shape
    d = xs.shape[1]

    stacked = xs[rows.ravel()]
    size = stacked.shape[0]
    rank = np.empty((d, size + 1), dtype=np.intp)
    rank[np.arange(d)[:, None], np.argsort(stacked, axis=0, kind="stable").T] = np.arange(size)
    rank[:, size] = size
    pad = _Padded(rank, np.vstack([stacked, np.full((1, d), np.inf)]),
                  np.append(Y.T.ravel(), 0.0))

    # The current level: each node's stacked rows in their original order,
    # nodes one after the other, and the tree of each node.
    tree = np.arange(n_cols)
    sizes = np.full(n_cols, m)
    rows = np.arange(n_cols * m)
    levels = []   # per level: (feature, threshold, left, right, value, is_leaf, tree)
    base = 0
    while sizes.size:
        count = sizes.size
        starts = np.cumsum(sizes) - sizes
        y = pad.y[rows]
        total, sq_total = _node_sums(y, starts, sizes)
        grow = ((sizes >= 2 * spec.min_samples_leaf)
                & (np.maximum.reduceat(y, starts) != np.minimum.reduceat(y, starts))
                & (len(levels) < spec.max_depth))

        feature = np.zeros(count, dtype=np.intp)
        threshold = np.zeros(count)
        gain = np.full(count, -np.inf)
        for block in _size_blocks(np.flatnonzero(grow), sizes):
            feature[block], threshold[block], gain[block] = _block_splits(
                pad, spec.min_samples_leaf, rows, starts[block], sizes[block], total[block],
                sq_total[block])

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
        side = 2 * child[node] + ~(stacked[rows, feature[node]] <= threshold[node])
        rows = rows[np.argsort(side, kind="stable")]
        sizes = np.bincount(side, minlength=2 * split.sum())
        tree = np.repeat(tree[split], 2)
        base += count

    feature, threshold, left, right, value, is_leaf, owner = (
        np.concatenate(parts) for parts in zip(*levels))
    return _Trees(feature, threshold, left, right, value, owner,
                  np.bincount(owner[is_leaf], minlength=n_cols), len(levels) - 1)


def _block_splits(pad: _Padded, min_leaf: int, rows: np.ndarray, starts: np.ndarray,
                  n: np.ndarray, total: np.ndarray, sq_total: np.ndarray):
    """The best split of each node of a block: (feature, threshold, gain).

    Node a holds the stacked rows rows[starts[a]:starts[a] + n[a]]; its
    rows, sorted by a feature and padded to the block's width, are one row
    of a matrix, and one cumulative sum scores every split position.  The
    split maximizes the SSE drop, ties going to the first position and then
    to the first feature, and counts only above 1e-12 * max(node SSE, 1); a
    node without one gets gain -inf.
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
    for j in range(pad.rank.shape[0]):
        order = np.take_along_axis(padded, np.argsort(pad.rank[j, padded], axis=1), axis=1)
        xj = pad.xs[order, j]
        left_sum = np.cumsum(pad.y[order], axis=1)[:, :-1]
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
        feature[better] = j
        threshold[better] = np.where(mid < hi, mid, lo)[better]
        gain[better] = best[better]
    return feature, threshold, gain


def _tree_fits(xs: np.ndarray, Y: np.ndarray, spec: TreeSpec,
               rows: np.ndarray) -> List[PredictorHandle]:
    """One tree handle per column of ``Y``, column c fit on ``xs[rows[c]]``,
    all grown together."""
    trees = _grow_trees(xs, Y, spec, rows)
    steps = _leaf_steps(trees) if xs.shape[1] == 1 else None
    fill = _TreeRows(trees, steps, xs.shape[1])
    return [_BatchHandle(fill, c, f"tree(depth={spec.max_depth})",
                         {"kind": "tree", "n_leaves": int(trees.n_leaves[c]), "spec": spec})
            for c in range(Y.shape[1])]


class _Steps(NamedTuple):
    """The 1-d trees of one `_grow_trees` call as step functions.

    Tree g's leaves, left to right, are entries start[g]:start[g + 1].  A
    leaf holds the points above its left neighbour's edge and up to its
    own, the first leaf every point up to its edge.  The last leaf's edge is
    NaN, which sorts after every point, NaN included, so the last leaf takes
    NaN, as routing sends NaN right at every node.
    """

    edge: np.ndarray
    value: np.ndarray
    start: np.ndarray   # per tree, and one past the last


def _leaf_steps(trees: _Trees) -> _Steps:
    """Each 1-d tree's leaves in left-to-right order, with their upper edges.

    A left child's upper edge is its parent's threshold, and a right child's
    is its parent's upper edge (NaN at a root); ``levels`` passes carry the
    edges down the right children.  A threshold lies strictly inside its
    node's interval (it falls between two of the node's training points), so
    a tree's leaves have distinct edges, in the order of the leaves.
    """
    ids = np.arange(trees.left.size)
    inner = np.flatnonzero(trees.left != ids)
    edge = np.full(ids.size, np.nan)
    edge[trees.left[inner]] = trees.threshold[inner]
    for _ in range(trees.levels):
        edge[trees.right[inner]] = edge[inner]
    leaf = np.flatnonzero(trees.left == ids)
    leaf = leaf[np.lexsort((edge[leaf], trees.tree[leaf]))]
    return _Steps(edge[leaf], trees.value[leaf], np.append(0, np.cumsum(trees.n_leaves)))


class _TreeRows:
    """The handles of one `_grow_trees` call.  Item c is column c's tree,
    root c.  Every root asked for is predicted in one pass, 1-d trees from
    their `_Steps` and others by routing.
    """

    def __init__(self, trees: _Trees, steps: Optional[_Steps], d: int):
        self.trees, self.steps, self.d = trees, steps, d

    def __call__(self, columns, pts: np.ndarray, out: np.ndarray) -> None:
        _check_dimension(pts, self.d)
        roots = np.asarray(columns)
        if self.steps is None:
            self._route(roots, pts, out)
        else:
            self._cut(roots, pts[:, 0], out)

    def _route(self, roots: np.ndarray, pts: np.ndarray, out: np.ndarray) -> None:
        """Every point down every root, ``levels`` times, in point tiles."""
        trees = self.trees
        step = max(1, _LEVEL_BLOCK_ENTRIES // roots.size)
        for start in range(0, pts.shape[0], step):
            tile = pts[start:start + step]
            at = np.arange(tile.shape[0])
            node = np.repeat(roots[:, None], tile.shape[0], axis=1)
            for _ in range(trees.levels):
                node = np.where(tile[at, trees.feature[node]] <= trees.threshold[node],
                                trees.left[node], trees.right[node])
            out[:, start:start + step] = trees.value[node]

    def _cut(self, roots: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
        """The points sorted once and cut at every selected tree's leaf
        edges; each leaf's value repeated over its run of sorted points,
        for as many trees at a time as the entry budget allows, then put
        back in point order."""
        steps, n = self.steps, x.size
        order = np.argsort(x, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(n)
        sizes = steps.start[roots + 1] - steps.start[roots]
        ends = np.cumsum(sizes)
        begins = ends - sizes   # where each tree's leaves start in `leaf`
        leaf = np.repeat(steps.start[roots] - begins, sizes) + np.arange(ends[-1])
        cuts = np.searchsorted(x[order], steps.edge[leaf], side="right")
        counts = np.diff(cuts, prepend=0)
        counts[begins] = cuts[begins]   # each tree's first run starts at point 0
        values = steps.value[leaf]
        bounds = np.append(0, ends)
        per = max(1, _LEVEL_BLOCK_ENTRIES // max(1, n))
        for a in range(0, roots.size, per):
            b = min(a + per, roots.size)
            runs = np.repeat(values[bounds[a]:bounds[b]], counts[bounds[a]:bounds[b]])
            # Every rank is in range; "clip" writes straight into ``out``,
            # where the default mode would gather into a buffer first.
            np.take(runs.reshape(b - a, n), rank, axis=1, out=out[a:b], mode="clip")


def tree_fit(dataset: RegressionDataset, spec: TreeSpec = TreeSpec(), seed: int = 0) -> PredictorHandle:
    """CART regression fit.  The seed is ignored: the tree is a pure
    function of the data and ``spec``."""
    return _tree_fits(dataset.xs, dataset.ys[:, None], spec, np.arange(dataset.n)[None])[0]


# ---------------------------------------------------------------------------
# Oracle factories and the by-name registry
# ---------------------------------------------------------------------------

def fourier_ridge_trainer(spec: FourierRidgeSpec = FourierRidgeSpec()) -> TrainerOracle:
    return TrainerOracle(
        name="fourier_ridge",
        fit_fn=lambda ds, seed: fourier_ridge_fit(ds, spec, seed),
        fit_multi_fn=lambda xs, Y, seeds, rows: _fourier_multi(xs, Y, rows, spec),
        predict_multi_fn=_predict_multi,
        pair_moments_fn=_fourier_pair_moments,
        optimization_tol=1e-10,
        linear_smoother=True,
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
        fit_multi_fn=lambda xs, Y, seeds, rows: _tree_fits(xs, Y, spec, rows),
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
