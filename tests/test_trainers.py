import dataclasses
import gc
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import wildriff.refit as refit
import wildriff.trainers as trainers
from wildriff import ConvergenceWarning
from wildriff.core import EvaluationConfig, InvalidDataError, PredictorHandle, RegressionDataset
from wildriff.refit import evaluate
from wildriff.synth import ExperimentSpec, generate
from wildriff.trainers import (
    FourierRidgeSpec,
    MlpSpec,
    TrainerError,
    TreeSpec,
    _build_design,
    _dirichlet_features,
    _dirichlet_kernel,
    _half_space_frequencies,
    _predict_features,
    fourier_ridge_fit,
    fourier_ridge_trainer,
    make_trainer,
    mlp_fit,
    tree_fit,
    tree_trainer,
)


def traced_peak(fn, *args):
    """(fn(*args), peak bytes that tracemalloc saw while it ran)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# An absolute floor for comparing results that may be subnormal.  Below
# np.finfo(float).tiny every float is a multiple of the smallest subnormal,
# so each rounding there errs by up to half of one whatever the value's
# relative size, and a ridge solve and prediction amplify those errors: a
# relative bound alone fails when alpha or beta is subnormal.  Over 15,000
# draws of alpha and beta spread log-uniformly across the subnormal range,
# the largest error above 1e-10 of the terms was 843 of these units (lam =
# 0); 4096 leaves a margin of almost 5x and is still below 2.1e-320.
SUBNORMAL_FLOOR = 4096 * np.finfo(float).smallest_subnormal


def clear_memo(monkeypatch):
    """Empty both entries of the fourier_ridge feature memo."""
    monkeypatch.setattr(trainers, "_fit_entry", None)
    monkeypatch.setattr(trainers, "_predict_entry", None)


def untiled_kernel(psi_a, psi_b):
    """The Dirichlet kernel as one full-size product per coordinate: the
    reference for the tiled build."""
    gram = psi_a[0] @ psi_b[0].T
    for j in range(1, psi_a.shape[0]):
        gram *= psi_a[j] @ psi_b[j].T
    gram += 1.0
    gram *= 0.5
    return gram


def stacked_design(xs, freqs):
    """The design as its three column blocks stacked: the reference for the
    in-place build."""
    phase = 2.0 * np.pi * (xs @ freqs.T)
    return np.hstack([np.ones((xs.shape[0], 1)), np.cos(phase), np.sin(phase)])


def linear_pairs(d, N, lam, near, w, seed, n=200, m=60, K=3):
    """A trained predictor on n points and K pairs (a_k, b_k) fit as a
    linear smoother's evaluate fits them: a_k on the trained predictor's
    values at a subsample plus ``near`` times noise, b_k on noise there.
    Returns the trainer, the predictor, the 2K handles, the points and w
    weight rows."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0, 1, size=(n, d))
    trainer = fourier_ridge_trainer(FourierRidgeSpec(N=N, lam=lam))
    [base] = trainer.fit_multi(xs, (np.sin(2 * np.pi * xs.sum(axis=1))
                                    + rng.normal(0, 0.3, size=n))[:, None], [0])
    breve = trainer.predict_multi([base], xs)[0]
    subs = np.stack([rng.choice(n, size=m, replace=False) for _ in range(K)])
    Y = np.empty((m, 2 * K))
    Y[:, 0::2] = breve[subs.T] + near * rng.normal(size=(m, K))
    Y[:, 1::2] = rng.normal(size=(m, K))
    handles = trainer.fit_multi(xs, Y, [0] * (2 * K), np.repeat(subs, 2, axis=0))
    return trainer, base, handles, xs, rng.normal(size=(w, n))


def uniform_dataset(n, d=1, seed=0, fn=None, noise=0.0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0, 1, size=(n, d))
    ys = np.zeros(n) if fn is None else fn(xs)
    if noise:
        ys = ys + rng.normal(0, noise, size=n)
    return RegressionDataset(xs, ys)


# The depth-first recursive CART grower that the level-wise one replaced,
# kept as the reference it must match bit for bit.

class _RefNode:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, value=None, feature=None, threshold=None, left=None, right=None):
        self.value = value
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right


def _ref_best_split(xs, y, features, min_leaf):
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


def _ref_grow(xs, y, depth, spec):
    n, d = xs.shape
    if depth >= spec.max_depth or n < 2 * spec.min_samples_leaf or np.ptp(y) == 0.0:
        return _RefNode(value=float(y.mean()))
    split = _ref_best_split(xs, y, np.arange(d), spec.min_samples_leaf)
    if split is None:
        return _RefNode(value=float(y.mean()))
    _, j, thr = split
    mask = xs[:, j] <= thr
    return _RefNode(feature=j, threshold=thr,
                    left=_ref_grow(xs[mask], y[mask], depth + 1, spec),
                    right=_ref_grow(xs[~mask], y[~mask], depth + 1, spec))


def _ref_predict(node, xs, out, rows):
    if node.value is not None:
        out[rows] = node.value
        return
    mask = xs[rows, node.feature] <= node.threshold
    _ref_predict(node.left, xs, out, rows[mask])
    _ref_predict(node.right, xs, out, rows[~mask])


def _ref_leaves(node):
    return 1 if node.value is not None else _ref_leaves(node.left) + _ref_leaves(node.right)


def reference_tree(xs, ys, spec):
    """(predict, n_leaves) of the recursive grower."""
    root = _ref_grow(xs, ys, 0, spec)

    def predict(pts):
        out = np.empty(pts.shape[0])
        _ref_predict(root, pts, out, np.arange(pts.shape[0]))
        return out

    return predict, _ref_leaves(root)


def subsample_rows(rng, n, K, m, cols):
    """K subsamples of m points of n, unsorted and one with a repeated point,
    each repeated for ``cols`` response columns: a (K * cols) x m rows array
    and the subsamples' index rows."""
    subs = np.stack([rng.choice(n, size=m, replace=False) for _ in range(K)])
    subs[1, -1] = subs[1, 0]
    return np.repeat(subs, cols, axis=0), subs


def assert_rows_fit_matches_per_subsample_fits(trainer, xs, Y, rows, subs, probes, cols):
    """One `fit_multi` call with ``rows`` gives, column by column and bit for
    bit, the handles one call per subsample on that subsample's points gives."""
    seeds = list(range(Y.shape[1]))
    together = trainer.fit_multi(xs, Y, seeds, rows)
    for k, idx in enumerate(subs):
        own = slice(k * cols, (k + 1) * cols)
        apart = trainer.fit_multi(xs[idx], Y[:, own], seeds[own])
        for pts in (xs[idx], probes):
            np.testing.assert_array_equal(trainer.predict_multi(together[own], pts),
                                          trainer.predict_multi(apart, pts))
        for f, g in zip(together[own], apart):
            np.testing.assert_array_equal(f.predict(probes), g.predict(probes))
            assert f.meta.keys() == g.meta.keys()
            for key, value in f.meta.items():
                np.testing.assert_array_equal(value, g.meta[key])


class TestFourierRidge:
    def test_constant_data(self):
        ds = uniform_dataset(20, fn=lambda xs: np.full(xs.shape[0], 2.5))
        f = fourier_ridge_fit(ds, FourierRidgeSpec(N=4, lam=0.0))
        probe = np.linspace(0, 1, 17)[:, None]
        np.testing.assert_allclose(f.predict(probe), 2.5, atol=1e-10)

    def test_interpolation_when_overparametrized(self):
        # With at least as many features as points, lam=0 interpolates.
        ds = uniform_dataset(9, seed=1, fn=lambda xs: np.sin(7 * xs[:, 0]))
        f = fourier_ridge_fit(ds, FourierRidgeSpec(N=8, lam=0.0))  # 17 features
        mse = np.mean((f.predict(ds.xs) - ds.ys) ** 2)
        assert mse <= 1e-16 * max(1.0, float(np.mean(ds.ys ** 2)))

    def test_exp1_training_mse_window(self):
        # Training MSE sits at the noise-variance floor (sigma^2 = 0.04).
        mses = []
        for seed in range(5):
            ds, _ = generate(ExperimentSpec(id="exp1", n=1000, seed=seed))
            f = fourier_ridge_fit(ds, FourierRidgeSpec(N=8, lam=1e-6))
            mses.append(float(np.mean((f.predict(ds.xs) - ds.ys) ** 2)))
        assert all(0.03 <= m <= 0.05 for m in mses)

    @given(N=st.integers(1, 3), d=st.integers(1, 3), dual=st.booleans(),
           extra=st.integers(0, 60), lam=st.floats(1e-4, 1.0), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_normal_equations_residual(self, N, d, dual, extra, lam, seed):
        # Whichever form the fit solves (the kernel system when p > n), its
        # coefficients satisfy the primal normal equations.  Rounding can
        # reach about eps * p / lam = 2.2e-16 * 343 / 1e-4 < 1e-9; 1e-8
        # leaves a margin.
        p = (2 * N + 1) ** d
        n = 1 + extra % (p - 1) if dual else p + extra
        assert (p > n) == dual
        ds = uniform_dataset(n, d=d, seed=seed, fn=lambda xs: np.sin(7 * xs.sum(axis=1)),
                             noise=0.3)
        f = fourier_ridge_fit(ds, FourierRidgeSpec(N=N, lam=lam))
        phi = _build_design(ds.xs, _half_space_frequencies(N, d))
        if dual:
            assert "coefficients" not in f.meta
            coef = phi.T @ f.meta["dual_coefficients"]
        else:
            coef = f.meta["coefficients"]
        lhs = phi.T @ (phi @ coef) / n + lam * coef
        rhs = phi.T @ ds.ys / n
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)

    @given(N=st.integers(1, 3), d=st.integers(1, 3), n=st.integers(1, 12),
           m=st.integers(1, 12), near=st.floats(0.0, 1e-6), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_dirichlet_kernel_is_feature_gram(self, N, d, n, m, near, seed):
        # The product of per-coordinate Dirichlet kernels is Phi Phi^T, also
        # for a pair of points a hair apart (x_j ~ z_j, where D_N peaks).
        rng = np.random.default_rng(seed)
        xs = rng.uniform(0, 1, size=(n, d))
        zs = rng.uniform(0, 1, size=(m, d))
        zs[0] = np.clip(xs[0] + near, 0.0, 1.0)
        freqs = _half_space_frequencies(N, d)
        gram = _build_design(xs, freqs) @ _build_design(zs, freqs).T
        kernel = _dirichlet_kernel(_dirichlet_features(xs, N), _dirichlet_features(zs, N))
        assert kernel.shape == (n, m)
        assert np.max(np.abs(kernel - gram)) <= 1e-12 * np.max(np.abs(gram))

    def test_kernel_path_builds_no_design(self, monkeypatch):
        # lam > 0 with p > n never builds the n x p design, so the default
        # N=8 fits 5-d data (p = 17^5) under the default feature cap.
        def no_design(xs, freqs):
            raise AssertionError("explicit design built on the kernel path")

        monkeypatch.setattr(trainers, "_build_design", no_design)
        ds, _ = generate(ExperimentSpec(id="exp3", n=150, seed=1))
        f = fourier_ridge_fit(ds, FourierRidgeSpec())
        assert set(f.meta) == {"kind", "dual_coefficients", "lam", "N"}
        assert f.meta["dual_coefficients"].shape == (ds.n,)
        probes = np.random.default_rng(0).uniform(0, 1, size=(500, 5))
        assert np.all(np.isfinite(f.predict(probes)))

    # Rows of one tile at 100 columns, and a column count at which a tile is
    # a single row.
    TILE_ROWS = trainers._KERNEL_TILE_ENTRIES // 100
    WIDE = trainers._KERNEL_TILE_ENTRIES // 2 + 1

    @pytest.mark.parametrize("rows,cols", [
        (1, 100), (TILE_ROWS - 1, 100), (TILE_ROWS, 100), (TILE_ROWS + 1, 100),
        (2 * TILE_ROWS + 1, 100), (1, WIDE), (3, WIDE),
    ])
    @pytest.mark.parametrize("columns", [None, 3], ids=["vector", "matrix"])
    def test_kernel_times_coef_matches_product(self, rows, cols, columns):
        # Each tile is multiplied by coef as it is filled; a tile's
        # matrix-vector product may round its last rows apart from the
        # full-size one.
        rng = np.random.default_rng(rows + cols)
        psi_a = _dirichlet_features(rng.uniform(0, 1, size=(rows, 3)), 4)
        psi_b = _dirichlet_features(rng.uniform(0, 1, size=(cols, 3)), 4)
        coef = rng.normal(size=(cols,) if columns is None else (cols, columns))
        want = untiled_kernel(psi_a, psi_b) @ coef
        got = _dirichlet_kernel(psi_a, psi_b, coef)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_kernel_prediction_memory(self):
        # A 10,000-point prediction holds one tile of its 10,000 x 400
        # kernel (32 MB) and the tile's per-coordinate factor at a time,
        # once the probes' features sit in the memo.
        ds, _ = generate(ExperimentSpec(id="exp3", n=400, seed=1))
        f = fourier_ridge_fit(ds, FourierRidgeSpec(N=3))
        probes = np.random.default_rng(2).uniform(0, 1, size=(10_000, 5))
        first = f.predict(probes)
        again, peak = traced_peak(f.predict, probes)
        np.testing.assert_array_equal(again, first)
        assert peak <= again.nbytes + 3 * 8 * trainers._KERNEL_TILE_ENTRIES

    @pytest.mark.parametrize("rows,cols", [
        (1, 100), (TILE_ROWS - 1, 100), (TILE_ROWS, 100), (TILE_ROWS + 1, 100),
        (2 * TILE_ROWS + 1, 100), (1, WIDE), (3, WIDE), (WIDE, 2),
    ])
    def test_tiled_kernel_matches_untiled(self, rows, cols):
        # Each tile multiplies the same per-coordinate factors in the same
        # order as the full-size product, so only the GEMM's own blocking
        # can move a last bit.
        rng = np.random.default_rng(rows + cols)
        psi_a = _dirichlet_features(rng.uniform(0, 1, size=(rows, 3)), 4)
        psi_b = _dirichlet_features(rng.uniform(0, 1, size=(cols, 3)), 4)
        want = untiled_kernel(psi_a, psi_b)
        got = _dirichlet_kernel(psi_a, psi_b)
        assert got.shape == (rows, cols)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_tiled_kernel_memory(self):
        # The kernel itself plus one tile; the untiled product also holds a
        # second kernel-sized factor, twice the kernel.
        n = 1500
        psi = _dirichlet_features(np.random.default_rng(5).uniform(0, 1, size=(n, 5)), 8)
        kernel, peak = traced_peak(_dirichlet_kernel, psi, psi)
        assert kernel.shape == (n, n)
        assert peak <= 1.1 * kernel.nbytes

    def test_kernel_fitted_values(self, monkeypatch):
        # A prediction on the training points, given as a fresh or a frozen
        # copy, returns the fitted values without building a kernel; they
        # match a freshly built prediction to rounding.
        ds, _ = generate(ExperimentSpec(id="exp3", n=300, seed=3))
        spec = FourierRidgeSpec()
        f = fourier_ridge_fit(ds, spec)
        psi = _dirichlet_features(np.array(ds.xs), spec.N)
        fresh = _dirichlet_kernel(psi, psi) @ f.meta["dual_coefficients"]
        builds = []
        monkeypatch.setattr(
            trainers, "_dirichlet_kernel",
            lambda a, b, coef=None: builds.append(1) or _dirichlet_kernel(a, b, coef))
        frozen = np.array(ds.xs)
        frozen.setflags(write=False)
        fitted = f.predict(np.array(ds.xs))
        np.testing.assert_array_equal(f.predict(frozen), fitted)
        assert builds == []
        assert np.max(np.abs(fitted - fresh)) <= 1e-12 * np.max(np.abs(fresh))
        fitted[:] = 0.0   # a copy: the next caller still gets the fitted values
        np.testing.assert_array_equal(f.predict(ds.xs), f.predict(frozen))
        assert f.predict(ds.xs[:-1]).shape == (ds.n - 1,)
        assert builds == [1]

    def test_kernel_fitted_values_see_rewritten_training_array(self):
        # The handle compares against its own copy of the training points,
        # so rewriting the dataset's array in place makes a miss.
        ds, _ = generate(ExperimentSpec(id="exp3", n=120, seed=4))
        spec = FourierRidgeSpec(N=3)
        f = fourier_ridge_fit(ds, spec)
        psi = _dirichlet_features(np.array(ds.xs), spec.N)
        before = f.predict(ds.xs)
        ds.xs.setflags(write=True)
        ds.xs[:] = 1.0 - ds.xs
        ds.xs.setflags(write=False)
        after = f.predict(ds.xs)
        want = _dirichlet_kernel(_dirichlet_features(ds.xs, spec.N), psi) @ (
            f.meta["dual_coefficients"])
        np.testing.assert_array_equal(after, want)
        assert not np.allclose(after, before)

    def test_kernel_path_builds_once_per_report(self, monkeypatch):
        # The warm-up builds the n x n training kernel once, for its fit;
        # its prediction on the training points reads the fitted values.
        # The full-data features are built once, for the warm-up fit: every
        # refit gathers its rows from them, and refits predict on the full
        # data, which reads them, or on their own training points, which
        # reads their fitted values.
        ds, _ = generate(ExperimentSpec(id="exp3", n=200, seed=6))
        kernels, features = [], []
        kernel, feature = trainers._dirichlet_kernel, trainers._dirichlet_features

        def counting_kernel(psi_a, psi_b, coef=None):
            kernels.append((psi_a.shape[1], psi_b.shape[1]))
            return kernel(psi_a, psi_b, coef)

        def counting_features(xs, N):
            features.append(xs.shape[0])
            return feature(xs, N)

        monkeypatch.setattr(trainers, "_dirichlet_kernel", counting_kernel)
        monkeypatch.setattr(trainers, "_dirichlet_features", counting_features)
        trainer = make_trainer("fourier_ridge", {})

        def count_builds(cfg):
            kernels.clear()
            features.clear()
            clear_memo(monkeypatch)
            evaluate(ds, trainer, cfg)
            return kernels.count((ds.n, ds.n)), features.count(ds.n), len(features)

        cfg = EvaluationConfig(K=3, rho_grid=(0.5, 1.0), seed=6)
        assert count_builds(cfg) == (1, 1, 1)
        trainer = dataclasses.replace(trainer, linear_smoother=False)
        assert count_builds(cfg) == (1, 1, 1)
        cfg = EvaluationConfig(K=4, K1=2, rho_mode="tuned", seed=6)
        assert count_builds(cfg) == (1, 1, 1)

    def test_design_warm_up_kernel_refits_build_their_own(self, monkeypatch):
        # p = 3^5 <= n but > m: the warm-up fits on the design and the
        # refits on the kernel.  No fit on all of the points keeps their
        # Dirichlet features, so each refit builds its own subsample's, and
        # the full data's are built once, for the refits' predictions there.
        ds, _ = generate(ExperimentSpec(id="exp3", n=300, seed=12))
        designs, features = [], []
        design, feature = trainers._build_design, trainers._dirichlet_features

        def counting_design(xs, freqs):
            designs.append(xs.shape[0])
            return design(xs, freqs)

        def counting_features(xs, N):
            features.append(xs.shape[0])
            return feature(xs, N)

        monkeypatch.setattr(trainers, "_build_design", counting_design)
        monkeypatch.setattr(trainers, "_dirichlet_features", counting_features)
        trainer = make_trainer("fourier_ridge", {"N": 1, "lam": 1e-6})

        def count_builds(cfg):
            designs.clear()
            features.clear()
            clear_memo(monkeypatch)
            reports = evaluate(ds, trainer, cfg)
            m = reports[0].rounds[0].sub.indices.size
            assert 0 < m < 3 ** 5 <= ds.n
            assert set(features) == {m, ds.n}
            return designs, features.count(ds.n), len(features)

        cfg = EvaluationConfig(K=4, rho_grid=(0.5, 2.0), seed=12)
        assert count_builds(cfg) == ([ds.n], 1, cfg.K + 1)
        trainer = dataclasses.replace(trainer, linear_smoother=False)
        assert count_builds(cfg) == ([ds.n], 1, cfg.K + 1)
        cfg = EvaluationConfig(K=4, K1=2, rho_mode="tuned", seed=12)
        assert count_builds(cfg)[:2] == ([ds.n], 1)

    def test_kernel_path_evaluate_memory(self):
        # The warm-up's n x n kernel is the one full-size object: the solve
        # adds its factorization inside LAPACK, which tracemalloc does not
        # see, and the fitted values reuse the kernel.
        ds, _ = generate(ExperimentSpec(id="exp3", n=1500, seed=0))
        cfg = EvaluationConfig(K=3, rho_grid=(0.5, 1.0), seed=0)
        _, peak = traced_peak(evaluate, ds, make_trainer("fourier_ridge", {}), cfg)
        assert peak <= 1.2 * ds.n ** 2 * 8

    @pytest.mark.parametrize("n", [40, 8], ids=["primal", "kernel"])
    def test_predict_rejects_wrong_dimension(self, n):
        ds = uniform_dataset(n, d=1, fn=lambda xs: xs[:, 0])
        f = fourier_ridge_fit(ds, FourierRidgeSpec(N=4))   # p = 9
        assert ("coefficients" in f.meta) == (n > 9)
        with pytest.raises(InvalidDataError, match="1-dimensional .* dimension 5"):
            f.predict(np.linspace(0, 1, 5))
        with pytest.raises(InvalidDataError, match="dimension 2"):
            f.predict(np.full((3, 2), 0.5))

    def test_interpolation_without_penalty_above_n(self):
        # lam = 0 with p > n keeps the least-squares solve on the explicit
        # design: a solve on K (condition number 2e10 here) would square the
        # design's and lose about four digits of the interpolation.
        ds = uniform_dataset(24, seed=0, fn=lambda xs: np.cos(9 * xs[:, 0]), noise=1.0)
        f = fourier_ridge_fit(ds, FourierRidgeSpec(N=12, lam=0.0))  # 25 features
        assert f.meta["coefficients"].shape == (25,)
        residual = np.max(np.abs(f.predict(ds.xs) - ds.ys))
        assert residual <= 1e-10 * np.max(np.abs(ds.ys))

    def test_feature_cap(self, monkeypatch):
        # The cap guards the explicit design, which lam = 0 still builds; it
        # raises before the design is built.
        def no_design(xs, freqs):
            raise AssertionError("design built past the feature cap")

        monkeypatch.setattr(trainers, "_build_design", no_design)
        ds = uniform_dataset(10, d=5)
        with pytest.raises(TrainerError, match="exceeds cap 1000"):
            fourier_ridge_fit(ds, FourierRidgeSpec(N=8, lam=0.0, max_features=1000))

    def test_half_space_frequency_count(self):
        for d in (1, 2):
            for N in (0, 1, 2, 3):
                freqs = _half_space_frequencies(N, d)
                assert 1 + 2 * len(freqs) == (2 * N + 1) ** d
                assert _half_space_frequencies(N, d) is freqs
                assert not freqs.flags.writeable

    def test_design_memo_predictions_bit_identical(self):
        ds, _ = generate(ExperimentSpec(id="exp1", n=200, seed=2))
        f = fourier_ridge_fit(ds, FourierRidgeSpec(N=8, lam=1e-6))
        assert "coefficients" in f.meta  # p = 17 <= n: the primal path and its memo
        hit = f.predict(ds.xs)
        again = f.predict(ds.xs)
        fresh = f.predict(np.array(ds.xs))
        np.testing.assert_array_equal(hit, fresh)
        np.testing.assert_array_equal(again, fresh)

    def test_design_memo_keyed_by_values(self, monkeypatch):
        # Both entries: a fit on all of xs fills the fit entry, which
        # predictions on xs read; other points fill the prediction entry.
        clear_memo(monkeypatch)
        xs = np.random.default_rng(3).uniform(0, 1, size=(50, 1))
        freqs = _half_space_frequencies(4, 1)
        owner = fourier_ridge_fit(RegressionDataset(xs, xs[:, 0]), FourierRidgeSpec(N=4))
        for pts in (xs, xs[::-1].copy()):
            design = _predict_features(_build_design, freqs, pts)
            assert (design is owner.keep) == (pts is xs)
            assert not design.flags.writeable
            frozen = np.array(pts)
            frozen.setflags(write=False)
            # Distinct arrays with equal values, writeable or not, share the design.
            assert _predict_features(_build_design, freqs, np.array(pts)) is design
            assert _predict_features(_build_design, freqs, frozen) is design
            np.testing.assert_array_equal(design, _build_design(pts, freqs))
            changed = np.array(pts)
            changed[7, 0] = 0.5
            miss = _predict_features(_build_design, freqs, changed)
            assert miss is not design
            np.testing.assert_array_equal(miss, _build_design(changed, freqs))
            assert _predict_features(_build_design, freqs, pts[:-1]) is not miss
            # A prediction's miss replaces the prediction entry only.
            assert (_predict_features(_build_design, freqs, pts) is design) == (pts is xs)

    def test_design_memo_sees_rewritten_frozen_array(self):
        xs = np.random.default_rng(4).uniform(0, 1, size=(40, 1))
        xs.setflags(write=False)
        f = fourier_ridge_fit(RegressionDataset(xs, np.sin(6.0 * xs[:, 0])),
                              FourierRidgeSpec(N=4, lam=1e-6))
        before = f.predict(xs)
        xs.setflags(write=True)
        xs[:] = 1.0 - xs
        xs.setflags(write=False)
        after = f.predict(xs)
        np.testing.assert_array_equal(after, f.predict(np.array(xs)))
        assert not np.array_equal(after, before)

    @pytest.mark.parametrize("d,N,name", [(1, 4, "_build_design"), (2, 4, "_dirichlet_features")],
                             ids=["primal", "kernel"])
    def test_full_data_features_built_once_in_any_order(self, monkeypatch, d, N, name):
        # Fits write the memo and predictions only read it: a fit on all of
        # xs, a prediction elsewhere, a prediction on xs and a fit on rows
        # of xs build the features of all of xs once, while the first
        # fit's handles live.
        clear_memo(monkeypatch)
        n, m = 40, 8
        rng = np.random.default_rng(d)
        xs = rng.uniform(0, 1, size=(n, d))
        builds, build = [], getattr(trainers, name)
        monkeypatch.setattr(trainers, name,
                            lambda pts, param: builds.append(len(pts)) or build(pts, param))
        trainer = fourier_ridge_trainer(FourierRidgeSpec(N=N, lam=1e-3))
        owner = trainer.fit_multi(xs, rng.normal(size=(n, 2)), [0, 1])
        assert ("dual_coefficients" in owner[0].meta) == (name == "_dirichlet_features")
        rows = np.stack([rng.choice(n, size=m, replace=False) for _ in range(3)])
        trainer.predict_multi(owner, xs[rows[0]])
        trainer.predict_multi(owner, np.array(xs))
        trainer.fit_multi(xs, rng.normal(size=(m, 3)), [0, 1, 2], rows)
        assert builds.count(n) == 1

    @pytest.mark.parametrize("d,N,n", [(1, 8, 4000), (2, 16, 400)], ids=["primal", "kernel"])
    def test_full_data_features_freed_with_their_handles(self, monkeypatch, d, N, n):
        # The memo refers to the features of all of xs only through the
        # handles fit on all of xs: deleting the last of them frees the
        # features, whatever was fit or predicted on rows of xs meanwhile.
        clear_memo(monkeypatch)
        m = 60
        rng = np.random.default_rng(d)
        xs = rng.uniform(0, 1, size=(n, d))
        trainer = fourier_ridge_trainer(FourierRidgeSpec(N=N))
        tracemalloc.start()
        try:
            owner = trainer.fit_multi(xs, rng.normal(size=(n, 1)), [0])
            size = owner[0].keep.nbytes   # the design, or the Dirichlet features
            rows = np.stack([rng.choice(n, size=m, replace=False) for _ in range(2)])
            refits = trainer.fit_multi(xs, rng.normal(size=(m, 2)), [0, 1], rows)
            trainer.predict_multi(owner + refits, xs)
            trainer.predict_multi(refits, xs[rows[0]])
            assert trainers._fit_entry[3]() is owner[0].keep
            held = tracemalloc.get_traced_memory()[0]
            del owner
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert ("dual_coefficients" in refits[0].meta) == (d == 2)
        assert trainers._fit_entry is None
        assert len(trainers._predict_entry[2]) == m
        assert size >= n * 17 * 8 and freed >= size

    @pytest.mark.parametrize("d,N", [(1, 8), (2, 16)], ids=["primal", "kernel"])
    def test_memo_lookup_survives_a_collection(self, monkeypatch, d, N):
        # A cyclic collection while the memo compares its key can free the
        # last handle fit on all of xs, and its weakref callback then clears
        # the fit entry.  A prediction on xs that was looking the entry up
        # takes that as a miss and builds its own features.
        clear_memo(monkeypatch)
        n, m = 400, 60
        rng = np.random.default_rng(d)
        xs = rng.uniform(0, 1, size=(n, d))
        trainer = fourier_ridge_trainer(FourierRidgeSpec(N=N))
        enabled = gc.isenabled()
        gc.disable()
        try:
            owner = trainer.fit_multi(xs, rng.normal(size=(n, 1)), [0])
            refit = trainer.fit_multi(xs, rng.normal(size=(m, 1)), [1],
                                      rng.choice(n, size=(1, m), replace=False))
            want = trainer.predict_multi(refit, xs)
            owner[0].meta["cycle"] = owner   # only the cyclic collector frees it
            del owner
            array_equal = np.array_equal

            def collecting(a, b):
                # Collect while the fit entry's key is being compared.
                if trainers._fit_entry is not None and a is trainers._fit_entry[2]:
                    gc.collect()
                return array_equal(a, b)

            monkeypatch.setattr(np, "array_equal", collecting)
            got = trainer.predict_multi(refit, xs)
        finally:
            if enabled:
                gc.enable()
        assert ("dual_coefficients" in refit[0].meta) == (d == 2)
        assert trainers._fit_entry is None
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("d,N", [(1, 8), (2, 16)], ids=["primal", "kernel"])
    def test_prediction_returns_the_entry_it_checked(self, monkeypatch, d, N):
        # Another call may replace the prediction entry between this call's
        # key check and its read, as a second thread predicting elsewhere
        # would; the features returned are still those of the points asked.
        clear_memo(monkeypatch)
        n, m = 400, 60
        rng = np.random.default_rng(d)
        xs = rng.uniform(0, 1, size=(n, d))
        pts, elsewhere = rng.uniform(0, 1, size=(2, 50, d))
        trainer = fourier_ridge_trainer(FourierRidgeSpec(N=N))
        refit = trainer.fit_multi(xs, rng.normal(size=(m, 1)), [0],
                                  rng.choice(n, size=(1, m), replace=False))
        trainer.predict_multi(refit, elsewhere)
        other = trainers._predict_entry
        want = trainer.predict_multi(refit, pts)
        array_equal = np.array_equal

        def replacing(a, b):
            # Replace the entry once this call has found it holds ``pts``.
            equal = array_equal(a, b)
            if equal and trainers._predict_entry is not other and a is trainers._predict_entry[2]:
                trainers._predict_entry = other
            return equal

        monkeypatch.setattr(np, "array_equal", replacing)
        got = trainer.predict_multi(refit, pts)
        assert trainers._predict_entry is other
        assert ("dual_coefficients" in refit[0].meta) == (d == 2)
        np.testing.assert_array_equal(got, want)

    def test_full_data_design_built_once_per_report(self, monkeypatch):
        ds, _ = generate(ExperimentSpec(id="exp1", n=300, seed=5))
        builds = []
        build = trainers._build_design

        def counting(xs, freqs):
            builds.append(xs.shape[0])
            return build(xs, freqs)

        monkeypatch.setattr(trainers, "_build_design", counting)
        trainer = make_trainer("fourier_ridge", {"N": 8, "lam": 1e-6})

        def count_builds(cfg):
            builds.clear()
            clear_memo(monkeypatch)
            evaluate(ds, trainer, cfg)
            return builds.count(ds.n), len(builds)

        # The warm-up fit builds the full design, which lives as long as its
        # handle: every refit gathers its rows from it, and every prediction
        # on the full data reads it, whatever the order of the calls.  Each
        # subsample's refits are scored on their fitted values, so no
        # subsample design is built.
        cfg = EvaluationConfig(K=30, rho_grid=(0.1, 0.5, 1.0, 2.0, 5.0), seed=5)
        assert count_builds(cfg) == (1, 1)
        trainer = dataclasses.replace(trainer, linear_smoother=False)
        assert count_builds(cfg) == (1, 1)
        cfg = EvaluationConfig(K=12, K1=4, rho_mode="tuned", seed=5)
        assert count_builds(cfg) == (1, 1)

    @pytest.mark.parametrize("d,N", [(1, 8), (1, 0), (3, 2), (3, 0)])
    def test_design_built_in_place(self, d, N):
        # The constant, cos and sin blocks are written into one array: bit
        # for bit the stacked blocks, with the (n, k) phase block as the one
        # temporary that grows with n.  The rest is the frequencies cast to
        # float and numpy's ufunc buffer of 8192 values for the strided
        # cos and sin outputs.
        n = 4000
        xs = np.random.default_rng(d + N).uniform(0, 1, size=(n, d))
        freqs = _half_space_frequencies(N, d)
        design, peak = traced_peak(_build_design, xs, freqs)
        np.testing.assert_array_equal(design, stacked_design(xs, freqs))
        assert design.shape == (n, (2 * N + 1) ** d) and design.flags.c_contiguous
        assert peak <= design.nbytes + n * len(freqs) * 8 + freqs.size * 8 + 8192 * 8 + 4096

    @pytest.mark.parametrize("d,N,lam", [(1, 8, 1e-6), (3, 1, 1e-6), (1, 4, 0.0)],
                             ids=["primal", "primal-3d", "lstsq"])
    def test_primal_fitted_values(self, monkeypatch, d, N, lam):
        # A primal handle predicted on exactly its training points reads
        # the fitted values its fit call computed, with no design built:
        # bit for bit its fit call's coefficient rows times a freshly built
        # design of those points.  Elsewhere it predicts through the design.
        rng = np.random.default_rng(d + N)
        n, m, cols = 300, 60, 3
        xs = rng.uniform(0, 1, size=(n, d))
        trainer = fourier_ridge_trainer(FourierRidgeSpec(N=N, lam=lam))
        owner = trainer.fit_multi(xs, rng.normal(size=(n, 1)), [0])
        sub = rng.choice(n, size=m, replace=False)
        fits = trainer.fit_multi(xs, rng.normal(size=(m, cols)), [0] * cols,
                                 np.repeat(sub[None], cols, axis=0))
        assert all("coefficients" in f.meta for f in owner + fits)
        pts = xs[sub]
        want = np.empty((cols, m))
        trainers._tiled_product(np.stack([f.meta["coefficients"] for f in fits]),
                                stacked_design(pts, _half_space_frequencies(N, d)), want)
        builds, build = [], trainers._build_design
        monkeypatch.setattr(trainers, "_build_design",
                            lambda pts, freqs: builds.append(len(pts)) or build(pts, freqs))
        np.testing.assert_array_equal(trainer.predict_multi(fits, np.array(pts)), want)
        np.testing.assert_array_equal(fits[1].predict(pts), want[1])
        assert builds == []
        # Mixed with a handle fit elsewhere, the others take one product.
        vals = trainer.predict_multi([fits[0], *owner, fits[2]], pts)
        np.testing.assert_array_equal(vals[[0, 2]], want[[0, 2]])
        np.testing.assert_array_equal(vals[1], owner[0].predict(np.array(pts)))
        assert builds == [m]

    def test_warm_up_gram_is_one_product(self):
        # p = 441 > 362: a row tile of at most 2^18 multiply-adds would hold
        # one row, and the gram would be n rank-1 updates.  The gram the
        # warm-up keeps is one design^T design / n product, bit for bit.
        rng = np.random.default_rng(31)
        n, d, N = 600, 2, 10
        xs = rng.uniform(0, 1, size=(n, d))
        [fit] = fourier_ridge_trainer(FourierRidgeSpec(N=N, lam=1e-6)).fit_multi(
            xs, rng.normal(size=(n, 1)), [0])
        design = stacked_design(xs, _half_space_frequencies(N, d))
        assert design.shape == (n, 441)
        np.testing.assert_array_equal(fit.item[0].gram, design.T @ design / n)

    def test_runs_predict_in_one_fill_call(self, monkeypatch):
        # Handles from many fit calls share one fill per frequency table,
        # so K runs' 2K handles predict on the full data in one product.
        rng = np.random.default_rng(4)
        n, m, K = 400, 50, 6
        xs = rng.uniform(0, 1, size=(n, 1))
        trainer = fourier_ridge_trainer(FourierRidgeSpec(N=4))
        handles = [f for _ in range(K) for f in trainer.fit_multi(
            xs, rng.normal(size=(m, 2)), [0, 0], np.repeat(rng.choice(n, (1, m), False), 2, 0))]
        calls, fill = [], trainers._PrimalRows.__call__
        monkeypatch.setattr(trainers._PrimalRows, "__call__",
                            lambda self, items, pts, out: calls.append(len(items))
                            or fill(self, items, pts, out))
        vals = trainer.predict_multi(handles, xs)
        assert calls == [2 * K]
        for f, row in zip(handles, vals):
            np.testing.assert_allclose(row, f.predict(xs), rtol=0, atol=1e-13)

    # Each moment's gap from predict_multi plus _pair_moments is measured
    # in units of its scale: for a moment of the factors u and v, |u| s_v +
    # |v| s_u, with |.| an RMS over the points, s_D the RMS of the a_k and
    # the trained predictor's values, s_B = |B| and s_w = |w|.  Over 60
    # draws like these, with near down to 1e-12, the largest gap was
    # 6.5e-16 of that scale.  Forming dd as <a,a> - 2<a,base> + <base,base>
    # from the coefficients' quadratic forms instead missed by up to 2.4e-4.
    PAIR_MOMENT_RTOL = 1e-13

    @given(case=st.sampled_from([(1, 8, 1e-6), (3, 1, 1e-6), (1, 8, 0.0), (3, 1, 0.0)]),
           near=st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e), w=st.integers(1, 2),
           seed=st.integers(0, 2 ** 16))
    @example(case=(3, 1, 0.0), near=1e-10, w=1, seed=0)
    @example(case=(1, 8, 1e-6), near=0.0, w=2, seed=1)
    @settings(max_examples=30, deadline=None)
    def test_pair_moments_match_predicted_moments(self, case, near, w, seed):
        # fourier_ridge's pair_moments_fn (primal, primal-3d and lstsq)
        # gives the moments the engine takes from the handles' predicted
        # values, also when the a_k nearly reproduce the trained predictor.
        d, N, lam = case
        trainer, base, handles, xs, weights = linear_pairs(d, N, lam, near, w, seed)
        got = trainer.pair_moments(base, handles, xs, weights)
        assert got is not None
        vals = trainer.predict_multi(handles, xs)
        breve = trainer.predict_multi([base], xs)[0]
        want = refit._pair_moments(vals, breve, list(weights))

        def rms(a):
            return np.sqrt(np.mean(np.square(a), axis=-1))

        s_d = rms(np.concatenate([vals[0::2], breve[None]]).ravel())
        d_, b_, w_ = rms(vals[0::2] - breve), rms(vals[1::2]), rms(weights)[:, None]
        scales = [w_ * (s_d + d_), 2 * w_ * b_, 2 * d_ * s_d, d_ * b_ + b_ * s_d, 2 * b_ * b_]
        for name, g, r, scale in zip(want._fields, got, want, scales):
            assert g.shape == r.shape
            assert np.all(np.abs(g - r) <= self.PAIR_MOMENT_RTOL * scale), name

    @pytest.mark.parametrize("base_N,N", [(4, 4), (1, 4)], ids=["kernel", "design-warm-up"])
    def test_pair_moments_decline_kernel_handles(self, base_N, N):
        # Kernel-path handles (p = 81 > m = 40) keep the predicted moments,
        # whichever path the trained predictor took.
        rng = np.random.default_rng(N)
        n, m = 60, 40
        xs = rng.uniform(0, 1, size=(n, 2))
        [base] = fourier_ridge_trainer(FourierRidgeSpec(N=base_N, lam=1e-3)).fit_multi(
            xs, rng.normal(size=(n, 1)), [0])
        trainer = fourier_ridge_trainer(FourierRidgeSpec(N=N, lam=1e-3))
        handles = trainer.fit_multi(xs, rng.normal(size=(m, 2)), [0, 0],
                                    np.repeat(rng.choice(n, (1, m), False), 2, 0))
        assert ("dual_coefficients" in base.meta) == (base_N == 4)
        assert all("dual_coefficients" in f.meta for f in handles)
        assert trainer.pair_moments(base, handles, xs, rng.normal(size=(1, n))) is None
        plain = [PredictorHandle(f.predict) for f in handles]
        assert trainer.pair_moments(base, plain, xs, rng.normal(size=(1, n))) is None

    def test_evaluate_memory_below_candidate_block(self):
        # A ridge1d_bign-shaped evaluate (exp1, n = 8000, K = 30, truth
        # given) takes its pair moments from coefficients and reads the
        # refits' fitted values, so its peak stays below the (2K, n) block
        # of every refit predicted on the full data (3.84 MB).
        ds, truth = generate(ExperimentSpec(id="exp1", n=8000, seed=0))
        trainer = make_trainer("fourier_ridge", {"N": 8, "lam": 1e-6})
        cfg = EvaluationConfig(K=30, beta=0.6, seed=0)
        _, peak = traced_peak(evaluate, ds, trainer, cfg, None, truth.fstar)
        assert peak < 2 * cfg.K * ds.n * 8

    @pytest.mark.parametrize("d,N,lam,key", [
        (1, 4, 1e-6, "coefficients"),      # p = 9 <= n: the p x p normal equations
        (2, 4, 1e-3, "dual_coefficients"),  # p = 81 > n: the n x n kernel system
        (2, 4, 0.0, "coefficients"),       # lam = 0: least squares on the design
    ], ids=["primal", "kernel", "lstsq"])
    def test_fit_multi_matches_per_column_fits(self, d, N, lam, key):
        # One factorization solves every column; a multi-column solve rounds
        # apart from a single-column one, so columns match the per-column
        # fits to 1e-10 of the largest prediction.  One product (primal,
        # lstsq) or one kernel pass (kernel) predicts every handle, each row
        # matching the handle's own prediction to 1e-13.
        n, c = 40, 4
        rng = np.random.default_rng(d + N)
        xs = rng.uniform(0, 1, size=(n, d))
        Y = np.sin(5.0 * xs.sum(axis=1))[:, None] + rng.normal(0, 0.3, size=(n, c))
        spec = FourierRidgeSpec(N=N, lam=lam)
        trainer = fourier_ridge_trainer(spec)
        handles = trainer.fit_multi(xs, Y, list(range(c)))
        probes = rng.uniform(0, 1, size=(200, d))
        p = spec.feature_count(d)
        for y, f in zip(Y.T, handles):
            g = fourier_ridge_fit(RegressionDataset(xs, y), spec)
            assert set(f.meta) == set(g.meta)
            assert f.meta[key].shape == g.meta[key].shape == ((n,) if key.startswith("dual")
                                                               else (p,))
            if key == "coefficients":
                assert f.meta["frequencies"].shape == ((p - 1) // 2, d)
            for pts in (xs, probes):
                want = g.predict(pts)
                assert np.max(np.abs(f.predict(pts) - want)) <= 1e-10 * np.max(np.abs(want))
        for pts in (xs, probes):
            want = np.stack([f.predict(pts) for f in handles])
            vals = trainer.predict_multi(handles, pts)
            assert vals.shape == want.shape
            assert np.max(np.abs(vals - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("d,N,lam,m", [(1, 4, 1e-6, 20), (1, 6, 1e-3, 9), (1, 3, 0.0, 20),
                                           (3, 1, 1e-6, 30), (3, 1, 0.0, 20)],
                             ids=["primal", "kernel", "lstsq", "primal-3d", "lstsq-3d"])
    def test_rows_fit_matches_per_subsample_fits(self, monkeypatch, d, N, lam, m):
        # Columns that share their rows are solved together, as one call on
        # their points solves them; every handle and its predictions match
        # bit for bit, on the training points (fitted values, kernel path)
        # and off them, though the call gathers each subsample's features
        # from those of all the points where the call on its points builds
        # them.  While a handle fit on all the points lives, the call
        # builds nothing.
        rng = np.random.default_rng(N + d - 1)
        n, K, cols = 50, 4, 3
        xs = rng.uniform(0, 1, size=(n, d))
        rows, subs = subsample_rows(rng, n, K, m, cols)
        Y = rng.normal(size=(m, K * cols))
        trainer = fourier_ridge_trainer(FourierRidgeSpec(N=N, lam=lam))
        probes = rng.uniform(0, 1, size=(30, d))
        assert_rows_fit_matches_per_subsample_fits(trainer, xs, Y, rows, subs, probes, cols)
        meta = trainer.fit_multi(xs, Y, list(range(K * cols)), rows)[0].meta
        assert ("dual_coefficients" in meta) == (N == 6)
        if N == 6:
            return   # a fit on all n points takes the design, not the kernel
        builds, build = [], trainers._build_design
        monkeypatch.setattr(trainers, "_build_design",
                            lambda pts, freqs: builds.append(len(pts)) or build(pts, freqs))
        owner = trainer.fit_multi(xs, np.zeros((n, 1)), [0])
        trainer.fit_multi(xs, Y, list(range(K * cols)), rows)
        assert builds == [n] and owner
        assert_rows_fit_matches_per_subsample_fits(trainer, xs, Y, rows, subs, probes, cols)

    @pytest.mark.parametrize("d,N,lam,key", [
        (1, 4, 1e-6, "coefficients"),       # p = 9 <= n
        (3, 1, 1e-3, "coefficients"),       # p = 27 <= n
        (2, 4, 1e-3, "dual_coefficients"),  # p = 81 > n: the kernel system
        (2, 4, 0.0, "coefficients"),        # lam = 0: least squares
    ], ids=["primal", "primal-3d", "kernel", "lstsq"])
    @given(alpha=st.floats(-10, 10), beta=st.floats(-10, 10),
           seeds=st.lists(st.integers(0, 2**32), min_size=6, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_fit_multi_is_a_linear_smoother(self, d, N, lam, key, alpha, beta, seeds):
        # What `linear_smoother` declares: a column's fit is linear in its
        # responses, to 1e-10 of the terms' size plus `SUBNORMAL_FLOOR`,
        # and does not depend on its seed, bit for bit.
        n = 40
        rng = np.random.default_rng(d + N)
        xs = rng.uniform(0, 1, size=(n, d))
        y, z = np.sin(5.0 * xs.sum(axis=1)), rng.normal(size=n)
        Y = np.stack([y, z, alpha * y + beta * z], axis=1)
        trainer = fourier_ridge_trainer(FourierRidgeSpec(N=N, lam=lam))
        assert trainer.linear_smoother
        probes = rng.uniform(0, 1, size=(50, d))
        first, second = (trainer.fit_multi(xs, Y, seeds[:3]), trainer.fit_multi(xs, Y, seeds[3:]))
        assert key in first[0].meta
        for pts in (xs, probes):
            f_y, f_z, f_mix = trainer.predict_multi(first, pts)
            scale = np.max(np.abs(alpha * f_y) + np.abs(beta * f_z))
            assert (np.max(np.abs(f_mix - (alpha * f_y + beta * f_z)))
                    <= 1e-10 * scale + SUBNORMAL_FLOOR)
            np.testing.assert_array_equal(trainer.predict_multi(second, pts), [f_y, f_z, f_mix])

    def test_prediction_totality(self):
        ds, _ = generate(ExperimentSpec(id="exp1", n=200, seed=0))
        f = fourier_ridge_fit(ds, FourierRidgeSpec(N=8, lam=1e-6))
        probes = np.random.default_rng(0).uniform(0, 1, size=(10_000, 1))
        assert np.all(np.isfinite(f.predict(probes)))


class TestMlp:
    def test_zero_noise_linear_data(self):
        ds = uniform_dataset(120, seed=2, fn=lambda xs: 2.0 * xs[:, 0] - 0.5)
        f = mlp_fit(ds, MlpSpec(max_iter=200), seed=0)
        mse = float(np.mean((f.predict(ds.xs) - ds.ys) ** 2))
        assert mse < 1e-2

    def test_determinism_same_seed(self):
        ds, _ = generate(ExperimentSpec(id="exp1", n=150, seed=1))
        probe = np.random.default_rng(1).uniform(0, 1, size=(100, 1))
        a = mlp_fit(ds, MlpSpec(max_iter=60), seed=5).predict(probe)
        b = mlp_fit(ds, MlpSpec(max_iter=60), seed=5).predict(probe)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_fit(self):
        ds, _ = generate(ExperimentSpec(id="exp1", n=150, seed=1))
        probe = np.random.default_rng(1).uniform(0, 1, size=(50, 1))
        a = mlp_fit(ds, MlpSpec(max_iter=30), seed=5).predict(probe)
        b = mlp_fit(ds, MlpSpec(max_iter=30), seed=6).predict(probe)
        assert not np.array_equal(a, b)

    def test_exp1_holdout_mse(self):
        ds, truth = generate(ExperimentSpec(id="exp1", n=500, seed=4))
        f = mlp_fit(ds, MlpSpec(max_iter=300), seed=0)
        holdout = truth.covariate_sampler(2000, 99)
        noise = truth.noise_sampler(2000, 99)
        y_hold = truth.fstar.predict(holdout) + noise
        mse = float(np.mean((f.predict(holdout) - y_hold) ** 2))
        assert mse < 2 * 0.2 ** 2

    def test_lbfgs_warns_when_it_stops_short(self):
        ds, _ = generate(ExperimentSpec(id="exp1", n=200, seed=0))
        with pytest.warns(ConvergenceWarning, match="TOTAL NO. OF ITERATIONS REACHED LIMIT"):
            mlp_fit(ds, MlpSpec(widths=(8, 8), max_iter=5), seed=0)
        # L-BFGS converges after 102 iterations and does not warn.
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            mlp_fit(ds, MlpSpec(widths=(8, 8), max_iter=200), seed=0)

    def test_weights_exposed(self):
        ds = uniform_dataset(40, seed=0, fn=lambda xs: xs[:, 0])
        f = mlp_fit(ds, MlpSpec(widths=(8, 8), max_iter=20), seed=0)
        assert [w.shape for w in f.meta["weights"]] == [(1, 8), (8, 8), (8, 1)]

    def test_predict_rejects_wrong_dimension(self):
        ds = uniform_dataset(30, d=2, fn=lambda xs: xs[:, 0])
        f = mlp_fit(ds, MlpSpec(widths=(4,), max_iter=5), seed=0)
        with pytest.raises(InvalidDataError, match="2-dimensional .* dimension 5"):
            f.predict(np.linspace(0, 1, 5))

    def test_prediction_totality(self):
        ds, _ = generate(ExperimentSpec(id="exp3", n=150, seed=0))
        f = mlp_fit(ds, MlpSpec(max_iter=60), seed=0)
        probes = np.random.default_rng(2).uniform(0, 1, size=(10_000, 5))
        assert np.all(np.isfinite(f.predict(probes)))


class TestTree:
    def test_constant_y(self):
        ds = uniform_dataset(25, fn=lambda xs: np.full(xs.shape[0], -1.25))
        f = tree_fit(ds, TreeSpec(max_depth=4))
        np.testing.assert_allclose(f.predict(np.linspace(0, 1, 9)[:, None]), -1.25)

    def test_exp2_noiseless_recovery(self):
        ds, truth = generate(ExperimentSpec(id="exp2", n=200, seed=5, noise_scale=0.0))
        f = tree_fit(ds, TreeSpec(max_depth=2, min_samples_leaf=1))
        interior = np.array([[0.1], [0.5], [0.9]])
        np.testing.assert_allclose(f.predict(interior), [0.0, 1.0, 2.0], atol=1e-12)

    def test_deterministic(self):
        ds, _ = generate(ExperimentSpec(id="exp2", n=300, seed=8))
        probe = np.random.default_rng(0).uniform(0, 1, size=(200, 1))
        a = tree_fit(ds, TreeSpec(max_depth=6), seed=1).predict(probe)
        b = tree_fit(ds, TreeSpec(max_depth=6), seed=1).predict(probe)
        np.testing.assert_array_equal(a, b)

    def test_min_samples_leaf_respected(self):
        ds, _ = generate(ExperimentSpec(id="exp2", n=100, seed=2))
        f = tree_fit(ds, TreeSpec(max_depth=10, min_samples_leaf=20))
        # at most n / min_leaf leaves
        assert f.meta["n_leaves"] <= 5

    def test_prediction_totality(self):
        ds, _ = generate(ExperimentSpec(id="exp2", n=500, seed=0))
        f = tree_fit(ds, TreeSpec(max_depth=6))
        probes = np.random.default_rng(1).uniform(0, 1, size=(10_000, 1))
        assert np.all(np.isfinite(f.predict(probes)))

    @given(d=st.sampled_from([1, 5]), n=st.integers(1, 300), x_levels=st.integers(0, 6),
           y_levels=st.integers(0, 4), depth=st.integers(1, 7), leaf=st.integers(1, 4),
           cols=st.integers(1, 4), seed=st.integers(0, 2**16))
    @settings(max_examples=120, deadline=None)
    def test_matches_recursive_grower(self, d, n, x_levels, y_levels, depth, leaf, cols, seed):
        # Level by level and batched over columns, the trees are the
        # recursive grower's, bit for bit: ties in x (few levels) and in y
        # (few values), and leaf minimums.
        rng = np.random.default_rng(seed)
        xs = (rng.integers(0, x_levels + 2, size=(n, d)) / (x_levels + 1) if x_levels
              else rng.uniform(0, 1, size=(n, d)))
        Y = (rng.integers(0, y_levels + 1, size=(n, cols)).astype(float) if y_levels
             else rng.normal(size=(n, cols)) * 10.0 ** rng.uniform(-3, 3))
        spec = TreeSpec(max_depth=depth, min_samples_leaf=leaf)
        probes = np.vstack([xs, rng.uniform(0, 1, size=(40, d))])
        batched = tree_trainer(spec).fit_multi(xs, Y, list(range(cols)))
        for c in range(cols):
            want, leaves = reference_tree(xs, Y[:, c], spec)
            single = tree_fit(RegressionDataset(xs, Y[:, c]), spec, seed=c)
            for f in (single, batched[c]):
                np.testing.assert_array_equal(f.predict(probes), want(probes))
                assert f.meta["n_leaves"] == leaves

    @pytest.mark.parametrize("spec,d", [
        (TreeSpec(max_depth=4), 1),
        (TreeSpec(max_depth=6, min_samples_leaf=2), 2),
    ], ids=["one-d", "min-leaf"])
    def test_rows_fit_matches_per_subsample_fits(self, spec, d):
        # One grow over every subsample's columns, in stacked row space,
        # grows the trees one call per subsample grows, bit for bit: ties
        # in x (a coarse grid) break by position within each column's rows.
        rng = np.random.default_rng(d)
        n, K, m, cols = 80, 4, 23, 3
        xs = rng.integers(0, 6, size=(n, d)) / 5.0
        rows, subs = subsample_rows(rng, n, K, m, cols)
        Y = rng.normal(size=(m, K * cols))
        probes = np.vstack([xs, rng.uniform(0, 1, size=(30, d))])
        assert_rows_fit_matches_per_subsample_fits(tree_trainer(spec), xs, Y, rows, subs,
                                                   probes, cols)

    def test_predict_rejects_wrong_dimension(self):
        # A vector of 5 values is one 5-d point, not five 1-d points.
        ds, _ = generate(ExperimentSpec(id="exp2", n=50, seed=0))
        for f in (tree_fit(ds, TreeSpec(max_depth=3)),
                  tree_trainer(TreeSpec(max_depth=3)).fit_multi(ds.xs, ds.ys[:, None], [0])[0]):
            with pytest.raises(InvalidDataError, match="1-dimensional .* dimension 5"):
                f.predict(np.linspace(0, 1, 5))

    def test_threshold_never_rounds_onto_upper_value(self):
        # 0.5 * (0.3 + nextafter(0.3, 1)) rounds up to the upper value, which
        # would leave the right child empty; the lower value splits instead.
        xs = np.array([[0.1], [0.3], [np.nextafter(0.3, 1.0)]])
        ds = RegressionDataset(xs, np.array([5.0, 0.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = tree_fit(ds, TreeSpec(max_depth=3))
            got = f.predict(np.array([[0.1], [0.3], [0.30000000000000004], [0.9]]))
        np.testing.assert_array_equal(got, [5.0, 0.0, 1.0, 1.0])
        assert f.meta["n_leaves"] == 3

    def test_deep_tree_fit_memory_bounded(self):
        # Split search pads a level in size-ordered blocks under a fixed
        # entry budget, so a deep tree on 8000 points stays within a few MB.
        ds, _ = generate(ExperimentSpec(id="exp2", n=8000, seed=0))
        f, peak = traced_peak(tree_fit, ds, TreeSpec(max_depth=20))
        assert f.meta["n_leaves"] > 1000
        assert peak < 5e6

    @given(d=st.sampled_from([1, 3]), n=st.integers(1, 120), depth=st.integers(1, 7),
           calls=st.lists(st.integers(1, 4), min_size=1, max_size=3),
           entries=st.sampled_from([1, 5, 64, 2 ** 15]), seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_predict_multi_bit_identical_to_per_handle(self, d, n, depth, calls, entries, seed):
        # Handles of several fit_multi calls, shuffled: every root of one
        # call is routed at once, in point tiles of `entries`, and each row
        # equals the handle's own prediction bit for bit.
        rng = np.random.default_rng(seed)
        xs = rng.uniform(0, 1, size=(n, d))
        trainer = tree_trainer(TreeSpec(max_depth=depth))
        handles = [f for cols in calls for f in trainer.fit_multi(
            xs, rng.normal(size=(n, cols)), list(range(cols)))]
        handles = [handles[i] for i in rng.permutation(len(handles))]
        probes = np.vstack([xs, rng.uniform(0, 1, size=(30, d))])
        want = np.stack([f.predict(probes) for f in handles])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trainers, "_LEVEL_BLOCK_ENTRIES", entries)
            got = trainer.predict_multi(handles, probes)
        np.testing.assert_array_equal(got, want)

    @given(n=st.integers(1, 150), x_levels=st.integers(0, 6), depth=st.integers(1, 6),
           leaf=st.integers(1, 3), calls=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           entries=st.sampled_from([1, 50, 2 ** 12]), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_one_d_steps_match_recursive_routing(self, n, x_levels, depth, leaf, calls, entries,
                                                 seed):
        # 1-d handles predict from sorted leaf edges.  The recursive grower's
        # routing is the reference, bit for bit, on the points routing
        # treats specially: NaN (right at every node), -inf, +inf, -0.0,
        # every threshold and its float neighbours, and duplicated training
        # points.  Each call's first column is 0 but for one -5e-324, too
        # small to split on, so its tree is one leaf whose value (for
        # n >= 2) is -0.0, which both paths keep.  Handles come from several
        # calls, shuffled, and are cut in chunks under an entry budget of
        # `entries`.
        rng = np.random.default_rng(seed)
        xs = (rng.integers(0, x_levels + 2, size=(n, 1)) / (x_levels + 1) if x_levels
              else rng.uniform(0, 1, size=(n, 1)))
        spec = TreeSpec(max_depth=depth, min_samples_leaf=leaf)
        trainer = tree_trainer(spec)
        handles, refs, thresholds = [], [], []
        for cols in calls:
            Y = rng.normal(size=(n, cols))
            Y[:, 0] = 0.0
            Y[0, 0] = -5e-324
            fitted = trainer.fit_multi(xs, Y, list(range(cols)))
            trees = fitted[0].fill.trees
            thresholds.append(trees.threshold[trees.left != np.arange(trees.left.size)])
            handles += fitted
            refs += [reference_tree(xs, Y[:, c], spec)[0] for c in range(cols)]
        assert all(f.fill.steps is not None for f in handles)
        thr = np.concatenate(thresholds)
        probes = np.concatenate([xs[:, 0], thr, np.nextafter(thr, -np.inf),
                                 np.nextafter(thr, np.inf),
                                 [np.nan, -np.inf, np.inf, -0.0, 0.0, np.nan]])
        probes = rng.permutation(probes)[:, None]
        shuffle = rng.permutation(len(handles))
        handles = [handles[i] for i in shuffle]
        want = np.stack([refs[i](probes) for i in shuffle])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trainers, "_LEVEL_BLOCK_ENTRIES", entries)
            got = trainer.predict_multi(handles, probes)
            none = trainer.predict_multi(handles, probes[:0])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        assert none.shape == (len(handles), 0)
        assert handles[0].predict(probes[:0]).shape == (0,)

    @pytest.mark.parametrize("d", [1, 3])
    def test_zero_points_predict_empty_rows(self, d):
        # Both prediction paths give one empty row per handle on no points.
        rng = np.random.default_rng(d)
        trainer = tree_trainer(TreeSpec(max_depth=3))
        handles = trainer.fit_multi(rng.uniform(0, 1, size=(40, d)), rng.normal(size=(40, 4)),
                                    [0, 1, 2, 3])
        assert (handles[0].fill.steps is None) == (d > 1)
        assert trainer.predict_multi(handles[::-1], np.empty((0, d))).shape == (4, 0)

    def test_one_d_prediction_memory_bounded(self):
        # Beyond its output, a 1-d prediction holds the points' order, rank
        # and sorted copy, and per chunk one tree's runs or the entry
        # budget's worth: well under the output's size, which one (root x
        # point) temporary alone would reach.
        rng = np.random.default_rng(1)
        n, m, cols = 2000, 50, 40
        xs = rng.uniform(0, 1, size=(n, 1))
        rows = np.stack([np.sort(rng.choice(n, m, replace=False)) for _ in range(cols)])
        trainer = tree_trainer(TreeSpec(max_depth=4))
        handles = trainer.fit_multi(xs, rng.normal(size=(m, cols)), list(range(cols)), rows)
        got, peak = traced_peak(trainer.predict_multi, handles, xs)
        assert peak - got.nbytes < got.nbytes / 2

    @given(n=st.integers(1, 200), x_levels=st.integers(0, 6), depth=st.integers(1, 8),
           leaf=st.integers(1, 3), cols=st.integers(1, 3), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_one_d_thresholds_lie_inside_their_node(self, n, x_levels, depth, leaf, cols, seed):
        # The invariant the 1-d path rests on: every threshold lies strictly
        # inside its node's (lo, hi] interval, so each tree's leaves tile the
        # line in order.  Walked recursively from the flat node arrays, the
        # leaves and their upper edges are the ones `_leaf_steps` lists, and
        # the edges increase, the last one NaN.
        rng = np.random.default_rng(seed)
        xs = (rng.integers(0, x_levels + 2, size=(n, 1)) / (x_levels + 1) if x_levels
              else rng.uniform(0, 1, size=(n, 1)))
        fill = tree_trainer(TreeSpec(max_depth=depth, min_samples_leaf=leaf)).fit_multi(
            xs, rng.normal(size=(n, cols)), list(range(cols)))[0].fill
        trees, steps = fill.trees, fill.steps

        def walk(node, lo, hi):
            if trees.left[node] == node:
                return [(trees.value[node], hi)]
            thr = trees.threshold[node]
            assert trees.feature[node] == 0 and lo < thr < hi
            return walk(trees.left[node], lo, thr) + walk(trees.right[node], thr, hi)

        for g in range(cols):
            leaves = walk(g, -np.inf, np.inf)
            edges = steps.edge[steps.start[g]:steps.start[g + 1]]
            np.testing.assert_array_equal(steps.value[steps.start[g]:steps.start[g + 1]],
                                          [value for value, _ in leaves])
            np.testing.assert_array_equal(edges[:-1], [hi for _, hi in leaves[:-1]])
            assert np.all(np.diff(edges[:-1]) > 0) and np.isnan(edges[-1])

    def test_size_blocks_respect_budget(self, monkeypatch):
        monkeypatch.setattr(trainers, "_LEVEL_BLOCK_ENTRIES", 100)
        sizes = np.array([40, 3, 60, 3, 200, 10, 10, 3])
        blocks = list(trainers._size_blocks(np.arange(sizes.size), sizes))
        assert sorted(np.concatenate(blocks).tolist()) == list(range(sizes.size))
        for block in blocks:
            assert block.size == 1 or block.size * sizes[block].max() <= 100
        assert [sizes[b].tolist() for b in blocks] == [[3, 3, 3, 10, 10], [40], [60], [200]]


class TestBatchedPrediction:
    def test_mixed_handles_keep_row_order(self):
        # Primal handles at two N, kernel handles and a foreign handle, with
        # one group's rows apart: groups predict together, the foreign handle
        # through its own predict, and every row lands in its place.
        rng = np.random.default_rng(21)
        xs = rng.uniform(0, 1, size=(40, 1))
        few = rng.uniform(0, 1, size=(8, 1))
        primal3 = fourier_ridge_trainer(FourierRidgeSpec(N=3)).fit_multi(
            xs, rng.normal(size=(40, 2)), [0, 1])
        primal4 = fourier_ridge_trainer(FourierRidgeSpec(N=4)).fit_multi(
            xs, rng.normal(size=(40, 2)), [0, 1])
        kernel = fourier_ridge_trainer(FourierRidgeSpec(N=6, lam=1e-3)).fit_multi(
            few, rng.normal(size=(8, 2)), [0, 1])
        assert all("dual_coefficients" in f.meta for f in kernel)
        foreign = PredictorHandle(lambda pts: np.cos(pts[:, 0]))
        handles = [primal3[0], kernel[1], foreign, primal4[0], primal3[1], kernel[0], primal4[1]]
        trainer = fourier_ridge_trainer(FourierRidgeSpec())
        for pts in (few, rng.uniform(0, 1, size=(50, 1))):
            vals = trainer.predict_multi(handles, pts)
            for row, f in zip(vals, handles):
                want = f.predict(pts)
                assert np.max(np.abs(row - want)) <= 1e-13 * np.max(np.abs(want))
            np.testing.assert_array_equal(vals[2], np.cos(pts[:, 0]))

    def test_products_respect_budget(self, monkeypatch):
        # Every BLAS product of a batched prediction, primal or kernel, stays
        # within the budget, and tiling does not move the predictions
        # beyond rounding.
        rng = np.random.default_rng(22)
        xs = rng.uniform(0, 1, size=(40, 2))
        primal = fourier_ridge_trainer(FourierRidgeSpec(N=2)).fit_multi(   # p = 25
            xs, rng.normal(size=(40, 7)), list(range(7)))
        kernel = fourier_ridge_trainer(FourierRidgeSpec(N=3, lam=1e-3)).fit_multi(
            xs[:12], rng.normal(size=(12, 9)), list(range(9)))           # p = 49 > 12
        probes = rng.uniform(0, 1, size=(300, 2))
        trainer = fourier_ridge_trainer(FourierRidgeSpec())
        want = [trainer.predict_multi(group, probes) for group in (primal, kernel)]

        budget, products = 600, []
        matmul = np.matmul

        def recording(a, b, **kwargs):
            products.append(a.size * (b.shape[1] if b.ndim == 2 else 1))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(trainers, "_PRODUCT_BUDGET", budget)
        monkeypatch.setattr(np, "matmul", recording)
        for group, expected in zip((primal, kernel), want):
            products.clear()
            clear_memo(monkeypatch)
            got = trainer.predict_multi(group, probes)
            assert len(products) > 10 and max(products) <= budget
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


class TestRegistry:
    def test_names(self):
        for name in ("fourier_ridge", "mlp", "tree"):
            oracle = make_trainer(name, {})
            assert oracle.name == name

    def test_unknown(self):
        with pytest.raises(TrainerError):
            make_trainer("boost", {})

    def test_params_forwarded(self):
        oracle = make_trainer("fourier_ridge", {"N": 3, "lam": 0.0})
        ds = uniform_dataset(30, fn=lambda xs: np.cos(2 * np.pi * xs[:, 0]))
        f = oracle.fit(ds, 0)
        assert f.meta["N"] == 3

    def test_only_fourier_ridge_declares_a_linear_smoother(self):
        # A tree's leaf means and an MLP's weights are not linear in y.
        assert make_trainer("fourier_ridge", {}).linear_smoother
        assert not make_trainer("tree", {}).linear_smoother
        assert not make_trainer("mlp", {}).linear_smoother

    def test_seed_isolation_deterministic_trainers(self):
        # Seeds only matter for stochastic trainers; ridge and single trees
        # ignore them.
        ds, _ = generate(ExperimentSpec(id="exp1", n=120, seed=0))
        probe = np.random.default_rng(3).uniform(0, 1, size=(50, 1))
        ridge = make_trainer("fourier_ridge", {"N": 6, "lam": 1e-6})
        np.testing.assert_array_equal(ridge.fit(ds, 0).predict(probe),
                                      ridge.fit(ds, 1).predict(probe))
        tree = make_trainer("tree", {"max_depth": 4})
        np.testing.assert_array_equal(tree.fit(ds, 0).predict(probe),
                                      tree.fit(ds, 1).predict(probe))
