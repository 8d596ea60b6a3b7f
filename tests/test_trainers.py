import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wildriff.trainers as trainers
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
    _memoized,
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


def untiled_kernel(psi_a, psi_b):
    """The Dirichlet kernel as one full-size product per coordinate: the
    reference for the tiled build."""
    gram = psi_a[0] @ psi_b[0].T
    for j in range(1, psi_a.shape[0]):
        gram *= psi_a[j] @ psi_b[j].T
    gram += 1.0
    gram *= 0.5
    return gram


def uniform_dataset(n, d=1, seed=0, fn=None, noise=0.0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0, 1, size=(n, d))
    ys = np.zeros(n) if fn is None else fn(xs)
    if noise:
        ys = ys + rng.normal(0, noise, size=n)
    return RegressionDataset(xs, ys)


# The depth-first recursive CART grower that the level-wise one replaced,
# kept as the reference it must match bit for bit at feature_fraction = 1.

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
    """(predict, n_leaves) of the recursive grower; feature_fraction = 1 only."""
    roots = [_ref_grow(xs, ys, 0, spec) for _ in range(spec.n_trees)]

    def predict(pts):
        acc = np.zeros(pts.shape[0])
        for root in roots:
            out = np.empty(pts.shape[0])
            _ref_predict(root, pts, out, np.arange(pts.shape[0]))
            acc += out
        return acc / len(roots)

    return predict, sum(_ref_leaves(r) for r in roots)


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
        # The full-data features are built for the warm-up fit and once for
        # the candidates: refits predict on the full data or on their own
        # training points, which read their fitted values, so tuned mode's
        # second candidate block finds the features still in the memo.
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
            monkeypatch.setattr(trainers, "_design_memo", None)
            evaluate(ds, trainer, cfg)
            return kernels.count((ds.n, ds.n)), features.count(ds.n)

        cfg = EvaluationConfig(K=3, rho_grid=(0.5, 1.0), seed=6)
        assert count_builds(cfg) == (1, 2)
        cfg = EvaluationConfig(K=4, K1=2, rho_mode="tuned", seed=6)
        assert count_builds(cfg) == (1, 2)

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

    def test_feature_cap(self):
        # The cap guards the explicit design, which lam = 0 still builds.
        ds = uniform_dataset(10, d=5)
        with pytest.raises(TrainerError):
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

    def test_design_memo_keyed_by_values(self):
        xs = np.random.default_rng(3).uniform(0, 1, size=(50, 1))
        freqs = _half_space_frequencies(4, 1)
        design = _memoized(_build_design, freqs, xs)
        assert not design.flags.writeable
        frozen = np.array(xs)
        frozen.setflags(write=False)
        # Distinct arrays with equal values, writeable or not, share the design.
        assert _memoized(_build_design, freqs, np.array(xs)) is design
        assert _memoized(_build_design, freqs, frozen) is design
        np.testing.assert_array_equal(design, _build_design(xs, freqs))
        changed = np.array(xs)
        changed[7, 0] = 0.5
        miss = _memoized(_build_design, freqs, changed)
        assert miss is not design
        np.testing.assert_array_equal(miss, _build_design(changed, freqs))
        assert _memoized(_build_design, freqs, xs[:-1]) is not miss

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
            monkeypatch.setattr(trainers, "_design_memo", None)
            evaluate(ds, trainer, cfg)
            return builds.count(ds.n), len(builds)

        # One build per distinct covariate block: the warm-up fit and its
        # prediction share one, and each subsample's refits (every scale or
        # every tuning step, both directions) and their scoring share one.
        # Fixed-grid: every scale's full-data candidates share one more.
        cfg = EvaluationConfig(K=30, rho_grid=(0.1, 0.5, 1.0, 2.0, 5.0), seed=5)
        assert count_builds(cfg) == (2, cfg.K + 2)
        # Tuned: the warm-up rounds' candidates and the tuned rounds'
        # candidates are predicted apart, with tuning fits in between.
        cfg = EvaluationConfig(K=12, K1=4, rho_mode="tuned", seed=5)
        assert count_builds(cfg) == (3, cfg.K + 3)

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

    def test_gd_optimizer_runs(self):
        ds = uniform_dataset(60, seed=3, fn=lambda xs: xs[:, 0])
        f = mlp_fit(ds, MlpSpec(optimizer="gd", max_iter=200, learning_rate=0.05), seed=0)
        assert np.all(np.isfinite(f.predict(ds.xs)))

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

    def test_forest_averages(self):
        ds, _ = generate(ExperimentSpec(id="exp3", n=200, seed=1))
        f = tree_fit(ds, TreeSpec(max_depth=4, n_trees=4, feature_fraction=0.6), seed=3)
        assert np.all(np.isfinite(f.predict(ds.xs)))

    def test_prediction_totality(self):
        ds, _ = generate(ExperimentSpec(id="exp2", n=500, seed=0))
        f = tree_fit(ds, TreeSpec(max_depth=6))
        probes = np.random.default_rng(1).uniform(0, 1, size=(10_000, 1))
        assert np.all(np.isfinite(f.predict(probes)))

    @given(d=st.sampled_from([1, 5]), n=st.integers(1, 300), x_levels=st.integers(0, 6),
           y_levels=st.integers(0, 4), depth=st.integers(1, 7), leaf=st.integers(1, 4),
           n_trees=st.integers(1, 3), cols=st.integers(1, 4), seed=st.integers(0, 2**16))
    @settings(max_examples=120, deadline=None)
    def test_matches_recursive_grower(self, d, n, x_levels, y_levels, depth, leaf, n_trees,
                                      cols, seed):
        # Level by level and batched over columns, the trees are the
        # recursive grower's, bit for bit: ties in x (few levels) and in y
        # (few values), leaf minimums and averaged identical forest trees.
        rng = np.random.default_rng(seed)
        xs = (rng.integers(0, x_levels + 2, size=(n, d)) / (x_levels + 1) if x_levels
              else rng.uniform(0, 1, size=(n, d)))
        Y = (rng.integers(0, y_levels + 1, size=(n, cols)).astype(float) if y_levels
             else rng.normal(size=(n, cols)) * 10.0 ** rng.uniform(-3, 3))
        spec = TreeSpec(max_depth=depth, min_samples_leaf=leaf, n_trees=n_trees)
        probes = np.vstack([xs, rng.uniform(0, 1, size=(40, d))])
        batched = tree_trainer(spec).fit_multi(xs, Y, list(range(cols)))
        for c in range(cols):
            want, leaves = reference_tree(xs, Y[:, c], spec)
            single = tree_fit(RegressionDataset(xs, Y[:, c]), spec, seed=c)
            for f in (single, batched[c]):
                np.testing.assert_array_equal(f.predict(probes), want(probes))
                assert f.meta["n_leaves"] == leaves

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
           n_trees=st.integers(1, 3), calls=st.lists(st.integers(1, 4), min_size=1, max_size=3),
           entries=st.sampled_from([1, 5, 64, 2 ** 15]), seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_predict_multi_bit_identical_to_per_handle(self, d, n, depth, n_trees, calls,
                                                       entries, seed):
        # Handles of several fit_multi calls, shuffled: every root of one
        # call is routed at once, in point tiles of `entries`, and each row
        # equals the handle's own prediction bit for bit.
        rng = np.random.default_rng(seed)
        xs = rng.uniform(0, 1, size=(n, d))
        trainer = tree_trainer(TreeSpec(max_depth=depth, n_trees=n_trees))
        handles = [f for cols in calls for f in trainer.fit_multi(
            xs, rng.normal(size=(n, cols)), list(range(cols)))]
        handles = [handles[i] for i in rng.permutation(len(handles))]
        probes = np.vstack([xs, rng.uniform(0, 1, size=(30, d))])
        want = np.stack([f.predict(probes) for f in handles])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trainers, "_LEVEL_BLOCK_ENTRIES", entries)
            got = trainer.predict_multi(handles, probes)
        np.testing.assert_array_equal(got, want)

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
            monkeypatch.setattr(trainers, "_design_memo", None)
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
