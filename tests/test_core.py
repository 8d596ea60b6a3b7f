import dataclasses

import numpy as np
import pytest

from wildriff.core import (
    EmptyInputError,
    ConfigError,
    EvaluationConfig,
    BadConfigError,
    InvalidDataError,
    NonFiniteDataError,
    PredictorHandle,
    RegressionDataset,
    TrainerFailedError,
    TrainerOracle,
    derive_rng,
    estimate_tau,
    warm_up,
)
from wildriff.synth import ExperimentSpec, generate
from wildriff.trainers import make_trainer


def constant_trainer(c=0.0):
    return TrainerOracle(
        name="const",
        fit_fn=lambda ds, seed: PredictorHandle(lambda xs: np.full(xs.shape[0], c), name="const"),
    )


def mean_trainer():
    return TrainerOracle(
        name="mean",
        fit_fn=lambda ds, seed: PredictorHandle(
            lambda xs, mu=float(ds.ys.mean()): np.full(xs.shape[0], mu), name="mean"),
    )


class TestRegressionDataset:
    def test_shapes_and_properties(self):
        ds = RegressionDataset(np.array([[0.1], [0.9]]), np.array([1.0, 2.0]))
        assert ds.n == 2 and ds.d == 1

    def test_rejects_out_of_cube(self):
        # Bad input data is a config error (CLI exit 2), not a failed run.
        with pytest.raises(InvalidDataError):
            RegressionDataset(np.array([[1.5]]), np.array([0.0]))
        assert issubclass(InvalidDataError, ConfigError)

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidDataError):
            RegressionDataset(np.array([[0.5], [0.25]]), np.array([0.0]))

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteDataError):
            RegressionDataset(np.array([[0.5]]), np.array([np.nan]))

    def test_immutable(self):
        ds = RegressionDataset(np.array([[0.5]]), np.array([1.0]))
        with pytest.raises(ValueError):
            ds.xs[0, 0] = 0.2

    def test_copies_writeable_views_and_other_dtypes(self):
        base = np.random.default_rng(1).uniform(0, 1, size=(6, 2))
        view = base[::2]
        view.setflags(write=False)
        halves = np.full((3, 2), 0.5, dtype=np.float32)
        halves.setflags(write=False)
        # A read-only float64 array that owns its data is copied too.
        owning = np.random.default_rng(0).uniform(0, 1, size=(6, 2))
        owning.setflags(write=False)
        for xs in (base, view, halves, owning):
            ys = np.zeros(xs.shape[0])
            ys.setflags(write=False)
            ds = RegressionDataset(xs, ys)
            assert ds.xs is not xs and ds.ys is not ys
            assert ds.xs.dtype == np.float64 and ds.xs.base is None
            assert not ds.xs.flags.writeable and not ds.ys.flags.writeable
            np.testing.assert_array_equal(ds.xs, xs)
        assert RegressionDataset(ds.xs, ds.ys).xs is not ds.xs
        # The caller's writeable input stays writeable and detached.
        ds = RegressionDataset(base, np.zeros(6))
        assert base.flags.writeable
        base[0, 0] = 0.25
        assert ds.xs[0, 0] != 0.25


class TestWarmUp:
    def test_zero_residuals_when_ys_match_pilot(self):
        ds = RegressionDataset(np.linspace(0, 1, 8)[:, None], np.full(8, 3.0))
        state = warm_up(ds, constant_trainer(3.0), seed=0)
        assert np.all(state.residuals == 0.0)

    def test_determinism(self):
        ds = RegressionDataset(np.linspace(0, 1, 8)[:, None], np.arange(8.0))
        s1 = warm_up(ds, mean_trainer(), seed=7)
        s2 = warm_up(ds, mean_trainer(), seed=7)
        assert np.array_equal(s1.signs, s2.signs)
        assert np.array_equal(s1.residuals, s2.residuals)

    def test_pilot_default_is_trained_predictor(self):
        ds = RegressionDataset(np.linspace(0, 1, 10)[:, None], np.sin(np.arange(10.0)))
        state = warm_up(ds, mean_trainer(), seed=1)
        assert state.pilot_f is state.breve_f
        assert state.pilot_vals is state.breve_vals
        np.testing.assert_allclose(state.residuals, ds.ys - state.breve_vals)

    def test_explicit_pilot_drives_residuals(self):
        ds = RegressionDataset(np.linspace(0, 1, 10)[:, None], np.arange(10.0))
        pilot = PredictorHandle(lambda xs: np.zeros(xs.shape[0]), name="zero")
        state = warm_up(ds, mean_trainer(), pilot=pilot, seed=1)
        np.testing.assert_allclose(state.residuals, ds.ys)
        assert np.all(state.pilot_vals == 0.0)
        assert not state.pilot_vals.flags.writeable

    def test_trainer_failure_propagates(self):
        def boom(ds, seed):
            raise RuntimeError("nope")

        oracle = TrainerOracle(name="boom", fit_fn=boom)
        ds = RegressionDataset(np.array([[0.5]]), np.array([1.0]))
        with pytest.raises(TrainerFailedError):
            warm_up(ds, oracle, seed=0)

    def test_exp1_residual_scale(self):
        # Residual magnitude tracks the generator noise level sigma = 0.2.
        trainer = make_trainer("fourier_ridge", {"N": 8, "lam": 1e-6})
        means = []
        for seed in range(5):
            ds, _ = generate(ExperimentSpec(id="exp1", n=500, seed=seed))
            state = warm_up(ds, trainer, seed=seed)
            means.append(np.mean(np.abs(state.residuals)))
        assert all(0.1 <= m <= 0.3 for m in means)


class TestFitMulti:
    def data(self, n=20, c=3):
        rng = np.random.default_rng(7)
        return rng.uniform(0, 1, size=(n, 1)), rng.normal(size=(n, c))

    def test_default_loop_equals_per_column_fits(self):
        xs, Y = self.data()
        probe = np.linspace(0, 1, 11)[:, None]
        # fourier_ridge solves its columns together, which rounds
        # differently (test_trainers checks it to a tolerance).
        for name in ("mlp", "tree"):
            trainer = make_trainer(name, {"max_iter": 20} if name == "mlp" else {})
            handles = trainer.fit_multi(xs, Y, [4, 5, 6])
            assert len(handles) == 3
            for y, seed, f in zip(Y.T, [4, 5, 6], handles):
                g = trainer.fit(RegressionDataset(xs, y), seed)
                np.testing.assert_array_equal(f.predict(probe), g.predict(probe))
                assert f.meta.get("n_leaves") == g.meta.get("n_leaves")

    def test_default_loop_calls_fit_per_column(self):
        calls = []

        def fit(ds, seed):
            calls.append((ds.ys.tolist(), seed))
            return PredictorHandle(lambda xs: np.zeros(xs.shape[0]))

        xs, Y = self.data(c=2)
        TrainerOracle(name="rec", fit_fn=fit).fit_multi(xs, Y, [8, 9])
        assert calls == [(Y[:, 0].tolist(), 8), (Y[:, 1].tolist(), 9)]

    def test_foreign_exception_wrapped(self):
        def boom(xs, Y, seeds):
            raise RuntimeError("nope")

        oracle = TrainerOracle(name="boom", fit_fn=constant_trainer().fit_fn, fit_multi_fn=boom)
        xs, Y = self.data()
        with pytest.raises(TrainerFailedError, match="nope"):
            oracle.fit_multi(xs, Y, [0, 1, 2])

    def test_wrong_length_rejected(self):
        one = constant_trainer().fit_fn(None, 0)
        oracle = TrainerOracle(name="short", fit_fn=constant_trainer().fit_fn,
                               fit_multi_fn=lambda xs, Y, seeds: [one] * (len(seeds) - 1))
        xs, Y = self.data()
        with pytest.raises(TrainerFailedError, match="2 predictors for 3"):
            oracle.fit_multi(xs, Y, [0, 1, 2])

    @pytest.mark.parametrize("batched", [False, True])
    def test_input_checks(self, batched):
        trainer = make_trainer("tree" if batched else "mlp", {})
        assert (trainer.fit_multi_fn is not None) == batched
        xs, Y = self.data()
        bad = Y.copy()
        bad[3, 1] = np.inf
        with pytest.raises(NonFiniteDataError):
            trainer.fit_multi(xs, bad, [0, 1, 2])
        with pytest.raises(InvalidDataError):
            trainer.fit_multi(xs + 1.0, Y, [0, 1, 2])
        with pytest.raises(InvalidDataError):
            trainer.fit_multi(xs[:-1], Y, [0, 1, 2])
        with pytest.raises(InvalidDataError):
            trainer.fit_multi(xs, Y, [0, 1])
        with pytest.raises(EmptyInputError):
            trainer.fit_multi(xs[:0], Y[:0], [0, 1, 2])


class TestPredictMulti:
    def data(self, n=20, c=3):
        rng = np.random.default_rng(8)
        return rng.uniform(0, 1, size=(n, 1)), rng.normal(size=(n, c))

    def handles(self):
        # Four distinct predictors, each a plain black-box handle.
        return [PredictorHandle(lambda xs, a=a: a * xs[:, 0] + a, name=f"h{a}")
                for a in (1.0, -2.0, 0.5, 3.0)]

    def test_default_loop_equals_per_handle_predict(self):
        handles = self.handles()
        probe = np.linspace(0, 1, 9)
        vals = constant_trainer().predict_multi(handles[::-1], probe[:, None])
        assert vals.shape == (4, 9)
        for row, h in zip(vals, handles[::-1]):
            np.testing.assert_array_equal(row, h.predict(probe[:, None]))

    def test_foreign_exception_wrapped(self):
        def boom(xs):
            raise RuntimeError("nope")

        with pytest.raises(TrainerFailedError, match="'const' failed: nope"):
            constant_trainer().predict_multi([PredictorHandle(boom)], np.zeros((3, 1)))
        batched = TrainerOracle(name="boom", fit_fn=constant_trainer().fit_fn,
                                predict_multi_fn=lambda handles, xs: boom(xs))
        with pytest.raises(TrainerFailedError, match="nope"):
            batched.predict_multi(self.handles(), np.zeros((3, 1)))

    @pytest.mark.parametrize("shape", [(2, 5), (3, 4), (3,), (3, 5, 1)])
    def test_wrong_shape_rejected(self, shape):
        oracle = TrainerOracle(name="skewed", fit_fn=constant_trainer().fit_fn,
                               predict_multi_fn=lambda handles, xs: np.zeros(shape))
        with pytest.raises(TrainerFailedError, match=r"shape .* for 3 predictors on 5 points"):
            oracle.predict_multi(self.handles()[:3], np.zeros((5, 1)))

    @pytest.mark.parametrize("batched", [False, True])
    def test_dimension_mismatch(self, batched):
        xs, Y = self.data()
        trainer = make_trainer("tree", {})
        handles = trainer.fit_multi(xs, Y, [0, 1, 2])
        if not batched:
            trainer = dataclasses.replace(trainer, predict_multi_fn=None)
        with pytest.raises(InvalidDataError, match="dimension 2"):
            trainer.predict_multi(handles, np.full((4, 2), 0.5))

    @pytest.mark.parametrize("name", ["mlp", "tree"])
    def test_empty_handle_list(self, name):
        vals = make_trainer(name, {}).predict_multi([], np.zeros((6, 2)))
        assert vals.shape == (0, 6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("batched", [False, True])
    def test_non_finite_rejected(self, bad, batched):
        def fn(xs):
            out = xs[:, 0].copy()
            out[2] = bad
            return out

        handles = [*self.handles()[:2], PredictorHandle(fn)]
        oracle = TrainerOracle(
            name="holey", fit_fn=constant_trainer().fit_fn,
            predict_multi_fn=(lambda hs, xs: np.stack([h.predict(xs) for h in hs])) if batched
            else None)
        with pytest.raises(NonFiniteDataError, match="'holey' predicted non-finite"):
            oracle.predict_multi(handles, np.linspace(0, 1, 5)[:, None])


class TestSigns:
    def test_values_pm_one(self):
        ds = RegressionDataset(np.linspace(0, 1, 50)[:, None], np.zeros(50))
        state = warm_up(ds, constant_trainer(), seed=3)
        assert set(np.unique(state.signs)) <= {-1.0, 1.0}

    def test_sign_balance(self):
        # Per-position mean over many sign draws stays near zero.
        draws, length = 100_000, 100
        total = np.zeros(length)
        rng = derive_rng(0, "signs-balance")
        batch = rng.integers(0, 2, size=(draws, length)).astype(float) * 2.0 - 1.0
        total = batch.mean(axis=0)
        assert np.all(np.abs(total) <= 0.02)


class TestEstimateTau:
    def test_max_abs(self):
        assert estimate_tau(np.array([0.1, -0.3, 0.2])) == pytest.approx(0.3)

    def test_zeros(self):
        assert estimate_tau(np.zeros(5)) == 0.0

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            estimate_tau(np.array([]))

    def test_exp4_heavy_tail_scale(self):
        trainer = make_trainer("tree", {"max_depth": 5})
        vals = []
        for seed in range(3):
            ds, _ = generate(ExperimentSpec(id="exp4", n=2000, seed=seed))
            state = warm_up(ds, trainer, seed=seed)
            vals.append(estimate_tau(state.residuals))
        assert all(1.0 <= v <= 20.0 for v in vals)


class TestDeriveRng:
    def test_order_independence(self):
        a = derive_rng(5, "tag", 3).normal(size=4)
        _ = derive_rng(5, "other", 9).normal(size=4)
        b = derive_rng(5, "tag", 3).normal(size=4)
        assert np.array_equal(a, b)

    def test_tag_separation(self):
        a = derive_rng(5, "tag-a").normal(size=4)
        b = derive_rng(5, "tag-b").normal(size=4)
        assert not np.array_equal(a, b)


class TestEvaluationConfig:
    def test_defaults_valid(self):
        cfg = EvaluationConfig()
        assert cfg.subsample_size(1000) == 63

    def test_bad_beta(self):
        with pytest.raises(BadConfigError):
            EvaluationConfig(beta=1.0)

    def test_bad_rho(self):
        with pytest.raises(BadConfigError):
            EvaluationConfig(rho_grid=(0.0, 1.0))
        with pytest.raises(BadConfigError):
            EvaluationConfig(rho_grid=5)

    @pytest.mark.parametrize("v", [0.0, -1.0])
    def test_bad_v(self, v):
        with pytest.raises(BadConfigError, match="v must be positive"):
            EvaluationConfig(v=v)

    def test_bad_tune_max_iter(self):
        with pytest.raises(BadConfigError):
            EvaluationConfig(K=5, K1=1, rho_mode="tuned", tune_max_iter=0)

    @pytest.mark.parametrize("field", ["K", "K1", "tune_max_iter"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(BadConfigError, match=field):
            EvaluationConfig(**{"K": 5, field: value})
        assert getattr(EvaluationConfig(**{"K": 5, field: np.int64(3)}), field) == 3

    def test_bad_k1(self):
        with pytest.raises(BadConfigError):
            EvaluationConfig(K=5, K1=5)
        with pytest.raises(BadConfigError):
            EvaluationConfig(K=5, K1=0, rho_mode="tuned")

    def test_tau_string(self):
        with pytest.raises(BadConfigError):
            EvaluationConfig(tau="guess")

    def test_subsample_size_clamped(self):
        assert EvaluationConfig(beta=0.9).subsample_size(1) == 1
