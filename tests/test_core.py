import dataclasses

import numpy as np
import pytest

from wildriff.core import (
    BadParamError,
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
from wildriff.refit import evaluate
from wildriff.synth import ExperimentSpec, generate
from wildriff.trainers import FourierRidgeSpec, MlpSpec, TreeSpec, make_trainer


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
        def boom(xs, Y, seeds, rows):
            raise RuntimeError("nope")

        oracle = TrainerOracle(name="boom", fit_fn=constant_trainer().fit_fn, fit_multi_fn=boom)
        xs, Y = self.data()
        with pytest.raises(TrainerFailedError, match="nope"):
            oracle.fit_multi(xs, Y, [0, 1, 2])

    def test_wrong_length_rejected(self):
        one = constant_trainer().fit_fn(None, 0)
        oracle = TrainerOracle(name="short", fit_fn=constant_trainer().fit_fn,
                               fit_multi_fn=lambda xs, Y, seeds, rows: [one] * (len(seeds) - 1))
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


    def test_default_loop_fits_each_columns_rows(self):
        # Without fit_multi_fn, column c is fit on the points rows[c]: unsorted,
        # repeated, and different for every column.
        calls = []

        def fit(ds, seed):
            calls.append((ds.xs.tolist(), ds.ys.tolist(), seed))
            return PredictorHandle(lambda xs: np.zeros(xs.shape[0]))

        xs, _ = self.data(n=20)
        Y = np.random.default_rng(9).normal(size=(4, 3))
        rows = np.array([[5, 2, 19, 2], [0, 1, 2, 3], [7, 7, 7, 7]])
        TrainerOracle(name="rec", fit_fn=fit).fit_multi(xs, Y, [4, 5, 6], rows)
        assert calls == [(xs[r].tolist(), y.tolist(), s) for r, y, s in zip(rows, Y.T, [4, 5, 6])]

    def test_rows_default_to_every_point(self):
        seen = []

        def fit_multi(xs, Y, seeds, rows):
            seen.append(rows)
            return [constant_trainer().fit_fn(None, s) for s in seeds]

        oracle = TrainerOracle(name="rows", fit_fn=constant_trainer().fit_fn,
                               fit_multi_fn=fit_multi)
        xs, Y = self.data()
        oracle.fit_multi(xs, Y, [0, 1, 2])
        np.testing.assert_array_equal(seen[0], np.tile(np.arange(20), (3, 1)))

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("rows,match", [
        (np.zeros((4, 3), dtype=int), "shape"),           # transposed
        (np.zeros((3, 5), dtype=int), "shape"),           # one row too many per column
        (np.zeros((3, 4)), "integer"),                    # float indices
        (np.zeros((3, 4), dtype=bool), "integer"),
        (np.full((3, 4), 20), "index the 20"),             # past the last point
        (np.full((3, 4), -1), "index the 20"),
        ([[0, 1, 2, 3], [0, 1], [0, 1, 2, 3]], "integer array"),   # ragged
    ])
    def test_bad_rows_rejected(self, batched, rows, match):
        trainer = make_trainer("tree" if batched else "mlp", {})
        xs, _ = self.data(n=20)
        Y = np.zeros((4, 3))
        with pytest.raises(InvalidDataError, match=match):
            trainer.fit_multi(xs, Y, [0, 1, 2], rows)
        with pytest.raises(EmptyInputError):
            trainer.fit_multi(xs, Y[:0], [0, 1, 2], np.zeros((3, 0), dtype=int))


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

    def test_wrong_prediction_count_rejected(self):
        # A handle that returns one value for three points is a fault of the
        # predictor, not non-finite data, on its own and through predict_multi.
        short = PredictorHandle(lambda xs: np.zeros(1), name="short")
        with pytest.raises(TrainerFailedError, match="short: expected 3 predictions, got 1"):
            short.predict(np.zeros((3, 1)))
        with pytest.raises(TrainerFailedError, match="expected 3 predictions, got 1"):
            constant_trainer().predict_multi([short], np.zeros((3, 1)))

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


    def test_result_is_c_ordered(self):
        # A predict_multi_fn may return a Fortran-ordered block; the engine
        # reduces along rows and needs C order to match a one-row reduction.
        fortran = TrainerOracle(
            name="fortran", fit_fn=constant_trainer().fit_fn,
            predict_multi_fn=lambda hs, xs: np.asfortranarray(np.stack([h.predict(xs)
                                                                         for h in hs])))
        probe = np.linspace(0, 1, 7)[:, None]
        vals = fortran.predict_multi(self.handles(), probe)
        assert vals.flags.c_contiguous
        np.testing.assert_array_equal(vals, np.stack([h.predict(probe) for h in self.handles()]))


def moments_trainer(hook):
    """A constant trainer whose pair_moments_fn is ``hook``."""
    return dataclasses.replace(constant_trainer(), name="moments", pair_moments_fn=hook)


class TestPairMoments:
    def args(self, pairs=3, w=2, n=5):
        handles = [PredictorHandle(lambda xs, a=a: a * xs[:, 0]) for a in range(2 * pairs)]
        return handles[0], handles, np.linspace(0, 1, n)[:, None], np.ones((w, n))

    def test_unset_hook_gives_none(self):
        assert constant_trainer().pair_moments(*self.args()) is None

    def test_result_passes_through_as_arrays(self):
        seen = []

        def hook(base, handles, xs, weights):
            seen.append((base, handles, xs.shape, weights.shape))
            return [np.zeros((2, 3)), np.ones((2, 3)), [1.0, 2.0, 3.0], np.zeros(3), np.ones(3)]

        base, handles, xs, weights = self.args()
        moments = moments_trainer(hook).pair_moments(base, handles, xs, list(weights))
        assert [m.shape for m in moments] == [(2, 3), (2, 3), (3,), (3,), (3,)]
        np.testing.assert_array_equal(moments[2], [1.0, 2.0, 3.0])
        assert seen == [(base, handles, (5, 1), (2, 5))]

    @pytest.mark.parametrize("result", [
        [np.zeros((2, 3))] * 2 + [np.zeros(3)] * 2,           # four arrays
        [np.zeros((2, 3)), np.zeros((1, 3))] + [np.zeros(3)] * 3,
        [np.zeros((2, 3))] * 2 + [np.zeros(3), np.zeros(4), np.zeros(3)],
        [np.zeros((2, 3))] * 2 + [np.zeros((3, 1))] * 3,
        [[0.0, [1.0]]] * 5,                                  # ragged
        7.0,                                                 # not a sequence
    ])
    def test_wrong_shape_rejected(self, result):
        with pytest.raises(TrainerFailedError, match="'moments' returned pair moments"):
            moments_trainer(lambda *args: result).pair_moments(*self.args())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        result = [np.zeros((2, 3))] * 2 + [np.zeros(3), np.array([0.0, bad, 0.0]), np.zeros(3)]
        with pytest.raises(NonFiniteDataError, match="trainer 'moments' returned non-finite"):
            moments_trainer(lambda *args: result).pair_moments(*self.args())

    def test_foreign_exception_wrapped(self):
        def boom(*args):
            raise KeyError("nope")

        with pytest.raises(TrainerFailedError, match="'moments' failed: 'nope'"):
            moments_trainer(boom).pair_moments(*self.args())

    def test_odd_handle_count_rejected(self):
        base, handles, xs, weights = self.args()
        with pytest.raises(InvalidDataError, match="pairs"):
            moments_trainer(lambda *args: None).pair_moments(base, handles[:5], xs, weights)

    def test_declining_hook_matches_no_hook(self):
        # A hook that returns None leaves the engine on the predicted
        # moments: reports bit-identical to the trainer without a hook.
        ds, truth = generate(ExperimentSpec(id="exp1", n=300, seed=4))
        trainer = make_trainer("fourier_ridge", {"N": 6})
        calls = []
        declining = dataclasses.replace(
            trainer, pair_moments_fn=lambda *args: calls.append(len(args[1])))
        none = dataclasses.replace(trainer, pair_moments_fn=None)
        cfg = EvaluationConfig(K=4, rho_grid=(0.5, 2.0), seed=4)

        def numbers(reports):
            return [(vars(r) | {"rounds": [(rd.optimism, rd.norm_tilde, rd.norm_check)
                                           for rd in r.rounds], "config": None})
                    for r in reports]

        want = numbers(evaluate(ds, none, cfg, fstar=truth.fstar))
        assert numbers(evaluate(ds, declining, cfg, fstar=truth.fstar)) == want
        assert calls == [2 * cfg.K]
        # The built-in hook's moments round apart from the predicted ones,
        # so this comparison would see a hook that did not decline.
        assert numbers(evaluate(ds, trainer, cfg, fstar=truth.fstar)) != want


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

    @pytest.mark.parametrize("settings", [
        {"t": 3.0}, {"t": 2.0, "tau": 0.1}, {"t": 4.0, "tau": 1.0},
        {"w_under": 0.0}, {"w_under": -1.0}, {"w_bar": 0.5}, {"w_bar": 2.0, "w_under": 3.0},
    ], ids=["t_3", "t_below_3", "t_4tau", "w_under_zero", "w_under_negative",
            "w_bar_below_default_w_under", "w_bar_below_w_under"])
    def test_data_free_bound_settings_rejected(self, settings):
        # The radius and inflated-radius settings that need no data fail
        # when the config is built, as the bound-assembly error they raise
        # later; an estimated tau leaves only t > 3 to check here.
        with pytest.raises(BadParamError):
            EvaluationConfig(**settings)
        assert EvaluationConfig(t=3.5).t == 3.5
        assert EvaluationConfig(t=4.5, tau=1.0).t == 4.5

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


# Every integer setting: (the object built from one value, the field named
# in its error).
INTEGER_SETTINGS = {
    "EvaluationConfig.K": (lambda v: EvaluationConfig(K=v), "K"),
    "EvaluationConfig.K1": (lambda v: EvaluationConfig(K=5, K1=v), "K1"),
    "EvaluationConfig.tune_max_iter": (lambda v: EvaluationConfig(tune_max_iter=v),
                                       "tune_max_iter"),
    "EvaluationConfig.seed": (lambda v: EvaluationConfig(seed=v), "seed"),
    "FourierRidgeSpec.N": (lambda v: FourierRidgeSpec(N=v), "N"),
    "FourierRidgeSpec.max_features": (lambda v: FourierRidgeSpec(max_features=v),
                                      "max_features"),
    "MlpSpec.widths": (lambda v: MlpSpec(widths=(4, v)), "widths"),
    "MlpSpec.max_iter": (lambda v: MlpSpec(max_iter=v), "max_iter"),
    "TreeSpec.max_depth": (lambda v: TreeSpec(max_depth=v), "max_depth"),
    "TreeSpec.min_samples_leaf": (lambda v: TreeSpec(min_samples_leaf=v), "min_samples_leaf"),
    "ExperimentSpec.n": (lambda v: ExperimentSpec(id="exp1", n=v), "n"),
    "ExperimentSpec.seed": (lambda v: ExperimentSpec(id="exp1", n=10, seed=v), "seed"),
}


@pytest.mark.parametrize("value", [1.5, True, "3"])
@pytest.mark.parametrize("setting", INTEGER_SETTINGS)
def test_integer_settings_reject_non_integers(setting, value):
    build, field = INTEGER_SETTINGS[setting]
    with pytest.raises(ConfigError, match=rf"^{field}\b.* must be an integer"):
        build(value)
    build(np.int64(3))
