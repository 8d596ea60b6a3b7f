import numpy as np
import pytest
from scipy import stats

from wildriff.core import ConfigError, PredictorHandle
from wildriff.synth import (
    EXPERIMENT_IDS,
    ExperimentSpec,
    empirical_excess_risk,
    generate,
    population_excess_risk,
)


class TestGenerate:
    @pytest.mark.parametrize("exp_id", EXPERIMENT_IDS)
    def test_unit_cube_and_shapes(self, exp_id):
        ds, truth = generate(ExperimentSpec(id=exp_id, n=200, seed=1))
        assert ds.n == 200
        assert ds.xs.min() >= 0.0 and ds.xs.max() <= 1.0
        assert np.all(np.isfinite(ds.ys))

    def test_dimensions(self):
        assert generate(ExperimentSpec(id="exp1", n=10, seed=0))[0].d == 1
        assert generate(ExperimentSpec(id="exp2", n=10, seed=0))[0].d == 1
        assert generate(ExperimentSpec(id="exp3", n=10, seed=0))[0].d == 5
        assert generate(ExperimentSpec(id="exp4", n=10, seed=0))[0].d == 5

    def test_reproducible(self):
        a, _ = generate(ExperimentSpec(id="exp3", n=100, seed=9))
        b, _ = generate(ExperimentSpec(id="exp3", n=100, seed=9))
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)

    @pytest.mark.parametrize("noise_scale", [float("nan"), float("inf"), True, "0.1"])
    def test_noise_scale_must_be_finite_number(self, noise_scale):
        with pytest.raises(ConfigError, match="noise_scale"):
            ExperimentSpec(id="exp1", n=10, noise_scale=noise_scale)

    def test_exp2_noiseless_levels(self):
        ds, _ = generate(ExperimentSpec(id="exp2", n=500, seed=3, noise_scale=0.0))
        assert set(np.unique(ds.ys)) <= {0.0, 1.0, 2.0}
        x = ds.xs[:, 0]
        expected = (x >= 0.33).astype(float) + (x >= 0.66).astype(float)
        np.testing.assert_array_equal(ds.ys, expected)

    def test_exp1_mean_response_near_zero(self):
        ds, _ = generate(ExperimentSpec(id="exp1", n=100_000, seed=2))
        assert abs(float(np.mean(ds.ys))) <= 0.01

    def test_exp4_heavy_tails(self):
        ds, truth = generate(ExperimentSpec(id="exp4", n=100_000, seed=4))
        w = ds.ys - truth.fstar.predict(ds.xs)
        assert stats.kurtosis(w, fisher=True) > 3.0

    def test_coordinate_map_round_trip(self):
        _, truth = generate(ExperimentSpec(id="exp3", n=50, seed=0))
        orig = np.random.default_rng(0).uniform(-1, 1, size=(100, 5))
        back = truth.to_original(truth.to_unit(orig))
        np.testing.assert_allclose(back, orig, atol=1e-12)

    def test_noise_independent_of_covariates(self):
        ds, truth = generate(ExperimentSpec(id="exp3", n=100_000, seed=6))
        w = ds.ys - truth.fstar.predict(ds.xs)
        for j in range(5):
            corr = np.corrcoef(w, ds.xs[:, j])[0, 1]
            assert abs(corr) <= 0.02

    def test_fstar_deterministic(self):
        _, truth = generate(ExperimentSpec(id="exp4", n=10, seed=0))
        xs = np.random.default_rng(1).uniform(0, 1, size=(20, 5))
        np.testing.assert_array_equal(truth.fstar.predict(xs), truth.fstar.predict(xs))


class TestExcessRisk:
    def test_truth_scores_zero(self):
        ds, truth = generate(ExperimentSpec(id="exp1", n=100, seed=0))
        assert empirical_excess_risk(truth.fstar, truth, ds.xs) == 0.0

    def test_constant_offset(self):
        ds, truth = generate(ExperimentSpec(id="exp1", n=100, seed=0))
        shifted = PredictorHandle(lambda xs: truth.fstar.predict(xs) + 0.7, name="shifted")
        assert empirical_excess_risk(shifted, truth, ds.xs) == pytest.approx(0.49, rel=1e-12)

    def test_exp1_ridge_fit_window(self):
        from wildriff.trainers import FourierRidgeSpec, fourier_ridge_fit
        vals = []
        for seed in range(5):
            ds, truth = generate(ExperimentSpec(id="exp1", n=1000, seed=seed))
            f = fourier_ridge_fit(ds, FourierRidgeSpec(N=8, lam=1e-6))
            vals.append(empirical_excess_risk(f, truth, ds.xs))
        assert all(0.0 < v < 0.04 for v in vals)


class TestPopulationExcessRisk:
    def test_truth_zero(self):
        _, truth = generate(ExperimentSpec(id="exp1", n=10, seed=0))
        out = population_excess_risk(truth.fstar, truth, n_mc=500, seed=1)
        assert out["estimate"] == 0.0 and out["stderr"] == 0.0

    def test_constant_offset_zero_variance(self):
        _, truth = generate(ExperimentSpec(id="exp2", n=10, seed=0))
        shifted = PredictorHandle(lambda xs: truth.fstar.predict(xs) + 0.3, name="shifted")
        out = population_excess_risk(shifted, truth, n_mc=500, seed=1)
        assert out["estimate"] == pytest.approx(0.09, rel=1e-12)
        assert out["stderr"] == pytest.approx(0.0, abs=1e-15)

    def test_self_consistency_across_sample_sizes(self):
        from wildriff.trainers import FourierRidgeSpec, fourier_ridge_fit
        ds, truth = generate(ExperimentSpec(id="exp1", n=400, seed=7))
        f = fourier_ridge_fit(ds, FourierRidgeSpec(N=8, lam=1e-6))
        small = population_excess_risk(f, truth, n_mc=2000, seed=11)
        large = population_excess_risk(f, truth, n_mc=20000, seed=12)
        gap = abs(small["estimate"] - large["estimate"])
        combined = np.hypot(small["stderr"], large["stderr"])
        assert gap <= 3 * combined

    def test_n_mc_validation(self):
        _, truth = generate(ExperimentSpec(id="exp1", n=10, seed=0))
        with pytest.raises(ValueError):
            population_excess_risk(truth.fstar, truth, n_mc=1)
