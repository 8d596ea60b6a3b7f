import numpy as np
import pytest

from wildriff.core import PredictorHandle, RegressionDataset, derive_rng
from wildriff.sampling import Subsample, srswor
from wildriff.theory import (
    AliasingError,
    TruncationConditionError,
    TheoryError,
    decay_constant,
    fourier_coefficients,
    norm_equivalence_check,
)
from wildriff.trainers import FourierRidgeSpec, MlpSpec, fourier_ridge_fit, mlp_fit


def handle(fn, name="f"):
    return PredictorHandle(lambda xs: fn(xs[:, 0]), name=name)


class TestFourierCoefficients:
    def test_sine(self):
        prof = fourier_coefficients(handle(lambda x: np.sin(2 * np.pi * x)), N=4, grid_size=64)
        assert abs(prof.coefficient(1) - (-0.5j)) < 1e-12
        assert abs(prof.coefficient(-1) - 0.5j) < 1e-12
        for k in (-4, -3, -2, 0, 2, 3, 4):
            assert abs(prof.coefficient(k)) < 1e-12

    def test_constant(self):
        prof = fourier_coefficients(handle(lambda x: np.full_like(x, 2.7)), N=3, grid_size=32)
        assert abs(prof.coefficient(0) - 2.7) < 1e-12
        for k in (-3, -2, -1, 1, 2, 3):
            assert abs(prof.coefficient(k)) < 1e-12

    def test_round_trip_with_trained_ridge(self):
        rng = derive_rng(0, "theory-roundtrip")
        xs = rng.uniform(0, 1, size=(60, 1))
        ys = 0.3 + np.cos(2 * np.pi * xs[:, 0]) - 0.5 * np.sin(2 * np.pi * 3 * xs[:, 0])
        f = fourier_ridge_fit(RegressionDataset(xs, ys), FourierRidgeSpec(N=4, lam=0.0))
        prof = fourier_coefficients(f, N=4, grid_size=64)
        coef = f.meta["coefficients"]
        freqs = f.meta["frequencies"][:, 0]
        # stored real features: coef[0] constant, then cos block, then sin block
        n_freq = len(freqs)
        assert abs(prof.coefficient(0) - coef[0]) < 1e-10
        for i, k in enumerate(freqs):
            a = coef[1 + i]            # cos amplitude
            b = coef[1 + n_freq + i]   # sin amplitude
            expected = 0.5 * (a - 1j * b)
            assert abs(prof.coefficient(int(k)) - expected) < 1e-10

    def test_grid_too_small(self):
        with pytest.raises(AliasingError):
            fourier_coefficients(handle(np.sin), N=8, grid_size=30)

    def test_conjugate_symmetry(self):
        f = handle(lambda x: np.sin(2 * np.pi * x) + 0.2 * np.cos(2 * np.pi * 5 * x) + 1.0)
        prof = fourier_coefficients(f, N=6, grid_size=128)
        for k in range(1, 7):
            assert abs(prof.coefficient(-k) - np.conj(prof.coefficient(k))) < 1e-12

    def test_parseval_band_limited(self):
        f = handle(lambda x: 1.0 + np.sin(2 * np.pi * x) - 0.4 * np.cos(2 * np.pi * 4 * x))
        grid_size = 256
        prof = fourier_coefficients(f, N=8, grid_size=grid_size)
        grid = np.arange(grid_size)[:, None] / grid_size
        mean_square = float(np.mean(f.predict(grid) ** 2))
        power = float(np.sum(np.abs(prof.coefficients) ** 2))
        assert abs(power - mean_square) <= 0.01 * mean_square


class TestDecayConstant:
    def test_sine_v1(self):
        prof = fourier_coefficients(handle(lambda x: np.sin(2 * np.pi * x)), N=8, grid_size=64)
        assert decay_constant(prof, v=1.0) == pytest.approx(0.5, abs=1e-12)

    def test_zero_function(self):
        prof = fourier_coefficients(handle(lambda x: np.zeros_like(x)), N=5, grid_size=64)
        assert decay_constant(prof, v=2.0) == 0.0

    def test_bad_v(self):
        prof = fourier_coefficients(handle(np.sin), N=2, grid_size=16)
        with pytest.raises(TheoryError):
            decay_constant(prof, v=0.0)

    def test_relu_mlp_decay_bound(self):
        # Coefficient decay of a trained 1-d ReLU net against the product of
        # layer spectral norms, with safety factor 2.
        rng = derive_rng(3, "decay-mlp")
        xs = rng.uniform(0, 1, size=(200, 1))
        ys = np.sin(2 * np.pi * xs[:, 0]) + rng.normal(0, 0.1, size=200)
        net = mlp_fit(RegressionDataset(xs, ys), MlpSpec(widths=(16, 16), max_iter=300), seed=3)
        product = 1.0
        for w in net.meta["weights"]:
            product *= np.linalg.norm(w, 2)
        prof = fourier_coefficients(net, N=48, grid_size=400)
        m2 = decay_constant(prof, v=2.0)
        assert m2 <= 2.0 * product


class TestNormEquivalence:
    def _sub(self, n, m, seed=0):
        return srswor(n, m, "permutation", seed=seed)

    def test_zero_function_holds(self):
        n = 1000
        res = norm_equivalence_check(np.zeros(n), self._sub(n, 63), N=4, delta=0.05,
                                     beta=0.6, v=1.0, M_v=1.0)
        assert res.ratio == 0.0
        assert res.holds

    def test_full_subsample_ratio_one(self):
        n = 500
        h = np.sin(np.linspace(0, 7, n))
        sub = Subsample(indices=np.arange(n), n=n)
        res = norm_equivalence_check(h, sub, N=4, delta=0.05, beta=0.999, v=1.0, M_v=1.0)
        assert res.ratio == pytest.approx(1.0, rel=1e-12)

    def test_precondition_enforced(self):
        n = 100
        with pytest.raises(TruncationConditionError):
            norm_equivalence_check(np.ones(n), self._sub(n, 10), N=50, delta=0.05,
                                   beta=0.5, v=1.0, M_v=1.0)

    def test_cosine_coverage(self):
        # sqrt(2) cos(2 pi x) at moderate scale: the inequality holds in
        # almost every draw (claimed coverage is at least 90%).
        n, beta, delta = 10_000, 0.6, 0.05
        m = int(round(n ** beta))
        held = 0
        trials = 60
        rng = derive_rng(0, "ne-cosine")
        for i in range(trials):
            xs = rng.uniform(0, 1, size=n)
            h = np.sqrt(2.0) * np.cos(2 * np.pi * xs)
            sub = srswor(n, m, "permutation", derive_rng(0, "ne-cosine-sub", i))
            res = norm_equivalence_check(h, sub, N=18, delta=delta, beta=beta,
                                         v=1.0, M_v=1.0)
            held += int(res.holds)
        assert held / trials >= 0.98

    def test_bound_fields_consistent(self):
        n = 2000
        rng = derive_rng(1, "ne-fields")
        h = rng.normal(size=n)
        res = norm_equivalence_check(h, self._sub(n, 95, seed=2), N=6, delta=0.1,
                                     beta=0.6, v=1.0, M_v=0.5)
        norm_d_sq = float(np.mean(h ** 2))
        assert res.bound == pytest.approx(res.rhs / norm_d_sq, rel=1e-12)
        assert res.holds == (res.ratio <= res.bound)
