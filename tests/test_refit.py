import dataclasses
import math
import sys

import numpy as np
import pytest

import wildriff.refit as refit
from wildriff.core import (
    EvaluationConfig,
    NonFiniteDataError,
    PredictorHandle,
    RefitState,
    RegressionDataset,
    TrainerFailedError,
    TrainerOracle,
    derive_seed,
    estimate_tau,
    warm_up,
)
from wildriff.metrics import empirical_norm, wild_optimism
from wildriff.refit import (
    BadParamError,
    DecayRegimeError,
    NoBracketError,
    TuneError,
    candidate_block,
    deviation_term,
    estimate_radius,
    evaluate,
    evaluate_with_state,
    pilot_error_proxy,
    process_sup_proxy,
    r_tilde,
    run_round,
    tune_noise_scale,
)
from wildriff.sampling import srswor
from wildriff.synth import ExperimentSpec, generate
from wildriff.trainers import FourierRidgeSpec, fourier_ridge_trainer, make_trainer
from wildriff.verify import suite_radius

# Frozen high-precision evaluations of the closed forms (50-digit arithmetic).
DEVIATION_GOLDEN = 3.00427916404706527193941419546
R_TILDE_GOLDEN = 3.81614909175868756710081622475


def interpolating_trainer(N=12):
    return fourier_ridge_trainer(FourierRidgeSpec(N=N, lam=0.0))


def refit_block(state, ds, trainer, rounds):
    """Full-data block of the rounds' refits, scored from their values."""
    refits = [f for rd in rounds for f in (rd.tilde_f, rd.check_f)]
    return candidate_block(state, trainer.predict_multi(refits, ds.xs))


def counting(inner, n, m):
    """`inner` as a handle that counts its predictions on n and on m rows in
    ``meta["full_predicts"]`` and ``meta["sub_predicts"]``."""

    def fn(xs):
        if xs.shape[0] == n:
            handle.meta["full_predicts"] += 1
        if xs.shape[0] == m:
            handle.meta["sub_predicts"] += 1
        return inner.predict(xs)

    handle = PredictorHandle(fn, name=inner.name, meta={"full_predicts": 0, "sub_predicts": 0})
    return handle


def full_data_counting(trainer, n, m=None):
    """Copy of `trainer` whose handles count their predictions (see `counting`).

    Returns the trainer and its fitted handles in fit order.
    """
    handles = []

    def fit(ds, seed):
        handles.append(counting(trainer.fit_fn(ds, seed), n, m))
        return handles[-1]

    def fit_multi(xs, Y, seeds, rows):
        fits = [counting(f, n, m) for f in trainer.fit_multi_fn(xs, Y, seeds, rows)]
        handles.extend(fits)
        return fits

    return dataclasses.replace(
        trainer, fit_fn=fit, fit_multi_fn=fit_multi if trainer.fit_multi_fn else None), handles


def gain_trainer(gain):
    """Trainer that fits training responses y by gain(y) * y, and 0 elsewhere.

    When the warm-up fits zeros, the trained predictor is zero and a refit
    lands at gain(y) * rho * ||v|| on its subsample.
    """
    def fit(ds, seed):
        table = dict(zip(ds.xs[:, 0].tolist(), (gain(ds.ys) * ds.ys).tolist()))
        return PredictorHandle(lambda xs: np.array([table.get(x, 0.0) for x in xs[:, 0]]))

    return TrainerOracle(name="gain", fit_fn=fit)


def power_of_two_trainer():
    """Refits land at a power-of-2 distance.

    A fit to responses y with root-mean-square a returns y scaled to
    2**floor(log2 a), so the achieved refit norm doubles at every power of
    2 and skips the targets in between.
    """
    def gain(ys):
        a = empirical_norm(ys)
        return 2.0 ** math.floor(math.log2(a)) / a if a > 0 else 0.0

    return gain_trainer(gain)


def zero_residual_setup(n=24, seed=0):
    """Dataset whose exact-ERM fit interpolates, so residuals vanish."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0, 1, size=(n, 1))
    ys = rng.normal(size=n)
    ds = RegressionDataset(xs, ys)
    trainer = interpolating_trainer(N=max(1, (n + 1) // 2))
    state = warm_up(ds, trainer, seed=seed)
    assert np.max(np.abs(state.residuals)) < 1e-8
    return ds, trainer, state


class TestDeviationTerm:
    def test_golden_value(self):
        val = deviation_term(r=1.0, tau=0.2, delta=0.05, n=10000, K=30)
        assert val == pytest.approx(DEVIATION_GOLDEN, rel=1e-12)

    def test_zero_r(self):
        assert deviation_term(0.0, 0.5, 0.1, 100, 5) == 0.0

    def test_zero_tau(self):
        assert deviation_term(2.0, 0.0, 0.1, 100, 5) == 0.0

    def test_domain_errors(self):
        with pytest.raises(BadParamError):
            deviation_term(-1.0, 0.2, 0.05, 100, 5)
        with pytest.raises(BadParamError):
            deviation_term(1.0, 0.2, 1.5, 100, 5)
        with pytest.raises(BadParamError):
            deviation_term(1.0, 0.2, 0.05, 0, 5)

    def test_monotone_in_r_tau_inverse_delta(self):
        rs = np.linspace(0.0, 2.0, 5)
        taus = np.linspace(0.0, 1.0, 5)
        deltas = np.linspace(0.01, 0.5, 5)
        for tau in taus:
            for delta in deltas:
                vals = [deviation_term(r, tau, delta, 500, 10) for r in rs]
                assert np.all(np.diff(vals) >= 0)
        for r in rs:
            for delta in deltas:
                vals = [deviation_term(r, tau, delta, 500, 10) for tau in taus]
                assert np.all(np.diff(vals) >= 0)
        for r in rs:
            for tau in taus:
                vals = [deviation_term(r, tau, delta, 500, 10) for delta in deltas[::-1]]
                assert np.all(np.diff(vals) >= 0)  # nondecreasing in 1/delta


class TestRTilde:
    def test_golden_value(self):
        val = r_tilde(r=0.5, n=1000, beta=0.6, d=1, v=1.0, M_v=1.0, w_bar=1.0, w_under=1.0)
        assert val == pytest.approx(R_TILDE_GOLDEN, rel=1e-12)

    def test_no_decay_term(self):
        assert r_tilde(0.7, 1000, 0.6, 1, 1.0, 0.0) == pytest.approx(2.1, rel=1e-12)

    def test_zero(self):
        assert r_tilde(0.0, 1000, 0.6, 1, 1.0, 0.0) == 0.0

    def test_density_ratio_scales_main_term(self):
        val = r_tilde(1.0, 100, 0.5, 1, 1.0, 0.0, w_bar=4.0, w_under=1.0)
        assert val == pytest.approx(6.0, rel=1e-12)

    def test_decay_regime_error(self):
        with pytest.raises(DecayRegimeError):
            r_tilde(1.0, 1000, 0.6, 1, v=0.4, M_v=1.0)
        with pytest.raises(DecayRegimeError):
            r_tilde(1.0, 1000, 0.6, 5, v=2.0, M_v=1.0)

    def test_multivariate_formula(self):
        # d=2, v=2: decay = 4*M_v*sqrt(S_d/(2v-d)) * (log n)^(v-1) / n^((v-1)*beta/5)
        n, beta, d, v, m_v = 1000, 0.5, 2, 2.0, 1.5
        s_d = 2 * d * 3 ** (d - 1)
        expected = (3.0 * 1.0 + 4.0 * m_v * math.sqrt(s_d / (2 * v - d))
                    * math.log(n) ** (v - d / 2) / n ** ((v - d / 2) * beta / (2 * d + 1)))
        assert r_tilde(1.0, n, beta, d, v, m_v) == pytest.approx(expected, rel=1e-12)


class TestRunRound:
    def test_zero_residuals_give_zero_round(self):
        ds, trainer, state = zero_residual_setup()
        sub = srswor(ds.n, 8, "permutation", seed=1)
        rd = run_round(state, ds, trainer, sub, rho1=1.0, rho2=1.0, seed=0, k=0)
        assert abs(rd.optimism.opt_tilde) <= 1e-10
        assert abs(rd.optimism.opt_check) <= 1e-10
        assert rd.norm_tilde <= 1e-7
        assert rd.norm_check <= 1e-7

    def test_deterministic(self):
        ds, truth = generate(ExperimentSpec(id="exp1", n=200, seed=1))
        trainer = make_trainer("fourier_ridge", {"N": 6, "lam": 1e-6})
        state = warm_up(ds, trainer, seed=1)
        sub = srswor(ds.n, 24, "permutation", seed=5)
        a = run_round(state, ds, trainer, sub, 0.7, 1.3, seed=9, k=2)
        b = run_round(state, ds, trainer, sub, 0.7, 1.3, seed=9, k=2)
        assert a.optimism == b.optimism
        assert a.norm_tilde == b.norm_tilde and a.norm_check == b.norm_check

    def test_exp1_optimism_positive(self):
        # The refit moves toward the signed perturbation, so the optimism is
        # positive in nearly every round.
        ds, _ = generate(ExperimentSpec(id="exp1", n=500, seed=2))
        trainer = make_trainer("fourier_ridge", {"N": 8, "lam": 1e-6})
        state = warm_up(ds, trainer, seed=2)
        m = int(round(500 ** 0.6))
        positives = 0
        for k in range(100):
            sub = srswor(ds.n, m, "permutation", derive_seed(2, "subsample", k))
            rd = run_round(state, ds, trainer, sub, 1.0, 1.0, seed=2, k=k)
            positives += int(rd.optimism.opt_tilde > 0)
        assert positives >= 95

    def test_erm_refit_lower_bound(self):
        # Exact solvers satisfy opt >= ||refit - breve||^2 / (2 rho) on both
        # perturbation directions.
        ds, _ = generate(ExperimentSpec(id="exp1", n=300, seed=3))
        trainer = interpolating_trainer(N=8)
        state = warm_up(ds, trainer, seed=3)
        for k, rho in enumerate([0.2, 1.0, 4.0]):
            sub = srswor(ds.n, 30, "permutation", derive_seed(3, "subsample", k))
            rd = run_round(state, ds, trainer, sub, rho, rho, seed=3, k=k)
            assert rd.optimism.opt_tilde >= rd.norm_tilde ** 2 / (2 * rho) - 1e-8
            assert rd.optimism.opt_check >= rd.norm_check ** 2 / (2 * rho) - 1e-8


class TestTuneNoiseScale:
    def test_interpolating_ridge_analytic_rho(self):
        # Interpolating refits satisfy ||f_rho - breve||_S = rho * ||v||_S.
        ds, _ = generate(ExperimentSpec(id="exp1", n=120, seed=4))
        trainer = interpolating_trainer(N=12)
        state = warm_up(ds, trainer, seed=4)
        sub = srswor(ds.n, 18, "permutation", seed=2)
        target = 0.5
        result = tune_noise_scale(state, ds, trainer, sub, target, "plus",
                                  tol_rel=0.01, max_iter=30, seed=0)
        rho_star = target / empirical_norm(state.residuals[sub.indices])
        assert result.rho == pytest.approx(rho_star, rel=1e-6)
        assert result.achieved_norm == pytest.approx(target, rel=0.01)
        assert result.converged

    def test_bracketing_with_penalized_trainer(self):
        ds, _ = generate(ExperimentSpec(id="exp1", n=200, seed=5))
        trainer = make_trainer("fourier_ridge", {"N": 8, "lam": 0.05})
        state = warm_up(ds, trainer, seed=5)
        sub = srswor(ds.n, 25, "permutation", seed=3)
        target = 0.4
        result = tune_noise_scale(state, ds, trainer, sub, target, "plus",
                                  tol_rel=0.05, max_iter=40, seed=1)
        assert abs(result.achieved_norm - target) <= 0.05 * target
        assert result.converged

    @pytest.mark.parametrize("gain", [0.2, 5.0])
    def test_brackets_after_several_doublings_or_halvings(self, gain):
        # The first rho lands at gain * target: 0.2 needs three doublings to
        # pass the target, 5.0 three halvings to fall below it.
        rng = np.random.default_rng(3)
        ds = RegressionDataset(rng.uniform(0, 1, size=(60, 1)), np.zeros(60))
        pilot = PredictorHandle(lambda xs: 0.5 + np.sin(6.0 * xs[:, 0]))
        trainer = gain_trainer(lambda ys: gain)
        state = warm_up(ds, trainer, pilot, seed=0)
        sub = srswor(ds.n, 20, "permutation", seed=1)
        result = tune_noise_scale(state, ds, trainer, sub, 1.0, "plus",
                                  tol_rel=0.05, max_iter=40, seed=0)
        assert result.converged
        assert abs(result.achieved_norm - 1.0) <= 0.05
        assert result.iterations >= 1 + 3

    def test_minus_direction(self):
        ds, _ = generate(ExperimentSpec(id="exp1", n=120, seed=6))
        trainer = interpolating_trainer(N=12)
        state = warm_up(ds, trainer, seed=6)
        sub = srswor(ds.n, 18, "permutation", seed=4)
        result = tune_noise_scale(state, ds, trainer, sub, 0.3, "minus",
                                  tol_rel=0.02, max_iter=30, seed=0)
        assert abs(result.achieved_norm - 0.3) <= 0.02 * 0.3

    def test_no_bracket_for_saturating_class(self):
        # A clamped-constant trainer cannot reach distant targets.
        def fit(ds_, seed_):
            mu = float(np.clip(ds_.ys.mean(), -0.05, 0.05))
            return PredictorHandle(lambda xs: np.full(xs.shape[0], mu), name="clamped")

        trainer = TrainerOracle(name="clamped", fit_fn=fit)
        rng = np.random.default_rng(0)
        ds = RegressionDataset(rng.uniform(0, 1, (40, 1)), rng.normal(size=40))
        state = warm_up(ds, trainer, seed=0)
        sub = srswor(40, 10, "permutation", seed=0)
        with pytest.raises(NoBracketError):
            tune_noise_scale(state, ds, trainer, sub, target=50.0, direction="plus",
                             tol_rel=0.05, max_iter=25, seed=0)

    def test_all_zero_residuals_rejected(self):
        trainer = TrainerOracle(
            name="const",
            fit_fn=lambda ds_, s_: PredictorHandle(
                lambda xs: np.full(xs.shape[0], 1.0), name="one"),
        )
        rng = np.random.default_rng(0)
        ds = RegressionDataset(rng.uniform(0, 1, (20, 1)), np.ones(20))
        state = warm_up(ds, trainer, seed=0)  # residuals exactly zero
        sub = srswor(20, 6, "permutation", seed=1)
        with pytest.raises(Exception):
            tune_noise_scale(state, ds, trainer, sub, 0.5, "plus")

    @pytest.mark.parametrize("target", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_target_rejected_before_any_refit(self, target):
        state = random_state(np.random.default_rng(0), 20, own_pilot=False)
        ds = RegressionDataset(np.full((20, 1), 0.5), np.zeros(20))
        trainer = TrainerOracle(name="never", fit_fn=lambda ds_, s_: pytest.fail("refit"))
        sub = srswor(20, 6, "permutation", seed=1)
        with pytest.raises(TuneError, match=f"target must be positive and finite, got {target}"):
            tune_noise_scale(state, ds, trainer, sub, target, "plus")

    def test_mlp_hits_target(self):
        # Budgeted optimizers carry a refit error floor, so a few draws may
        # fail to bracket; most land within tolerance.
        ds, _ = generate(ExperimentSpec(id="exp1", n=300, seed=7))
        trainer = make_trainer("mlp", {"max_iter": 400})
        state = warm_up(ds, trainer, seed=7)
        hits = 0
        for s in range(6):
            sub = srswor(ds.n, 31, "permutation", seed=s)
            try:
                res = tune_noise_scale(state, ds, trainer, sub, 0.3, "plus",
                                       tol_rel=0.1, max_iter=30, seed=s)
            except NoBracketError:
                continue
            hits += int(abs(res.achieved_norm - 0.3) <= 0.1 * 0.3)
        assert hits >= 4


class TestEstimateRadius:
    def test_zero_residual_formula(self):
        ds, trainer, state = zero_residual_setup()
        sub = srswor(ds.n, 8, "permutation", seed=1)
        rounds = [run_round(state, ds, trainer, sub, 1.0, 1.0, seed=0, k=0)]
        tau = estimate_tau(state.residuals)
        t = 3.1
        est = estimate_radius(state, rounds, refit_block(state, ds, trainer, rounds), t=t, tau=tau)
        # tau ~ 0 and zero refit distances: only the t^2/sqrt(n) branch remains.
        expected = (t * t / math.sqrt(ds.n)) / (1 - 4 * tau / t)
        assert est.r == pytest.approx(expected, rel=1e-6)
        assert est.branch == "t2_over_sqrt_n"

    def test_tau_zero_additives_vanish(self):
        ds, trainer, state = zero_residual_setup(seed=2)
        sub = srswor(ds.n, 8, "permutation", seed=2)
        rounds = [run_round(state, ds, trainer, sub, 1.0, 1.0, seed=0, k=0)]
        est = estimate_radius(state, rounds, refit_block(state, ds, trainer, rounds), t=3.5, tau=0.0)
        assert est.r == pytest.approx(3.5 ** 2 / math.sqrt(ds.n), rel=1e-6)
        assert est.components["additive"] == 0.0

    def test_t_validation(self):
        ds, trainer, state = zero_residual_setup(seed=3)
        sub = srswor(ds.n, 8, "permutation", seed=3)
        rounds = [run_round(state, ds, trainer, sub, 1.0, 1.0, seed=0, k=0)]
        block = refit_block(state, ds, trainer, rounds)
        with pytest.raises(BadParamError):
            estimate_radius(state, rounds, block, t=2.0, tau=0.0)
        with pytest.raises(BadParamError):
            estimate_radius(state, rounds, block, t=3.2, tau=1.0)

    def test_covers_realized_distance_exp1(self):
        assert suite_radius(seeds=5, seed0=100)["covered"] >= 4


def reference_candidate_sup(weights, breve_vals, vals, radius, negate):
    """Per-row, per-direction supremum over the rows of ``vals``, each row's
    distance and score recomputed from its values, as the proxies were
    first written."""
    best = 0.0
    for row in vals:
        diff = row - breve_vals
        if empirical_norm(diff) <= radius:
            best = max(best, float(np.mean(weights * (-diff if negate else diff))))
    return best


def random_state(rng, n, own_pilot):
    breve = rng.normal(size=n)
    pilot = breve + 0.3 * rng.normal(size=n) if own_pilot else breve
    handle = PredictorHandle(lambda xs: np.zeros(xs.shape[0]))
    return RefitState(breve_f=handle, pilot_f=handle, residuals=rng.normal(size=n),
                      signs=rng.choice([-1.0, 1.0], size=n), breve_vals=breve,
                      pilot_vals=pilot, seed=0)


class TestOnePassScorer:
    """Blocks scored once from raw values equal the per-row, per-direction
    loops over those values."""

    def _radii(self, rng, vals, breve_vals):
        dists = np.array([empirical_norm(row - breve_vals) for row in vals])
        return [0.0, math.inf, *rng.uniform(0.0, 1.2 * dists.max(), size=6),
                *dists[:2]]

    @pytest.mark.parametrize("seed", range(4))
    def test_process_sup_proxy_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 300))
        state = random_state(rng, n, own_pilot=False)
        vals = state.breve_vals + rng.normal(size=(int(rng.integers(1, 12)), n)) * rng.uniform(
            0.0, 2.0, size=(1, 1))
        block = candidate_block(state, vals)
        assert block.pilot_scores is None
        weights = state.signs * state.residuals
        for radius in self._radii(rng, vals, state.breve_vals):
            plus, minus = process_sup_proxy(block, radius)
            assert plus == reference_candidate_sup(weights, state.breve_vals, vals, radius, False)
            assert minus == reference_candidate_sup(weights, state.breve_vals, vals, radius, True)
            assert type(plus) is float and type(minus) is float
            assert plus >= 0.0 and minus >= 0.0

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("own_pilot", [False, True])
    def test_pilot_error_proxy_matches_reference(self, seed, own_pilot):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(5, 300))
        state = random_state(rng, n, own_pilot)
        fstar_vals = state.breve_vals + 0.5 * rng.normal(size=n)
        vals = [state.breve_vals + rng.normal(size=(c, n)) for c in rng.integers(1, 8, size=2)]
        blocks = [candidate_block(state, v, fstar_vals) for v in vals]
        # The candidates: the refits, then the pilot and the truth rows.
        rows = np.vstack([*vals, state.pilot_vals, fstar_vals])
        weights = state.signs * (state.pilot_vals - fstar_vals)
        for radius in self._radii(rng, rows, state.breve_vals):
            expected = (reference_candidate_sup(weights, state.breve_vals, rows, radius, False)
                        + reference_candidate_sup(weights, state.breve_vals, rows, radius, True))
            assert pilot_error_proxy(state, blocks, fstar_vals, radius) == expected

    def test_pilot_error_proxy_needs_truth_scores(self):
        rng = np.random.default_rng(7)
        state = random_state(rng, 20, own_pilot=True)
        block = candidate_block(state, state.breve_vals + rng.normal(size=(3, 20)))
        with pytest.raises(BadParamError):
            pilot_error_proxy(state, [block], state.breve_vals, math.inf)

    @pytest.mark.parametrize("n", [1, 37, 300])
    def test_tiling_does_not_move_scores(self, monkeypatch, n):
        # One row per tile and tiles of an odd number of rows (which split
        # the plus/minus pairs of the rounds) score every row bit for bit as
        # the default tiles do, and never write the values they are given.
        rng = np.random.default_rng(n)
        state = random_state(rng, n, own_pilot=True)
        fstar_vals = state.breve_vals + 0.5 * rng.normal(size=n)
        vals = state.breve_vals + rng.normal(size=(11, n))
        vals.flags.writeable = False
        # A stub black box whose refits predict the first rows of ``vals``.
        handle = PredictorHandle(lambda xs: np.zeros(xs.shape[0]))
        trainer = TrainerOracle(name="stub", fit_fn=lambda ds, seed: handle,
                                fit_multi_fn=lambda xs, Y, seeds, rows: [handle] * Y.shape[1],
                                predict_multi_fn=lambda handles, xs: vals[:len(handles)])
        ds = RegressionDataset(np.zeros((n, 1)), np.zeros(n))
        sub = srswor(n, n, "permutation", seed=0)
        columns = [(0.5, "plus", 1), (0.5, "minus", 2), (1.0, "plus", 1), (2.0, "minus", 2),
                   (3.0, "plus", 1), (3.0, "minus", 2)]

        def scored():
            block = candidate_block(state, vals, fstar_vals)
            [(_, norms, opts)] = refit._refit_scores(state, ds, trainer, [(sub, columns)])
            return block, norms, opts, pilot_error_proxy(state, [block], fstar_vals, 1.3)

        default = scored()
        for entries in (1, 3 * n + 1):
            monkeypatch.setattr(refit, "_SCORE_TILE_ENTRIES", entries)
            block, norms, opts, pilot = scored()
            for got, want in zip(block, default[0]):
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(norms, default[1])
            np.testing.assert_array_equal(opts, default[2])
            assert pilot == default[3]


class TestPilotErrorProxy:
    def _setup(self, seed=0):
        ds, truth = generate(ExperimentSpec(id="exp1", n=300, seed=seed))
        trainer = make_trainer("fourier_ridge", {"N": 8, "lam": 1e-6})
        state = warm_up(ds, trainer, seed=seed)
        sub = srswor(ds.n, 30, "permutation", seed=seed)
        rd = run_round(state, ds, trainer, sub, 1.0, 1.0, seed=seed, k=0)
        return ds, truth, state, [rd.tilde_f, rd.check_f]

    def test_pilot_equal_truth_gives_zero(self):
        ds, truth, state, cands = self._setup()
        # Rebuild the state with the truth as the pilot: the gap factor is zero.
        trainer = make_trainer("fourier_ridge", {"N": 8, "lam": 1e-6})
        state2 = warm_up(ds, trainer, pilot=truth.fstar, seed=0)
        fstar_vals = truth.fstar.predict(ds.xs)
        block = candidate_block(state2, trainer.predict_multi(cands, ds.xs), fstar_vals)
        assert pilot_error_proxy(state2, [block], fstar_vals, radius=10.0) == 0.0

    def test_breve_only_candidate_gives_zero(self):
        # A zero radius keeps only the rows at the trained predictor itself
        # (here the pilot), which score zero.
        ds, truth, state, _ = self._setup(seed=1)
        trainer = make_trainer("fourier_ridge", {"N": 8, "lam": 1e-6})
        fstar_vals = truth.fstar.predict(ds.xs)
        block = candidate_block(state, trainer.predict_multi([state.breve_f], ds.xs), fstar_vals)
        val = pilot_error_proxy(state, [block], fstar_vals, radius=0.0)
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_no_truth_returns_zero(self):
        ds, _, _, _ = self._setup(seed=2)
        trainer = make_trainer("fourier_ridge", {"N": 8, "lam": 1e-6})
        report = evaluate(ds, trainer, EvaluationConfig(K=2, rho_grid=(1.0,), seed=2))[0]
        assert report.pilot_proxy == 0.0
        assert "pilot-term-omitted" in report.pilot_flags

    def test_dominated_by_process_proxies(self):
        # Proxy-level analogue of the pilot-error domination inequality.
        hold = 0
        trials = 10
        for s in range(trials):
            ds, truth = generate(ExperimentSpec(id="exp1", n=400, seed=200 + s))
            trainer = make_trainer("fourier_ridge", {"N": 8, "lam": 1e-6})
            state = warm_up(ds, trainer, seed=200 + s)
            tau = estimate_tau(state.residuals)
            m = int(round(400 ** 0.6))
            cands = []
            for k in range(6):
                sub = srswor(ds.n, m, "permutation", derive_seed(200 + s, "subsample", k))
                rd = run_round(state, ds, trainer, sub, 1.0, 1.0, seed=200 + s, k=k)
                cands.extend([rd.tilde_f, rd.check_f])
            r_hat = empirical_norm(state.breve_vals - truth.fstar.predict(ds.xs))
            radius = 2.0 * r_hat
            fstar_vals = truth.fstar.predict(ds.xs)
            cand_block = candidate_block(state, trainer.predict_multi(cands, ds.xs), fstar_vals)
            v_proxy = pilot_error_proxy(state, [cand_block], fstar_vals, radius)
            w_proxy, h_proxy = process_sup_proxy(cand_block, radius)
            slack = 8 * r_hat * tau * math.sqrt(math.log(1 / 0.05)) / math.sqrt(ds.n)
            hold += int(v_proxy <= w_proxy + h_proxy + slack)
        assert hold >= 9


class TestEvaluate:
    def test_zero_residual_single_round(self):
        ds, trainer, _ = zero_residual_setup()
        cfg = EvaluationConfig(K=1, beta=0.5, rho_grid=(1.0,), seed=0)
        report = evaluate(ds, trainer, cfg)[0]
        assert abs(report.mean_opt_tilde) <= 1e-10
        assert abs(report.mean_opt_check) <= 1e-10
        assert report.fixed_design_bound == pytest.approx(
            report.deviation + report.pilot_proxy, abs=1e-12)

    def test_report_decomposition_invariant(self):
        ds, truth = generate(ExperimentSpec(id="exp1", n=300, seed=8))
        trainer = make_trainer("fourier_ridge", {"N": 8, "lam": 1e-6})
        cfg = EvaluationConfig(K=4, rho_grid=(0.5, 2.0), seed=8)
        for report in evaluate(ds, trainer, cfg, fstar=truth.fstar):
            itemized = (report.mean_opt_tilde + report.mean_opt_check
                        + report.deviation + report.pilot_proxy)
            assert abs(report.fixed_design_bound - itemized) <= 1e-12
            assert report.wild_optimism_bound == pytest.approx(
                report.mean_opt_tilde + report.mean_opt_check, abs=1e-15)

    def test_random_design_assembly(self):
        ds, _ = generate(ExperimentSpec(id="exp1", n=300, seed=9))
        trainer = make_trainer("fourier_ridge", {"N": 8, "lam": 1e-6})
        cfg = EvaluationConfig(K=3, rho_grid=(1.0,), seed=9, w_bar=2.0, w_under=0.5)
        report = evaluate(ds, trainer, cfg)[0]
        expected = 4.0 * (2.0 / 0.5) * report.fixed_design_bound + report.log_term
        assert report.random_design_bound == pytest.approx(expected, rel=1e-12)
        assert report.confidence_fixed == pytest.approx(1 - 5 * cfg.delta)
        assert report.confidence_random == pytest.approx(1 - 6 * cfg.delta)

    @pytest.mark.parametrize("settings,error,columns", [
        ({"M_v": 1.0, "v": 2.5}, DecayRegimeError, []),   # v <= d/2 = 2.5
        ({"t": 4.0}, BadParamError, [1]),                  # t <= 4 * tau, tau about 1.66
    ], ids=["decay", "t_below_estimated_tau"])
    def test_setting_mistakes_stop_before_any_refit(self, monkeypatch, settings, error,
                                                    columns):
        # A setting that fails against the data stops before the warm-up,
        # or, against the estimated noise bound, right after it: no refit.
        ds, _ = generate(ExperimentSpec(id="exp3", n=500, seed=0))
        fitted = []
        fit_multi = TrainerOracle.fit_multi

        def counting_fit_multi(trainer, xs, Y, seeds, rows=None):
            fitted.append(Y.shape[1])
            return fit_multi(trainer, xs, Y, seeds, rows)

        monkeypatch.setattr(TrainerOracle, "fit_multi", counting_fit_multi)
        with pytest.raises(error):
            evaluate(ds, make_trainer("tree", {}), EvaluationConfig(K=30, seed=0, **settings))
        assert fitted == columns

    @pytest.mark.parametrize("experiment", ["exp3", "exp4"])
    @pytest.mark.parametrize("name", ["fourier_ridge", "tree", "mlp"])
    def test_five_dimensional_defaults(self, experiment, name):
        # Every built-in trainer at its default settings runs end to end on
        # the 5-d experiments; fourier_ridge's N=8 is p = 17^5 features.
        ds, truth = generate(ExperimentSpec(id=experiment, n=200, seed=3))
        cfg = EvaluationConfig(K=3, rho_grid=(1.0,), seed=3)
        report = evaluate(ds, make_trainer(name, {}), cfg, fstar=truth.fstar)[0]
        terms = (report.mean_opt_tilde, report.mean_opt_check, report.deviation,
                 report.pilot_proxy)
        assert np.all(np.isfinite(terms + (report.wild_optimism_bound,
                                           report.fixed_design_bound,
                                           report.random_design_bound)))
        assert report.fixed_design_bound == terms[0] + terms[1] + terms[2] + terms[3]

    def test_round_order_independence(self):
        ds, _ = generate(ExperimentSpec(id="exp1", n=240, seed=11))
        trainer = make_trainer("fourier_ridge", {"N": 6, "lam": 1e-6})
        state = warm_up(ds, trainer, seed=11)
        subs = [srswor(ds.n, 27, "permutation", derive_seed(11, "subsample", k))
                for k in range(4)]
        forward = [run_round(state, ds, trainer, subs[k], 1.0, 1.0, seed=11, k=k)
                   for k in range(4)]
        backward = [run_round(state, ds, trainer, subs[k], 1.0, 1.0, seed=11, k=k)
                    for k in reversed(range(4))]
        backward_sorted = sorted(backward, key=lambda rd: rd.k)
        assert [rd.optimism for rd in forward] == [rd.optimism for rd in backward_sorted]

    @pytest.mark.parametrize("name,params", [("fourier_ridge", {"N": 6, "lam": 1e-6}),
                                             ("tree", {"max_depth": 4})])
    def test_rounds_match_scale_major_loop(self, name, params):
        # Subsample-major rounds on shared covariate blocks give the rounds a
        # scale-major loop of independent run_round calls gives, bit for bit.
        # (fourier_ridge's linear-smoother rounds round apart from these;
        # test_linear_smoother_rounds_match_refit_rounds bounds the gap.)
        ds, _ = generate(ExperimentSpec(id="exp1", n=300, seed=16))
        trainer = dataclasses.replace(make_trainer(name, params), linear_smoother=False)
        cfg = EvaluationConfig(K=4, rho_grid=(0.5, 1.0, 2.0), seed=16)
        reports = evaluate(ds, trainer, cfg)
        state = warm_up(ds, trainer, seed=cfg.seed)
        m = cfg.subsample_size(ds.n)
        subs = [srswor(ds.n, m, "permutation", derive_seed(cfg.seed, "subsample", k))
                for k in range(cfg.K)]

        def numbers(rd):
            return (rd.k, rd.rho1, rd.rho2, rd.optimism, rd.norm_tilde, rd.norm_check,
                    rd.sub.indices.tolist(), rd.tilde_f.predict(ds.xs).tolist(),
                    rd.check_f.predict(ds.xs).tolist())

        for rho, report in zip(cfg.rho_grid, reports):
            loop = [run_round(state, ds, trainer, sub, rho, rho, cfg.seed, k)
                    for k, sub in enumerate(subs)]
            assert [numbers(rd) for rd in report.rounds] == [numbers(rd) for rd in loop]

    @pytest.mark.parametrize("name,params", [("tree", {"max_depth": 4}),
                                             ("fourier_ridge", {"N": 6, "lam": 1e-6}),
                                             ("mlp", {"widths": (8,), "max_iter": 30})])
    def test_run_round_is_the_engines_round(self, name, params):
        # run_round at a round's subsample, scale, seed and index gives the
        # round a fixed-grid evaluate records, bit for bit, on its warm-up
        # state: both optimisms and both norms.
        ds, _ = generate(ExperimentSpec(id="exp1", n=200, seed=21))
        trainer = dataclasses.replace(make_trainer(name, params), linear_smoother=False)
        cfg = EvaluationConfig(K=3, rho_grid=(0.5, 2.0), seed=21)
        reports, state = evaluate_with_state(ds, trainer, cfg)

        def numbers(rd):
            return (rd.k, *(float(v).hex() for v in (rd.rho1, rd.rho2, rd.optimism.opt_tilde,
                                                    rd.optimism.opt_check,
                                                    rd.norm_tilde, rd.norm_check)))

        for rho, report in zip(cfg.rho_grid, reports):
            assert len(report.rounds) == cfg.K
            for rd in report.rounds:
                own = run_round(state, ds, trainer, rd.sub, rho, rho, cfg.seed, rd.k)
                assert numbers(own) == numbers(rd)

    def test_linear_smoother_fits_each_subsample_once(self, monkeypatch):
        # Primal refits (p = 13 <= m): their full-data moments come from
        # their coefficients, so they are never predicted on the full data.
        self.assert_fits_each_subsample_once(monkeypatch, "exp1", {"N": 6, "lam": 1e-6}, 0)

    def test_linear_smoother_kernel_refits_predicted_once(self, monkeypatch):
        # Kernel refits (p = 3125 > n): fourier_ridge's pair_moments_fn
        # declines, and each refit is predicted on the full data once.
        self.assert_fits_each_subsample_once(monkeypatch, "exp3", {"N": 2, "lam": 1e-6}, 1)

    @staticmethod
    def assert_fits_each_subsample_once(monkeypatch, experiment, params, refit_full_predicts):
        """A linear smoother's fixed-grid evaluate fits two columns per
        subsample, breve and eps * v there, both on one seed, all in one
        fit_multi call after the warm-up's, and predicts each refit on the
        full data ``refit_full_predicts`` times, whatever the grid's size;
        the trained predictor and the truth are predicted there once.  The
        fit ignores its seeds, so none is derived for a refit: each pair
        takes its round index."""
        ds, truth = generate(ExperimentSpec(id=experiment, n=300, seed=15))
        base = make_trainer("fourier_ridge", params)
        assert base.linear_smoother
        predicted = []   # (ids of the handles, number of points) per predict_multi_fn call

        def counting_predict(handles, xs):
            predicted.append(([id(h) for h in handles], xs.shape[0]))
            return base.predict_multi_fn(handles, xs)

        trainer = dataclasses.replace(base, predict_multi_fn=counting_predict)
        calls = []
        fit_multi = TrainerOracle.fit_multi

        def counting_fit_multi(trainer, xs, Y, seeds, rows=None):
            calls.append((np.array(Y), list(seeds), rows,
                          fit_multi(trainer, xs, Y, seeds, rows)))
            return calls[-1][-1]

        tags = []
        derive_seed = refit.derive_seed

        def counting_derive_seed(seed, tag, *indices):
            tags.append(tag)
            return derive_seed(seed, tag, *indices)

        monkeypatch.setattr(TrainerOracle, "fit_multi", counting_fit_multi)
        monkeypatch.setattr(refit, "derive_seed", counting_derive_seed)
        cfg = EvaluationConfig(K=3, rho_grid=(0.5, 1.0, 2.0), seed=15)
        reports, state = evaluate_with_state(ds, trainer, cfg, fstar=truth.fstar)
        assert len(reports) == len(cfg.rho_grid) and len(calls) == 2
        Y, seeds, rows, refits = calls[1]
        subs = [rd.sub.indices for rd in reports[0].rounds]
        assert Y.shape == (cfg.subsample_size(ds.n), 2 * cfg.K)
        np.testing.assert_array_equal(rows, np.repeat(subs, 2, axis=0))
        assert seeds[0::2] == seeds[1::2] and len(set(seeds)) == cfg.K
        assert tags.count("subsample") == cfg.K
        assert [tag for tag in tags if tag.startswith("refit-")] == []
        for k, idx in enumerate(subs):
            np.testing.assert_array_equal(Y[:, 2 * k], state.breve_vals[idx])
            np.testing.assert_array_equal(Y[:, 2 * k + 1], state.signs[idx] * state.residuals[idx])
        assert len(refits) == 2 * cfg.K
        assert ("dual_coefficients" in refits[0].meta) == (experiment == "exp3")
        full = [i for ids, points in predicted if points == ds.n for i in ids]
        assert [full.count(id(f)) for f in refits] == [refit_full_predicts] * len(refits)
        assert full.count(id(calls[0][-1][0])) == 1
        assert full.count(id(truth.fstar)) == 1

    # Largest relative gaps measured between the two paths over seeds 0-5
    # (exp1 n=400 K=6, five scales; exp3 n=300 K=3, two scales): 6.6e-13
    # on a round field and 5.3e-13 on a report field (primal); 1.7e-9 and
    # 4.4e-10 (kernel, whose solves are worse conditioned).
    @pytest.mark.parametrize("experiment,n,params,K,grid,rel", [
        ("exp1", 400, {"N": 8, "lam": 1e-6}, 6, (0.1, 0.5, 1.0, 2.0, 5.0), 1e-11),
        ("exp3", 300, {"N": 2, "lam": 1e-6}, 3, (0.5, 2.0), 1e-7),
    ], ids=["primal", "kernel"])
    def test_linear_smoother_rounds_match_refit_rounds(self, experiment, n, params, K, grid,
                                                      rel):
        # Deriving every scale from one fitted pair per subsample gives the
        # reports refitting at every scale gives, up to rounding: the same
        # flags and subsamples, and every bound and round field within rel.
        ds, truth = generate(ExperimentSpec(id=experiment, n=n, seed=2))
        trainer = make_trainer("fourier_ridge", params)
        cfg = EvaluationConfig(K=K, rho_grid=grid, seed=2)
        linear = evaluate(ds, trainer, cfg, fstar=truth.fstar)
        refit_all = evaluate(ds, dataclasses.replace(trainer, linear_smoother=False), cfg,
                             fstar=truth.fstar)

        def numbers(report):
            rounds = [(rd.rho1, rd.rho2, rd.optimism.opt_tilde, rd.optimism.opt_check,
                       rd.norm_tilde, rd.norm_check) for rd in report.rounds]
            bounds = [v for v in vars(report).values() if type(v) in (int, float)]
            return np.array([*bounds, *np.ravel(rounds)])

        assert len(linear) == len(refit_all) == len(grid)
        for a, b in zip(linear, refit_all):
            assert (a.label, a.pilot_flags, a.k_rounds_used) == (b.label, b.pilot_flags,
                                                                 b.k_rounds_used)
            assert ([rd.sub.indices.tolist() for rd in a.rounds]
                    == [rd.sub.indices.tolist() for rd in b.rounds])
            np.testing.assert_allclose(numbers(a), numbers(b), rtol=rel, atol=0.0)

    @pytest.mark.parametrize("experiment,n,params,K,grid", [
        ("exp1", 400, {"N": 8, "lam": 1e-6}, 6, (0.1, 1.0, 5.0)),
        ("exp3", 300, {"N": 2, "lam": 1e-6}, 3, (0.5, 2.0)),
    ], ids=["primal", "kernel"])
    def test_linear_smoother_blocks_match_their_refits(self, experiment, n, params, K, grid):
        # Each scale's candidate block, formed from the fitted pairs'
        # full-data moments, scores the rounds' refit handles as their
        # predicted values do: distances, noise and pilot scores within
        # 1e-12 of each array's largest entry (6.7e-15 measured, seeds 0-5).
        ds, truth = generate(ExperimentSpec(id=experiment, n=n, seed=3))
        trainer = make_trainer("fourier_ridge", params)
        state = warm_up(ds, trainer, seed=3)
        m = EvaluationConfig().subsample_size(n)
        subs = [srswor(n, m, "permutation", derive_seed(3, "subsample", k)) for k in range(K)]
        fstar_vals = truth.fstar.predict(ds.xs)
        scales = list(refit._linear_scales(state, ds, trainer, subs, grid, 3, fstar_vals))
        assert len(scales) == len(grid)
        for rho, (rounds, block) in zip(grid, scales):
            assert [(rd.k, rd.rho1, rd.rho2) for rd in rounds] == [(k, rho, rho)
                                                                   for k in range(K)]
            want = candidate_block(state, trainer.predict_multi(
                [f for rd in rounds for f in (rd.tilde_f, rd.check_f)], ds.xs), fstar_vals)
            for got, ref in zip(block, want):
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_linear_smoother_rounds_keep_the_erm_inequality(self):
        # Criterion 03 on the linear path: with an exact ERM (lam = 0) every
        # round's refits, derived from the fitted pair, satisfy
        # opt >= dist^2 / (2 rho) - 1e-8 in both directions, and each round
        # scores its refit handles as they predict alone.
        ds, _ = generate(ExperimentSpec(id="exp1", n=500, seed=0))
        trainer = fourier_ridge_trainer(FourierRidgeSpec(N=8, lam=0.0))
        cfg = EvaluationConfig(K=30, rho_grid=(0.1, 1.0, 5.0), seed=0)
        reports, state = evaluate_with_state(ds, trainer, cfg)
        for rho, report in zip(cfg.rho_grid, reports):
            for rd in report.rounds:
                idx = rd.sub.indices
                breve = state.breve_vals[idx]
                for f, opt, norm in ((rd.tilde_f, rd.optimism.opt_tilde, rd.norm_tilde),
                                     (rd.check_f, rd.optimism.opt_check, rd.norm_check)):
                    assert opt >= norm ** 2 / (2.0 * rho) - 1e-8
                    assert norm == empirical_norm(f.predict(ds.xs[idx]) - breve)

    def test_one_fit_multi_call_for_every_refit(self, monkeypatch):
        # After the warm-up's one-column fit on the full data, fixed-grid
        # mode hands every refit (each subsample, scale and direction) to
        # one fit_multi call on the full data's points, each column with
        # its subsample's rows, and derives the two refit seeds once per
        # subsample.
        ds, _ = generate(ExperimentSpec(id="exp2", n=300, seed=17))
        cfg = EvaluationConfig(K=5, rho_grid=(0.1, 0.5, 2.0), seed=17)
        calls, tags = [], []
        fit_multi, derive_seed = TrainerOracle.fit_multi, refit.derive_seed

        def counting_fit_multi(trainer, xs, Y, seeds, rows=None):
            calls.append((np.shape(xs)[0], Y.shape, list(seeds), rows))
            return fit_multi(trainer, xs, Y, seeds, rows)

        def counting_derive_seed(seed, tag, *indices):
            tags.append(tag)
            return derive_seed(seed, tag, *indices)

        monkeypatch.setattr(TrainerOracle, "fit_multi", counting_fit_multi)
        monkeypatch.setattr(refit, "derive_seed", counting_derive_seed)
        evaluate(ds, make_trainer("tree", {"max_depth": 3}), cfg)
        m = cfg.subsample_size(ds.n)
        width = 2 * len(cfg.rho_grid)
        assert len(calls) == 2
        assert calls[0] == (ds.n, (ds.n, 1), [cfg.seed], None)
        n, shape, seeds, rows = calls[1]
        assert (n, shape) == (ds.n, (m, width * cfg.K))
        subs = [srswor(ds.n, m, "permutation", derive_seed(cfg.seed, "subsample", k))
                for k in range(cfg.K)]
        np.testing.assert_array_equal(rows, np.repeat([sub.indices for sub in subs], width,
                                                      axis=0))
        for k in range(cfg.K):
            own = seeds[k * width:(k + 1) * width]
            assert own == own[:2] * len(cfg.rho_grid)
        assert sum(tag.startswith("refit-") for tag in tags) == 2 * cfg.K

    def test_tuned_mode_refits_through_one_path(self, monkeypatch):
        # No `fit` call: the warm-up, the radius rounds (all in one call)
        # and every search step fit through `fit_multi`, and each tuned
        # round keeps the scores its search measured on its own subsample.
        ds, _ = generate(ExperimentSpec(id="exp1", n=300, seed=22))
        fits, columns = [], []
        fit, fit_multi = TrainerOracle.fit, TrainerOracle.fit_multi

        def counting_fit(trainer, dataset, seed):
            fits.append(dataset.n)
            return fit(trainer, dataset, seed)

        def counting_fit_multi(trainer, xs, Y, seeds, rows=None):
            columns.append(np.shape(Y))
            return fit_multi(trainer, xs, Y, seeds, rows)

        monkeypatch.setattr(TrainerOracle, "fit", counting_fit)
        monkeypatch.setattr(TrainerOracle, "fit_multi", counting_fit_multi)
        cfg = EvaluationConfig(K=5, K1=2, rho_mode="tuned", seed=22)
        [report], state = evaluate_with_state(ds, make_trainer("tree", {"max_depth": 4}), cfg)
        assert fits == []
        m = cfg.subsample_size(ds.n)
        assert columns[0] == (ds.n, 1)
        assert all(rows == m for rows, _ in columns[1:])
        columns = [width for _, width in columns[1:]]
        assert columns[0] == 2 * cfg.K1
        assert set(columns[1:]) == {1}
        assert len(columns) - 1 >= 2 * (cfg.K - cfg.K1)
        for rd in report.rounds:
            idx = rd.sub.indices
            breve, signs, residuals = state.breve_vals[idx], state.signs[idx], state.residuals[idx]
            for f, opt, norm, sign in ((rd.tilde_f, rd.optimism.opt_tilde, rd.norm_tilde, 1.0),
                                       (rd.check_f, rd.optimism.opt_check, rd.norm_check, -1.0)):
                vals = f.predict(ds.xs[idx])
                assert norm == empirical_norm(vals - breve)
                assert opt == sign * wild_optimism(signs, residuals, vals, breve)

    def test_fortran_ordered_predictions_score_as_one_row(self):
        # A predict_multi_fn that returns a Fortran-ordered block still gives
        # every round the distance and optimism of its refit scored alone.
        ds, _ = generate(ExperimentSpec(id="exp1", n=400, seed=6))
        base = make_trainer("fourier_ridge", {"N": 8, "lam": 1e-6})
        trainer = dataclasses.replace(
            base, name="fortran", linear_smoother=False,
            predict_multi_fn=lambda hs, xs: np.asfortranarray(np.stack([h.predict(xs)
                                                                         for h in hs])))
        cfg = EvaluationConfig(K=6, rho_grid=(0.5, 1.0, 2.0), seed=6)
        reports, state = evaluate_with_state(ds, trainer, cfg)
        for rd in (rd for report in reports for rd in report.rounds):
            idx = rd.sub.indices
            breve, signs, residuals = state.breve_vals[idx], state.signs[idx], state.residuals[idx]
            for f, opt, norm, sign in ((rd.tilde_f, rd.optimism.opt_tilde, rd.norm_tilde, 1.0),
                                       (rd.check_f, rd.optimism.opt_check, rd.norm_check, -1.0)):
                vals = f.predict(ds.xs[idx])
                assert norm == empirical_norm(vals - breve)
                assert opt == sign * wild_optimism(signs, residuals, vals, breve)

    def test_one_predict_multi_call_per_block_and_subsample(self, monkeypatch):
        # The warm-up predicts the trained predictor on the full data in one
        # predict_multi call.  Fixed-grid mode predicts each subsample's
        # refits on the subsample in one call and each scale's candidate
        # block in one; tuned mode predicts each candidate block in one
        # call, and every tuning step's refit on its subsample in one.
        ds, _ = generate(ExperimentSpec(id="exp1", n=300, seed=19))
        calls = []
        predict_multi = TrainerOracle.predict_multi

        def counting_predict_multi(trainer, handles, xs):
            calls.append((len(handles), xs.shape[0]))
            return predict_multi(trainer, handles, xs)

        monkeypatch.setattr(TrainerOracle, "predict_multi", counting_predict_multi)
        cfg = EvaluationConfig(K=5, rho_grid=(0.1, 0.5, 2.0), seed=19)
        evaluate(ds, make_trainer("tree", {"max_depth": 3}), cfg)
        m = cfg.subsample_size(ds.n)
        assert calls == ([(1, ds.n)] + [(2 * len(cfg.rho_grid), m)] * cfg.K
                         + [(2 * cfg.K, ds.n)] * len(cfg.rho_grid))

        calls.clear()
        cfg = EvaluationConfig(K=5, K1=2, rho_mode="tuned", rho_grid=(1.0,), seed=19)
        evaluate(ds, interpolating_trainer(N=20), cfg)
        assert [c for c in calls if c[1] == ds.n] == [(1, ds.n), (2 * cfg.K1, ds.n),
                                                      (2 * (cfg.K - cfg.K1), ds.n)]
        on_subsamples = [c for c in calls if c[1] == m]
        assert on_subsamples[:cfg.K1] == [(2, m)] * cfg.K1
        assert len(on_subsamples) > cfg.K1 + 2 * (cfg.K - cfg.K1)
        assert set(on_subsamples[cfg.K1:]) == {(1, m)}
        assert len(calls) == len(on_subsamples) + 3

    def test_non_finite_refit_predictions_stop_the_run(self):
        # A refit that predicts NaN at 5 of the 400 full-data points has a
        # NaN distance, which no radius admits, so it once dropped out of
        # every candidate supremum and left a finite, unflagged report.
        ds, truth = generate(ExperimentSpec(id="exp1", n=400, seed=18))
        base = make_trainer("fourier_ridge", {"N": 8, "lam": 1e-6})
        holes = np.arange(0, ds.n, 80)

        def fit(data, seed):
            f = base.fit(data, seed)
            if data.n == ds.n:   # the warm-up fit
                return f

            def predict(xs):
                out = f.predict(xs)
                if xs.shape[0] == ds.n:
                    out[holes] = np.nan
                return out

            return PredictorHandle(predict, name="holey refit")

        trainer = TrainerOracle(name="holey", fit_fn=fit)
        cfg = EvaluationConfig(K=5, rho_grid=(0.5,), seed=18)
        with pytest.raises(NonFiniteDataError, match="'holey' predicted non-finite"):
            evaluate(ds, trainer, cfg, fstar=truth.fstar)

    @pytest.mark.parametrize("mode", ["fixed-grid", "tuned"])
    @pytest.mark.parametrize("name,params", [
        ("fourier_ridge", {"N": 6, "lam": 1e-6}),
        ("tree", {"max_depth": 3}),
        ("mlp", {"widths": (4,), "max_iter": 15}),
    ])
    def test_engine_reads_the_trainer_through_multi_calls(self, monkeypatch, name, params,
                                                          mode):
        # Neither `core` nor `refit` calls `TrainerOracle.fit` or
        # `PredictorHandle.predict` itself: the warm-up, the truth and every
        # refit go through `fit_multi`/`predict_multi`.  Only their loops
        # for a trainer without `fit_multi_fn`/`predict_multi_fn` (here
        # `mlp`) call the one-at-a-time methods.
        ds, truth = generate(ExperimentSpec(id="exp1", n=150, seed=24))
        callers = []

        def spy(method):
            def call(*args, **kwargs):
                frame = sys._getframe(1)
                while frame.f_code.co_name.startswith("<"):   # a comprehension's frame
                    frame = frame.f_back
                callers.append((frame.f_globals["__name__"], frame.f_code.co_name))
                return method(*args, **kwargs)
            return call

        monkeypatch.setattr(TrainerOracle, "fit", spy(TrainerOracle.fit))
        monkeypatch.setattr(PredictorHandle, "predict", spy(PredictorHandle.predict))
        trainer = make_trainer(name, params)
        cfg = EvaluationConfig(K=3, K1=1, rho_mode=mode, rho_grid=(0.5, 2.0), seed=24,
                               tune_max_iter=6)
        pilot = PredictorHandle(lambda xs: np.sin(xs[:, 0]), name="pilot")
        evaluate(ds, trainer, cfg, pilot=pilot, fstar=truth.fstar)
        engine = [call for call in callers if call[0] in ("wildriff.core", "wildriff.refit")]
        if name == "mlp":
            assert {function for _, function in engine} == {"fit_multi", "_predict_each"}
        else:
            assert engine == []

    @pytest.mark.parametrize("role", ["pilot", "fstar"])
    def test_bad_pilot_or_truth_values_stop_the_run(self, role):
        # A NaN from the pilot or the truth once left residuals or pilot
        # scores NaN; a NaN truth gave pilot_proxy 0.0 with no flag.
        ds, truth = generate(ExperimentSpec(id="exp1", n=200, seed=25))
        trainer = make_trainer("fourier_ridge", {"N": 6, "lam": 1e-6})
        cfg = EvaluationConfig(K=2, rho_grid=(1.0,), seed=25)

        def run(fn):
            handle = PredictorHandle(fn, name=f"bad {role}")
            evaluate(ds, trainer, cfg, **{"fstar": truth.fstar, role: handle})

        with pytest.raises(NonFiniteDataError, match="predicted non-finite"):
            run(lambda xs: np.where(xs[:, 0] > 0.5, np.nan, 0.0))
        with pytest.raises(TrainerFailedError, match=f"bad {role}: expected {ds.n}"):
            run(lambda xs: np.zeros(xs.shape[0] - 1))

    def test_rounds_draw_by_permutation(self):
        ds, _ = generate(ExperimentSpec(id="exp1", n=200, seed=27))
        cfg = EvaluationConfig(K=3, rho_grid=(1.0,), seed=27)
        [report] = evaluate(ds, make_trainer("tree", {"max_depth": 3}), cfg)
        m = cfg.subsample_size(ds.n)
        assert [rd.sub.indices.tolist() for rd in report.rounds] == [
            srswor(ds.n, m, "permutation", derive_seed(cfg.seed, "subsample", k)).indices.tolist()
            for k in range(cfg.K)]

    def test_shared_subsamples_across_grid(self):
        ds, _ = generate(ExperimentSpec(id="exp1", n=300, seed=12))
        trainer = make_trainer("fourier_ridge", {"N": 6, "lam": 1e-6})
        cfg = EvaluationConfig(K=3, rho_grid=(0.5, 2.0), seed=12)
        reports = evaluate(ds, trainer, cfg)
        for k in range(3):
            a = reports[0].rounds[k].sub.indices
            b = reports[1].rounds[k].sub.indices
            assert np.array_equal(a, b)

    def test_tuned_mode(self):
        ds, _ = generate(ExperimentSpec(id="exp1", n=300, seed=13))
        trainer = interpolating_trainer(N=20)
        cfg = EvaluationConfig(K=4, K1=2, rho_mode="tuned", rho_grid=(1.0,), seed=13,
                               tol_rho=0.05)
        reports, state = evaluate_with_state(ds, trainer, cfg)
        report = reports[0]
        assert report.label == "tuned"
        assert report.k_rounds_used == 2
        target = 2.0 * report.r_tilde
        for rd in report.rounds:
            assert abs(rd.norm_tilde - target) <= 0.05 * target
            assert abs(rd.norm_check - target) <= 0.05 * target
        assert not any(flag.startswith("tune-unconverged") for flag in report.pilot_flags)

    @pytest.mark.parametrize("name,params", [("fourier_ridge", {"N": 8, "lam": 1e-6}),
                                             ("tree", {"max_depth": 4})])
    def test_tuned_mode_builtin_trainer_at_defaults(self, name, params):
        ds, _ = generate(ExperimentSpec(id="exp1", n=1000, seed=0))
        cfg = EvaluationConfig(K=30, K1=5, rho_mode="tuned", seed=0)
        report = evaluate(ds, make_trainer(name, params), cfg)[0]
        assert report.k_rounds_used == cfg.K - cfg.K1
        target = 2.0 * report.r_tilde
        for rd in report.rounds:
            assert abs(rd.norm_tilde - target) <= cfg.tol_rho * target
            assert abs(rd.norm_check - target) <= cfg.tol_rho * target
        assert not any(flag.startswith("tune-unconverged") for flag in report.pilot_flags)

    def test_tuned_mode_flags_unconverged_tunes(self):
        rng = np.random.default_rng(21)
        ds = RegressionDataset(rng.uniform(0, 1, size=(120, 1)), np.zeros(120))
        pilot = PredictorHandle(lambda xs: 0.5 + np.sin(6.0 * xs[:, 0]))
        cfg = EvaluationConfig(K=4, K1=2, beta=0.7, rho_mode="tuned", rho_grid=(1.0,),
                               seed=21, tune_max_iter=12)
        report = evaluate(ds, power_of_two_trainer(), cfg, pilot=pilot)[0]
        target = 2.0 * report.r_tilde
        norms = [norm for rd in report.rounds for norm in (rd.norm_tilde, rd.norm_check)]
        assert all(abs(norm - target) > 0.05 * target for norm in norms)
        assert f"tune-unconverged:{len(norms)}/{len(norms)}" in report.pilot_flags

    def test_tuned_mode_reads_only_the_first_grid_entry(self):
        # Tuned mode's K1 radius rounds run at rho_grid[0], or at 1.0 on an
        # empty grid; later entries are unused.
        ds, _ = generate(ExperimentSpec(id="exp1", n=200, seed=23))
        trainer = make_trainer("tree", {"max_depth": 3})

        def tuned(grid):
            cfg = EvaluationConfig(K=4, K1=2, rho_mode="tuned", rho_grid=grid, seed=23)
            [report] = evaluate(ds, trainer, cfg)
            scalars = [getattr(report, f.name) for f in dataclasses.fields(report)
                       if f.name not in ("rounds", "config")]
            rounds = [(rd.k, rd.sub.indices.tolist(), rd.rho1, rd.rho2, rd.optimism,
                       rd.norm_tilde, rd.norm_check) for rd in report.rounds]
            return scalars, rounds

        assert tuned((0.3,)) == tuned((0.3, 0.7))
        assert tuned(()) == tuned((1.0,))
        # The first entry is read: at 5.0 the warm rounds move the radius.
        assert tuned((0.3,)) != tuned((5.0,))

    def test_candidates_predicted_once_per_report_fixed_grid(self):
        ds, truth = generate(ExperimentSpec(id="exp1", n=300, seed=15))
        trainer, handles = full_data_counting(dataclasses.replace(
            make_trainer("fourier_ridge", {"N": 6, "lam": 1e-6}), linear_smoother=False), ds.n)
        fstar = counting(truth.fstar, ds.n, None)
        cfg = EvaluationConfig(K=3, rho_grid=(0.5, 2.0), seed=15)
        reports = evaluate(ds, trainer, cfg, fstar=fstar)
        assert len(reports) == 2
        breve, refits = handles[0], handles[1:]
        assert len(refits) == 2 * cfg.K * len(cfg.rho_grid)
        assert [f.meta["full_predicts"] for f in refits] == [1] * len(refits)
        # The trained predictor (here also the pilot) and the truth: once
        # per evaluate.
        assert breve.meta["full_predicts"] == 1
        assert fstar.meta["full_predicts"] == 1

    def test_candidates_predicted_once_per_report_tuned(self):
        ds, truth = generate(ExperimentSpec(id="exp1", n=300, seed=13))
        cfg = EvaluationConfig(K=4, K1=2, rho_mode="tuned", rho_grid=(1.0,), seed=13,
                               tol_rho=0.05)
        m = cfg.subsample_size(ds.n)
        trainer, handles = full_data_counting(interpolating_trainer(N=20), ds.n, m)
        fstar = counting(truth.fstar, ds.n, None)
        report = evaluate(ds, trainer, cfg, fstar=fstar)[0]
        breve, fits = handles[0], handles[1:]
        # 2*K1 warm-up refits plus the 2*(K-K1) tuned refits each get one
        # full-data prediction; intermediate tuning fits get none.
        counts = sorted(f.meta["full_predicts"] for f in fits)
        assert counts == [0] * (len(fits) - 2 * cfg.K) + [1] * (2 * cfg.K)
        for rd in report.rounds:
            assert rd.tilde_f.meta["full_predicts"] == 1
            assert rd.check_f.meta["full_predicts"] == 1
        # Every refit, tuned or not, is predicted on its subsample once.
        assert [f.meta["sub_predicts"] for f in fits] == [1] * len(fits)
        assert breve.meta["full_predicts"] == 1
        assert fstar.meta["full_predicts"] == 1

    def test_optimism_concentration_diagnostic(self):
        # Sanity: per-round optimisms on a fixed dataset have cv below 1.
        ds, _ = generate(ExperimentSpec(id="exp1", n=500, seed=14))
        trainer = make_trainer("fourier_ridge", {"N": 8, "lam": 1e-6})
        cfg = EvaluationConfig(K=30, rho_grid=(1.0,), seed=14)
        report = evaluate(ds, trainer, cfg)[0]
        opts = np.array([rd.optimism.opt_tilde for rd in report.rounds])
        assert np.std(opts) / np.mean(opts) < 1.0
