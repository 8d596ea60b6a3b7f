"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import math
import time

import numpy as np

from wildriff.cli import cmd_evaluate
from wildriff.core import EvaluationConfig, PredictorHandle, derive_seed, warm_up
from wildriff.refit import deviation_term, evaluate_with_state, r_tilde, run_round
from wildriff.sampling import STRATEGIES, srswor_batch
from wildriff.synth import ExperimentSpec, generate, population_excess_risk
from wildriff.theory import fourier_coefficients
from wildriff.trainers import FourierRidgeSpec, fourier_ridge_trainer, make_trainer
from wildriff.verify import suite_decay, suite_norm_equiv, suite_radius, suite_unbias

# Frozen 50-digit evaluations of the closed forms.
DEVIATION_GOLDEN = 3.00427916404706527193941419546   # (r=1, tau=0.2, delta=0.05, n=1e4, K=30)
R_TILDE_GOLDEN = 3.81614909175868756710081622475     # (r=0.5, n=1e3, beta=0.6, d=1, v=1, M_v=1)


def report(number, passed, detail, elapsed):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {detail} [{elapsed:.1f}s]")


def test_criterion_01_ht_unbiasedness():
    """Exhaustive subsample-average unbiasedness for all n <= 8."""
    start = time.perf_counter()
    result = suite_unbias()
    elapsed = time.perf_counter() - start
    ok = result["max_error"] < 1e-12 and elapsed < 1.0
    report(1, ok, f"max error {result['max_error']:.2e} < 1e-12", elapsed)
    assert result["max_error"] < 1e-12
    assert elapsed < 1.0


def test_criterion_02_srswor_uniformity():
    """Exhaustive-subset frequency over every (n <= 7, m <= 3) pair at 1e6
    draws within 4 sigma, plus the inclusion-probability test, for all
    three strategies."""
    start = time.perf_counter()
    draws = 10 ** 6
    worst_dev = {s: 0.0 for s in STRATEGIES}
    for strategy in STRATEGIES:
        for n in range(1, 8):
            for m in range(1, min(3, n) + 1):
                rows = srswor_batch(n, m, strategy, seed=2024 + 13 * n + m, count=draws)
                key = np.zeros(draws, dtype=np.int64)
                for col in range(m):
                    key = key * n + rows[:, col]
                _, counts = np.unique(key, return_counts=True)
                n_subsets = math.comb(n, m)
                assert counts.size == n_subsets
                p = 1.0 / n_subsets
                sigma = math.sqrt(draws * p * (1 - p))
                if sigma > 0:
                    dev = float(np.max(np.abs(counts - draws * p)) / sigma)
                    worst_dev[strategy] = max(worst_dev[strategy], dev)

        incl = srswor_batch(10, 3, strategy, seed=7, count=10 ** 5)
        freq = float(np.mean(np.any(incl == 0, axis=1)))
        band = 3.0 * math.sqrt(0.3 * 0.7 / 10 ** 5)
        assert abs(freq - 0.3) <= band, f"{strategy}: inclusion {freq} outside 0.3 +- {band}"
    elapsed = time.perf_counter() - start
    ok = all(w <= 4.0 for w in worst_dev.values()) and elapsed < 30.0
    detail = ", ".join(f"{s}:{w:.2f}sigma" for s, w in worst_dev.items())
    report(2, ok, f"worst subset deviations over all pairs {detail} (<= 4)", elapsed)
    assert all(w <= 4.0 for w in worst_dev.values())
    assert elapsed < 30.0


def test_criterion_03_wild_optimism_lower_bound():
    """Exact solver: every round satisfies opt >= dist^2/(2 rho) - 1e-8."""
    start = time.perf_counter()
    ds, _ = generate(ExperimentSpec(id="exp1", n=500, seed=0))
    trainer = fourier_ridge_trainer(FourierRidgeSpec(N=8, lam=0.0))
    state = warm_up(ds, trainer, seed=0)
    m = int(round(500 ** 0.6))
    rho = 1.0
    violations = 0
    worst_margin = math.inf
    from wildriff.sampling import srswor
    for k in range(100):
        sub = srswor(ds.n, m, "permutation", derive_seed(0, "subsample", k))
        rd = run_round(state, ds, trainer, sub, rho, rho, seed=0, k=k)
        margin = rd.optimism.opt_tilde - rd.norm_tilde ** 2 / (2 * rho)
        worst_margin = min(worst_margin, margin)
        violations += int(margin < -1e-8)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60.0
    report(3, ok, f"0 violations in 100 rounds (worst margin {worst_margin:.2e})", elapsed)
    assert violations == 0
    assert elapsed < 60.0


def test_criterion_04_norm_equivalence_coverage():
    """500 Monte-Carlo draws of decay-respecting trig polynomials."""
    start = time.perf_counter()
    result = suite_norm_equiv(draws=500, n=10_000, beta=0.6, delta=0.05)
    elapsed = time.perf_counter() - start
    ok = result["coverage"] >= 0.88 and elapsed < 300.0
    report(4, ok, f"coverage {result['coverage']:.3f} >= 0.88 (claimed {result['claimed']:.2f})",
           elapsed)
    assert result["coverage"] >= 0.88
    assert elapsed < 300.0


def _reproduction_cells(exp_id, trainer_name, trainer_params, ns, beta, K, grid, seeds):
    cells = []
    for n in ns:
        for seed in range(seeds):
            ds, truth = generate(ExperimentSpec(id=exp_id, n=n, seed=seed))
            trainer = make_trainer(trainer_name, trainer_params)
            cfg = EvaluationConfig(K=K, beta=beta, rho_grid=grid, seed=seed)
            reports, state = evaluate_with_state(ds, trainer, cfg, fstar=truth.fstar)
            oracle = population_excess_risk(state.breve_f, truth, 10_000, seed)["estimate"]
            bound_min = min(rep.wild_optimism_bound for rep in reports)
            bound_max = max(rep.wild_optimism_bound for rep in reports)
            cells.append((n, seed, bound_min, bound_max, oracle))
    return cells


def test_criterion_05_experiment1_reproduction():
    """exp1: the min-over-grid wild-optimism bound covers the Monte-Carlo
    excess risk in >= 90% of cells and sits within 20x at the best scale
    in >= 80% of cells."""
    start = time.perf_counter()
    cells = _reproduction_cells("exp1", "fourier_ridge", {"N": 8, "lam": 1e-6},
                                ns=(500, 1000), beta=0.6, K=30,
                                grid=(0.1, 0.5, 1.0, 2.0, 5.0), seeds=20)
    cover = sum(bmin >= oracle for _, _, bmin, _, oracle in cells)
    tight = sum(bmin <= 20 * oracle for _, _, bmin, _, oracle in cells)
    elapsed = time.perf_counter() - start
    ok = cover >= 0.9 * len(cells) and tight >= 0.8 * len(cells) and elapsed < 600.0
    report(5, ok, f"cover {cover}/{len(cells)} (>=36), factor-20 {tight}/{len(cells)} (>=32)",
           elapsed)
    assert cover >= 0.9 * len(cells)
    assert tight >= 0.8 * len(cells)
    assert elapsed < 600.0


def test_criterion_06_experiment2_reproduction():
    """exp2 with the tree trainer: same min-over-grid coverage requirement.

    Known shortfall: the bound grows about linearly in rho, so the grid
    minimum is always rho=0.05, and there it sits below the oracle in 16 of
    the 20 cells at n=1000 (m=32).  Over the 40 cells, the median bound /
    oracle at rho = 0.05, 0.1, 0.2, 0.3, 0.4 is 0.58, 1.30, 2.76, 4.25, 5.67
    at n=1000 and 1.56, 3.44, 7.28, 11.2, 15.2 at n=4000.  The refits track
    even the smallest perturbation in proportion: the median of each cell's
    mean norm_tilde / rho is flat in rho (0.118-0.121 at n=1000,
    0.102-0.104 at n=4000), so it is not that refit trees first spend their
    splits on the trained predictor's steps.  A 20-seed scan over tree
    settings (depths 3-5, leaf sizes 1-2) peaks at 21/40 cells.  Coverage
    holds at every cell for some scale in the grid and at 17/20 cells for
    n=4000 alone.  The requirement is asserted unchanged.
    """
    start = time.perf_counter()
    cells = _reproduction_cells("exp2", "tree", {"max_depth": 4, "min_samples_leaf": 1},
                                ns=(1000, 4000), beta=0.5, K=20,
                                grid=(0.05, 0.1, 0.2, 0.3, 0.4), seeds=20)
    cover = sum(bmin >= oracle for _, _, bmin, _, oracle in cells)
    some_rho_cover = sum(bmax >= oracle for _, _, _, bmax, oracle in cells)
    elapsed = time.perf_counter() - start
    ok = cover >= 0.9 * len(cells) and elapsed < 600.0
    report(6, ok,
           f"min-over-grid cover {cover}/{len(cells)} (>=36 required); "
           f"for context, some-scale cover {some_rho_cover}/{len(cells)}",
           elapsed)
    assert elapsed < 600.0
    assert cover >= 0.9 * len(cells), (
        f"min-over-grid coverage {cover}/{len(cells)} below 90%: the bound grows "
        f"about linearly in rho, and at n=1000 the smallest scale's bound sits below "
        f"the oracle (some-scale coverage is {some_rho_cover}/{len(cells)}); see this "
        f"test's docstring")


def test_criterion_07_radius_validity():
    """Radius estimate covers the realized error distance in >= 18/20 seeds."""
    start = time.perf_counter()
    result = suite_radius(seeds=20, n=1000, k1=5)
    elapsed = time.perf_counter() - start
    ok = result["covered"] >= 18 and elapsed < 300.0
    report(7, ok, f"covered {result['covered']}/20 (>=18)", elapsed)
    assert result["covered"] >= 18
    assert elapsed < 300.0


def test_criterion_08_closed_form_goldens():
    """deviation_term and r_tilde match 50-digit evaluations to 1e-12."""
    start = time.perf_counter()
    dev = deviation_term(r=1.0, tau=0.2, delta=0.05, n=10_000, K=30)
    rt = r_tilde(r=0.5, n=1000, beta=0.6, d=1, v=1.0, M_v=1.0, w_bar=1.0, w_under=1.0)
    rel_dev = abs(dev - DEVIATION_GOLDEN) / DEVIATION_GOLDEN
    rel_rt = abs(rt - R_TILDE_GOLDEN) / R_TILDE_GOLDEN
    elapsed = time.perf_counter() - start
    ok = rel_dev <= 1e-12 and rel_rt <= 1e-12 and elapsed < 1.0
    report(8, ok, f"deviation rel err {rel_dev:.2e}, r_tilde rel err {rel_rt:.2e}", elapsed)
    assert rel_dev <= 1e-12
    assert rel_rt <= 1e-12
    assert elapsed < 1.0


def test_criterion_09_cli_determinism(tmp_path):
    """Byte-identical rounds.csv across repeated runs."""
    start = time.perf_counter()
    config = {
        "experiment": "exp1",
        "n": 300,
        "seed": 5,
        "trainer": {"name": "fourier_ridge", "params": {"N": 8, "lam": 1e-6}},
        "evaluation": {"K": 6, "beta": 0.6, "rho_grid": [0.5, 1.0]},
        "oracle": {"n_mc": 1000},
        "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    contents = []
    for _ in range(3):
        assert cmd_evaluate(cfg_path) == 0
        contents.append((tmp_path / "out" / "rounds.csv").read_bytes())
    elapsed = time.perf_counter() - start
    ok = contents[0] == contents[1] == contents[2] and elapsed < 120.0
    report(9, ok, "rounds.csv byte-identical across three repeated runs", elapsed)
    assert contents[0] == contents[1]
    assert contents[0] == contents[2]
    assert elapsed < 120.0


def test_criterion_10_fourier_utilities():
    """Coefficient recovery, band-limited power identity, ReLU decay bound."""
    start = time.perf_counter()
    sine = PredictorHandle(lambda xs: np.sin(2 * np.pi * xs[:, 0]), name="sine")
    prof = fourier_coefficients(sine, N=8, grid_size=128)
    rec_err = max(abs(prof.coefficient(1) + 0.5j), abs(prof.coefficient(-1) - 0.5j))
    others = max(abs(prof.coefficient(k)) for k in range(-8, 9) if abs(k) != 1)
    coef_ok = rec_err < 1e-12 and others < 1e-12

    f = PredictorHandle(
        lambda xs: 1.0 + np.sin(2 * np.pi * xs[:, 0]) - 0.4 * np.cos(2 * np.pi * 4 * xs[:, 0]),
        name="bandlimited")
    grid_size = 256
    prof2 = fourier_coefficients(f, N=8, grid_size=grid_size)
    grid = np.arange(grid_size)[:, None] / grid_size
    mean_sq = float(np.mean(f.predict(grid) ** 2))
    power = float(np.sum(np.abs(prof2.coefficients) ** 2))
    parseval_ok = abs(power - mean_sq) <= 0.01 * mean_sq

    decay = suite_decay()
    elapsed = time.perf_counter() - start
    ok = coef_ok and parseval_ok and decay["mlp_pass"] and elapsed < 60.0
    report(10, ok,
           f"coef err {rec_err:.1e}, power identity gap {abs(power - mean_sq) / mean_sq:.2%}, "
           f"ReLU decay {decay['mlp_M2']:.2f} <= 2*{decay['mlp_weight_product']:.2f}",
           elapsed)
    assert coef_ok
    assert parseval_ok
    assert decay["mlp_pass"]
    assert elapsed < 60.0
