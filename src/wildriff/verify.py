"""Monte-Carlo and exhaustive verification suites behind `wildriff verify`.

Each suite returns a JSON-ready dict whose ``pass`` key says whether the
checked property held at the suite's pinned threshold.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import EvaluationConfig, PredictorHandle, RegressionDataset, derive_rng
from .metrics import empirical_norm, ht_average
from .refit import evaluate_with_state
from .sampling import Subsample, srswor
from .synth import ExperimentSpec, generate
from .theory import decay_constant, fourier_coefficients, norm_equivalence_check
from .trainers import MlpSpec, make_trainer, mlp_fit

__all__ = ["SUITES", "suite_unbias", "suite_norm_equiv", "suite_decay", "suite_radius",
           "random_decay_poly", "max_truncation_frequency"]


def suite_unbias(seed: int = 0) -> dict:
    """Exhaustive check that subsample averages are unbiased for the
    full-sample average, over every (n, m) with n <= 8."""
    rng = derive_rng(seed, "verify-unbias")
    worst = 0.0
    for n in range(1, 9):
        signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
        res = rng.normal(size=n)
        diff = rng.normal(size=n)
        a_n = float(np.mean(signs * res * diff))
        for m in range(1, n + 1):
            vals = [ht_average(signs, res, diff, Subsample(indices=np.array(combo), n=n))
                    for combo in itertools.combinations(range(n), m)]
            worst = max(worst, abs(float(np.mean(vals)) - a_n))
    return {"suite": "unbias", "max_error": worst, "threshold": 1e-12,
            "pass": bool(worst < 1e-12)}


def random_decay_poly(rng: np.random.Generator, n_freq: int, v: float, m_v: float):
    """Trig polynomial with |coef(k)| <= m_v / k^v, random phases."""
    ks = np.arange(1, n_freq + 1)
    mags = m_v / ks.astype(float) ** v * rng.uniform(0.5, 1.0, size=n_freq)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_freq)
    c0 = rng.uniform(-1.0, 1.0)

    def h(x):
        angles = 2.0 * np.pi * np.outer(x, ks) + phases
        return c0 + 2.0 * (np.cos(angles) * mags).sum(axis=1)

    return h


def max_truncation_frequency(n: int, beta: float, delta: float) -> int:
    """Largest N with 2N log(2N/delta) <= n^beta, or 1 when none qualifies."""
    n_beta = n ** beta
    N = 1
    while 2 * (N + 1) * math.log(2 * (N + 1) / delta) <= n_beta:
        N += 1
    return N


def suite_norm_equiv(draws: int = 500, n: int = 10_000, beta: float = 0.6,
                     delta: float = 0.05, seed: int = 0) -> dict:
    """Monte-Carlo coverage of the norm-equivalence inequality."""
    v, m_v = 1.0, 1.0
    N = max_truncation_frequency(n, beta, delta)
    m = int(round(n ** beta))
    held = 0
    rng = derive_rng(seed, "verify-norm-equiv")
    for i in range(draws):
        h = random_decay_poly(rng, n_freq=4 * N, v=v, m_v=m_v)
        xs = rng.uniform(0.0, 1.0, size=n)
        sub = srswor(n, m, "permutation", derive_rng(seed, "verify-ne-sub", i))
        result = norm_equivalence_check(h(xs), sub, N=N, delta=delta, beta=beta,
                                        w_bar=1.0, w_under=1.0, v=v, M_v=m_v)
        held += int(result.holds)
    coverage = held / draws
    return {"suite": "norm_equiv", "draws": draws, "n": n, "N": N,
            "coverage": coverage, "threshold": 0.88, "claimed": 1.0 - 2.0 * delta,
            "pass": bool(coverage >= 0.88)}


def suite_decay(seed: int = 0) -> dict:
    """Analytic decay constant plus the ReLU-network coefficient bound."""
    sine = PredictorHandle(lambda xs: np.sin(2.0 * np.pi * xs[:, 0]), name="sine")
    profile = fourier_coefficients(sine, N=8, grid_size=64)
    m1 = decay_constant(profile, v=1.0)
    sine_ok = abs(m1 - 0.5) < 1e-9

    rng = derive_rng(seed, "verify-decay-data")
    xs = rng.uniform(0.0, 1.0, size=(200, 1))
    ys = np.sin(2.0 * np.pi * xs[:, 0]) + rng.normal(0.0, 0.1, size=200)
    net = mlp_fit(RegressionDataset(xs, ys), MlpSpec(widths=(16, 16), max_iter=300), seed=seed)
    weight_product = 1.0
    for w in net.meta["weights"]:
        weight_product *= float(np.linalg.norm(w, 2))
    net_profile = fourier_coefficients(net, N=48, grid_size=400)
    m2 = decay_constant(net_profile, v=2.0)
    net_ok = m2 <= 2.0 * weight_product
    return {"suite": "decay", "sine_M1": m1, "sine_pass": bool(sine_ok),
            "mlp_M2": m2, "mlp_weight_product": weight_product,
            "safety_factor": 2.0, "mlp_pass": bool(net_ok),
            "pass": bool(sine_ok and net_ok)}


def suite_radius(seeds: int = 20, n: int = 1000, k1: int = 5, seed0: int = 0) -> dict:
    """Radius estimate covers the realized full-data error distance.

    Each seed runs the engine's radius estimate: k1 rounds at noise scale 1.
    """
    covered = 0
    details = []
    trainer = make_trainer("fourier_ridge", {"N": 8, "lam": 1e-6})
    for s in range(seed0, seed0 + seeds):
        dataset, truth = generate(ExperimentSpec(id="exp1", n=n, seed=s))
        config = EvaluationConfig(K=k1, beta=0.6, rho_grid=(1.0,), seed=s)
        reports, state = evaluate_with_state(dataset, trainer, config)
        r = reports[0].r
        r_hat = empirical_norm(state.breve_vals - truth.fstar.predict(dataset.xs))
        covered += int(r >= r_hat)
        details.append({"seed": s, "r": r, "r_hat": r_hat})
    return {"suite": "radius", "seeds": seeds, "covered": covered,
            "required": 18, "details": details, "pass": bool(covered >= 18)}


SUITES = {
    "unbias": suite_unbias,
    "norm_equiv": suite_norm_equiv,
    "decay": suite_decay,
    "radius": suite_radius,
}
