"""Synthetic regression experiments with known ground truth.

Four generators (exp1-exp4) covering a smooth 1-d signal, a discontinuous
step signal, and two 5-d signals (one with heavy-tailed noise).  Covariates
are affinely mapped into the unit cube; the map is stored so the true
function is always evaluated in its original coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .core import (ConfigError, PredictorHandle, RegressionDataset, check_integer, check_real,
                   derive_rng)

__all__ = [
    "ExperimentSpec",
    "GroundTruth",
    "EXPERIMENT_IDS",
    "generate",
    "empirical_excess_risk",
    "population_excess_risk",
]

EXPERIMENT_IDS = ("exp1", "exp2", "exp3", "exp4")


@dataclass(frozen=True)
class ExperimentSpec:
    """Which experiment to generate, at what size, under which seed."""

    id: str
    n: int
    seed: int = 0
    noise_scale: Optional[float] = None   # override; 0 disables noise

    def __post_init__(self):
        if self.id not in EXPERIMENT_IDS:
            raise ConfigError(f"unknown experiment {self.id!r}")
        check_integer("n", self.n)
        check_integer("seed", self.seed)
        if self.noise_scale is not None:
            check_real("noise_scale", self.noise_scale)
        if self.n < 1:
            raise ConfigError("n must be >= 1")


@dataclass(frozen=True)
class GroundTruth:
    """True regression function plus seeded samplers for fresh draws."""

    fstar: PredictorHandle
    covariate_sampler: Callable[[int, int], np.ndarray]
    noise_sampler: Callable[[int, int], np.ndarray]
    lo: np.ndarray   # unit-cube x maps to lo + (hi - lo) * x
    hi: np.ndarray

    def to_original(self, xs_unit: np.ndarray) -> np.ndarray:
        return self.lo + (self.hi - self.lo) * xs_unit

    def to_unit(self, xs_orig: np.ndarray) -> np.ndarray:
        return (xs_orig - self.lo) / (self.hi - self.lo)


def _step_three_levels(x: np.ndarray) -> np.ndarray:
    # Levels 0, 1, 2 on [0, 0.33), [0.33, 0.66), [0.66, 1.0].
    return (x >= 0.33).astype(float) + (x >= 0.66).astype(float)


def _experiment_parts(exp_id: str):
    if exp_id == "exp1":
        d, lo, hi, sigma = 1, 0.0, 1.0, 0.2

        def fstar(z):
            return np.sin(2.0 * np.pi * z[:, 0])

        def noise(rng, n):
            return rng.normal(0.0, sigma, size=n)

    elif exp_id == "exp2":
        d, lo, hi, sigma = 1, 0.0, 1.0, 0.15

        def fstar(z):
            return _step_three_levels(z[:, 0])

        def noise(rng, n):
            return rng.normal(0.0, sigma, size=n)

    elif exp_id == "exp3":
        d, lo, hi, sigma = 5, -1.0, 1.0, 0.2

        def fstar(z):
            return (np.sin(2.0 * np.pi * z[:, 0] * z[:, 1])
                    + np.cos(np.pi * z[:, 2] ** 3)
                    + np.exp(-1.5 * np.abs(z[:, 3])) * np.sign(z[:, 4])
                    + 0.5 * z[:, 0] * z[:, 2] * z[:, 4])

        def noise(rng, n):
            return rng.normal(0.0, sigma, size=n)

    else:  # exp4
        d, lo, hi, sigma = 5, -1.0, 1.0, 0.2

        def fstar(z):
            return (np.sin(np.pi * z[:, 0] * z[:, 1])
                    + np.cos(np.pi * z[:, 2])
                    + z[:, 3] ** 2
                    - np.abs(z[:, 4]))

        def noise(rng, n):
            # Student-t with 3 dof via the normal/chi-square ratio.
            z = rng.normal(0.0, 1.0, size=n)
            chisq = rng.chisquare(3, size=n)
            return sigma * z / np.sqrt(chisq / 3.0)

    return d, np.full(d, float(lo)), np.full(d, float(hi)), sigma, fstar, noise


def generate(spec: ExperimentSpec) -> Tuple[RegressionDataset, GroundTruth]:
    """Draw one dataset plus its ground truth, deterministically per seed."""
    d, lo, hi, sigma, fstar_orig, noise_fn = _experiment_parts(spec.id)

    rng_x = derive_rng(spec.seed, "covariates")
    xs_unit = rng_x.uniform(0.0, 1.0, size=(spec.n, d))
    xs_orig = lo + (hi - lo) * xs_unit

    rng_w = derive_rng(spec.seed, "noise")
    w = noise_fn(rng_w, spec.n)
    if spec.noise_scale is not None:
        w = w * (spec.noise_scale / sigma if sigma > 0 else 0.0)
    ys = fstar_orig(xs_orig) + w

    def fstar_unit(xs: np.ndarray) -> np.ndarray:
        return fstar_orig(lo + (hi - lo) * xs)

    def covariate_sampler(n: int, seed: int) -> np.ndarray:
        return derive_rng(seed, "mc-covariates").uniform(0.0, 1.0, size=(n, d))

    def noise_sampler(n: int, seed: int) -> np.ndarray:
        return noise_fn(derive_rng(seed, "mc-noise"), n)

    truth = GroundTruth(
        fstar=PredictorHandle(fstar_unit, name=f"{spec.id}-truth"),
        covariate_sampler=covariate_sampler,
        noise_sampler=noise_sampler,
        lo=lo,
        hi=hi,
    )
    return RegressionDataset(xs_unit, ys), truth


def empirical_excess_risk(breve: PredictorHandle, truth: GroundTruth, xs: np.ndarray) -> float:
    """Mean squared gap to the true function over the given covariates."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    gap = breve.predict(xs) - truth.fstar.predict(xs)
    return float(np.mean(gap ** 2))


def population_excess_risk(breve: PredictorHandle, truth: GroundTruth,
                           n_mc: int = 10000, seed: int = 0) -> dict:
    """Monte-Carlo excess risk over fresh covariate draws, with its stderr."""
    if n_mc < 2:
        raise ConfigError("n_mc must be >= 2")
    xs = truth.covariate_sampler(n_mc, seed)
    gap_sq = (breve.predict(xs) - truth.fstar.predict(xs)) ** 2
    estimate = float(np.mean(gap_sq))
    stderr = float(np.std(gap_sq, ddof=1) / np.sqrt(n_mc))
    return {"estimate": estimate, "stderr": stderr}
