"""Numerical checks for the harmonic-analysis side conditions (d = 1).

Fourier coefficients of a predictor on [0, 1], decay-constant estimation,
and the subsample/full-data norm-equivalence inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, PredictorHandle
from .sampling import Subsample

__all__ = [
    "TheoryError",
    "AliasingError",
    "TruncationConditionError",
    "RegimeViolationError",
    "FourierProfile",
    "NormEquivalenceResult",
    "fourier_coefficients",
    "decay_constant",
    "norm_equivalence_check",
]

EPS_FLOOR = 1e-300


class TheoryError(ConfigError):
    """Base class for theory-check failures."""


class AliasingError(TheoryError):
    """Quadrature grid too small for the requested frequency range."""


class TruncationConditionError(TheoryError):
    """The frequency-truncation load 2N log(2N/delta) exceeds n^beta."""


class RegimeViolationError(TheoryError):
    """The concentration denominator is nonpositive (n too small)."""


@dataclass(frozen=True)
class FourierProfile:
    """Fourier coefficients indexed by frequency -N..N plus decay summary.

    ``decay_v`` is the least-squares slope of log|coef| against log|k|
    over the nonzero frequencies; ``M_v_hat`` is max_k |k|^decay_v * |coef|.
    """

    coefficients: np.ndarray   # complex, index i holds frequency i - N
    N: int
    decay_v: float
    M_v_hat: float
    grid_size: int

    def coefficient(self, k: int) -> complex:
        if abs(k) > self.N:
            raise TheoryError(f"frequency {k} outside profile range +-{self.N}")
        return complex(self.coefficients[k + self.N])


def fourier_coefficients(f: PredictorHandle, N: int, grid_size: int) -> FourierProfile:
    """DFT quadrature of a 1-d predictor on the uniform grid g / G.

    coef(k) = (1/G) sum_g f(g/G) exp(-2 pi i k g / G), exact for
    trigonometric polynomials of degree <= N whenever G > 2N.
    """
    if N < 0:
        raise TheoryError("N must be >= 0")
    if grid_size < 4 * N + 4:
        raise AliasingError(f"grid_size must be >= 4N+4 = {4 * N + 4}, got {grid_size}")
    grid = np.arange(grid_size) / grid_size
    vals = f.predict(grid[:, None])
    dft = np.fft.fft(vals) / grid_size
    coefs = np.empty(2 * N + 1, dtype=complex)
    for k in range(-N, N + 1):
        coefs[k + N] = dft[k % grid_size]

    ks = np.arange(-N, N + 1)
    mags = np.abs(coefs)
    mask = (ks != 0) & (mags > 1e-13 * max(mags.max(), 1.0))
    log_k = np.log(np.abs(ks[mask])) if np.any(mask) else np.array([])
    if log_k.size >= 2 and np.unique(log_k).size >= 2:
        slope, _ = np.polyfit(log_k, np.log(mags[mask]), 1)
        decay_v = float(-slope)
    else:
        decay_v = float("nan")
    if np.isfinite(decay_v):
        m_hat = float(np.max(np.abs(ks[ks != 0]) ** decay_v * mags[ks != 0])) if N > 0 else 0.0
    else:
        m_hat = 0.0
    return FourierProfile(coefficients=coefs, N=N, decay_v=decay_v, M_v_hat=m_hat,
                          grid_size=grid_size)


def decay_constant(profile: FourierProfile, v: float) -> float:
    """max over nonzero frequencies of |k|^v * |coef(k)|."""
    if v <= 0:
        raise TheoryError("v must be positive")
    if profile.N == 0:
        return 0.0
    ks = np.arange(-profile.N, profile.N + 1)
    nz = ks != 0
    return float(np.max(np.abs(ks[nz]) ** v * np.abs(profile.coefficients[nz])))


@dataclass(frozen=True)
class NormEquivalenceResult:
    ratio: float
    bound: float
    holds: bool
    rhs: float           # un-normalized right-hand side
    factor: float        # the shared concentration quotient


def norm_equivalence_check(h_vals_full, sub: Subsample, N: int, delta: float, beta: float,
                           w_bar: float = 1.0, w_under: float = 1.0,
                           v: float = 1.0, M_v: float = 1.0) -> NormEquivalenceResult:
    """Check the subsample-norm inequality for one function sample.

    With Q = (w_bar + 3 w_bar sqrt(2N log(2N/delta)/n^beta))
            /(w_under - 3 w_bar sqrt(2N log(2N/delta)/n)),
    the inequality reads

        ||h||_S^2 <= 4 Q ||h||_D^2 + (2 Q + 1) * 8 M_v^2/(2v-1) * N^(1-2v).

    ``holds`` uses the un-normalized inequality; ``ratio`` and ``bound``
    are the two sides divided by ||h||_D^2 (floored away from zero).
    The two square-root loads use n^beta and n respectively.
    """
    h = np.asarray(h_vals_full, dtype=float).ravel()
    n = h.shape[0]
    if sub.n != n:
        raise TheoryError(f"subsample parent size {sub.n} != vector length {n}")
    if N < 1:
        raise TheoryError("N must be >= 1")
    if not (0.0 < delta < 1.0):
        raise TheoryError("delta must lie in (0, 1)")
    if v <= 0.5:
        raise TheoryError("v must exceed 1/2")

    n_beta = n ** beta
    load = 2.0 * N * math.log(2.0 * N / delta)
    if load / n_beta > 1.0:
        raise TruncationConditionError(
            f"2N log(2N/delta) = {load:.3g} exceeds n^beta = {n_beta:.3g}")

    numer = w_bar + 3.0 * w_bar * math.sqrt(load / n_beta)
    denom = w_under - 3.0 * w_bar * math.sqrt(load / n)
    if denom <= 0.0:
        raise RegimeViolationError(
            f"concentration denominator {denom:.3g} <= 0; n too small for the regime")
    factor = numer / denom

    norm_d_sq = float(np.mean(h ** 2))
    norm_s_sq = float(np.mean(h[sub.indices] ** 2))
    tail = (2.0 * factor + 1.0) * (8.0 * M_v ** 2 / (2.0 * v - 1.0)) * N ** (1.0 - 2.0 * v)
    rhs = 4.0 * factor * norm_d_sq + tail

    floor = max(norm_d_sq, EPS_FLOOR)
    return NormEquivalenceResult(
        ratio=norm_s_sq / floor,
        bound=rhs / floor,
        holds=norm_s_sq <= rhs,
        rhs=rhs,
        factor=factor,
    )
