"""Empirical norms, wild responses, wild optimism, and subsample averages.

These are the arithmetic primitives the refit engine is built from.  All
operations are pure functions over numpy vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, EmptyInputError, NonFiniteDataError
from .sampling import Subsample

__all__ = [
    "MetricsError",
    "EmptyInputError",
    "ShapeMismatchError",
    "OptimismPair",
    "empirical_norm",
    "wild_responses",
    "wild_optimism",
    "ht_average",
]


class MetricsError(ConfigError):
    """Base class for metric computation failures."""


class ShapeMismatchError(MetricsError):
    pass


@dataclass(frozen=True)
class OptimismPair:
    """Wild optimism of the plus-direction and minus-direction refits."""

    opt_tilde: float
    opt_check: float

    def __post_init__(self):
        if not (np.isfinite(self.opt_tilde) and np.isfinite(self.opt_check)):
            raise NonFiniteDataError("optimism values must be finite")

    @property
    def total(self) -> float:
        return self.opt_tilde + self.opt_check


def _vec(values, name: str) -> np.ndarray:
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise EmptyInputError(f"{name} is empty")
    return v


def _same_length(*pairs) -> None:
    lengths = {arr.shape[0] for arr, _ in pairs}
    if len(lengths) > 1:
        detail = ", ".join(f"{name}={arr.shape[0]}" for arr, name in pairs)
        raise ShapeMismatchError(f"length mismatch: {detail}")


def empirical_norm(values) -> float:
    """Root mean square of a vector: sqrt((1/k) sum values_i^2).

    Evaluating a function on the full dataset gives its empirical L2 norm;
    restricting the values to a subsample gives the subsample norm.
    """
    v = _vec(values, "values")
    return float(np.sqrt(np.mean(np.square(v))))


def wild_responses(breve_vals, signs, residuals, rho: float, direction: str) -> np.ndarray:
    """Perturbed pseudo-responses around the trained predictor.

    ``plus`` gives breve + rho * sign * residual, ``minus`` the mirrored
    perturbation.  ``rho`` must be strictly positive.
    """
    b = _vec(breve_vals, "breve_vals")
    e = _vec(signs, "signs")
    v = _vec(residuals, "residuals")
    _same_length((b, "breve_vals"), (e, "signs"), (v, "residuals"))
    if rho <= 0:
        raise MetricsError(f"rho must be positive, got {rho}")
    if direction == "plus":
        return b + rho * e * v
    if direction == "minus":
        return b - rho * e * v
    raise MetricsError(f"direction must be 'plus' or 'minus', got {direction!r}")


def wild_optimism(signs, residuals, wild_vals, breve_vals) -> float:
    """(1/m) sum_i sign_i * residual_i * (wild_i - breve_i)."""
    e = _vec(signs, "signs")
    v = _vec(residuals, "residuals")
    w = _vec(wild_vals, "wild_vals")
    b = _vec(breve_vals, "breve_vals")
    _same_length((e, "signs"), (v, "residuals"), (w, "wild_vals"), (b, "breve_vals"))
    return float(np.mean(e * v * (w - b)))


def ht_average(full_signs, full_residuals, full_diff_vals, sub: Subsample) -> float:
    """Subsample average (1/m) sum_{i in S} sign_i * residual_i * diff_i.

    With diff_i = f(x_i) - breve(x_i) this is the inverse-inclusion-weighted
    estimator of the full-data average; its mean over all size-m subsets
    equals the full-data value exactly.  Negate the diff values to obtain
    the mirrored-direction estimator.
    """
    e = _vec(full_signs, "full_signs")
    v = _vec(full_residuals, "full_residuals")
    g = _vec(full_diff_vals, "full_diff_vals")
    _same_length((e, "full_signs"), (v, "full_residuals"), (g, "full_diff_vals"))
    if sub.n != e.shape[0]:
        raise ShapeMismatchError(f"subsample parent size {sub.n} != vector length {e.shape[0]}")
    idx = sub.indices
    return float(np.mean(e[idx] * v[idx] * g[idx]))
