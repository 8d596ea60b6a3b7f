"""Domain types, the black-box trainer interface, and the warm-up phase.

The warm-up trains the full-scale predictor, computes recentering residuals
against a pilot predictor, and draws the Rademacher sign sequence that every
later resampling round reuses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

__all__ = [
    "WildriffError",
    "ConfigError",
    "EvaluationError",
    "TrainerFailedError",
    "NonFiniteDataError",
    "EmptyInputError",
    "InvalidDataError",
    "BadConfigError",
    "BoundError",
    "BadParamError",
    "DecayRegimeError",
    "ConvergenceWarning",
    "RegressionDataset",
    "PredictorHandle",
    "TrainerOracle",
    "RefitState",
    "EvaluationConfig",
    "check_real",
    "check_integer",
    "check_t",
    "derive_rng",
    "derive_seed",
    "warm_up",
    "estimate_tau",
]


class WildriffError(Exception):
    """Base class of every package error: either a `ConfigError` (the CLI
    exits 2) or an `EvaluationError` (exit 3)."""


class ConfigError(WildriffError, ValueError):
    """A setting or input is at fault, wherever in a run that shows."""


# The name under which callers catch a failed `EvaluationConfig` validation.
BadConfigError = ConfigError


class EvaluationError(WildriffError, RuntimeError):
    """The evaluation failed on valid settings."""


class TrainerFailedError(EvaluationError):
    """The black-box trainer, or a predictor it returned, raised or returned
    output of the wrong shape."""


class NonFiniteDataError(EvaluationError):
    """A dataset, prediction, or residual contains NaN or infinity."""


class EmptyInputError(ConfigError):
    """An operation received an empty vector."""


class InvalidDataError(ConfigError):
    """Input data of the wrong shape or outside the unit cube."""


class BoundError(ConfigError):
    """Base class for bound-assembly failures."""


class BadParamError(BoundError):
    pass


class DecayRegimeError(BoundError):
    """Decay exponent too small for the requested dimension."""


class ConvergenceWarning(UserWarning):
    """A trainer's iterative solver stopped before its convergence test held."""


def check_real(name: str, value, error: type = ConfigError) -> None:
    """Raise ``error`` unless ``value`` is a finite int or float (not a bool)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not np.isfinite(value)):
        raise error(f"{name} must be a finite number, got {value!r}")


def check_integer(name: str, value, error: type = ConfigError) -> None:
    """Raise ``error`` unless ``value`` is an int; a bool or a whole float is not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")


def check_t(t: float, tau: float) -> None:
    """Raise `BadParamError` unless the radius confidence parameter t
    exceeds max(3, 4 tau), as the radius estimate requires."""
    if not (t > 4.0 * tau and t > 3.0):
        raise BadParamError(f"need t > max(3, 4*tau) = {max(3.0, 4.0 * tau)}, got t={t}")


_SEED_MASK = (1 << 64) - 1


def _tag_to_int(tag: str) -> int:
    digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def derive_rng(seed: int, tag: str, *indices: int) -> np.random.Generator:
    """Build a generator from (master seed, string tag, indices).

    Every source of randomness in the package flows through this derivation,
    so results do not depend on the order in which rounds execute.
    """
    entropy = [int(seed) & _SEED_MASK, _tag_to_int(tag)]
    entropy.extend(int(i) & _SEED_MASK for i in indices)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(seed: int, tag: str, *indices: int) -> int:
    """Collapse (seed, tag, indices) to a single reproducible integer seed."""
    return int(derive_rng(seed, tag, *indices).integers(0, _SEED_MASK, dtype=np.uint64))


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _checked_data(xs, ys: np.ndarray, rows: Optional[np.ndarray] = None):
    """Read-only float64 copies of covariates and responses, once every
    `RegressionDataset` check has passed.

    Row i of ``ys`` is the response at point i, or, given ``rows`` (one row
    of point indices per column of a 2-d ``ys``), entry (i, c) is the
    response at point ``rows[c, i]``.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if rows is None and xs.shape[0] != ys.shape[0]:
        raise InvalidDataError(
            f"covariates ({xs.shape[0]}) and responses ({ys.shape[0]}) disagree in length"
        )
    if rows is not None and (rows.shape != ys.shape[::-1]
                             or not np.issubdtype(rows.dtype, np.integer)):
        raise InvalidDataError(
            f"rows must be an integer array of shape {ys.shape[::-1]}, one row of point "
            f"indices per response column; got a {rows.dtype} array of shape {rows.shape}")
    if xs.shape[0] < 1 or xs.shape[1] < 1 or ys.shape[0] < 1:
        raise EmptyInputError("dataset needs n >= 1 and d >= 1")
    if rows is not None and rows.size and (rows.min() < 0 or rows.max() >= xs.shape[0]):
        raise InvalidDataError(f"rows must index the {xs.shape[0]} covariate points")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise NonFiniteDataError("dataset contains non-finite entries")
    if xs.min() < 0.0 or xs.max() > 1.0:
        raise InvalidDataError("covariate coordinates must lie in [0, 1]")
    return _frozen_array(xs), _frozen_array(ys)


@dataclass(frozen=True)
class RegressionDataset:
    """Covariates in the unit cube plus real responses.

    Parameters
    ----------
    xs : array-like of shape (n, d)
        Covariates; every coordinate must lie in [0, 1].
    ys : array-like of shape (n,)
        Real responses.

    Both are stored as read-only float64 copies; the caller's arrays are
    left as they were.
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        ys = np.asarray(self.ys, dtype=float)
        xs, ys = _checked_data(self.xs, ys if ys.ndim == 1 else ys.ravel())
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def d(self) -> int:
        return self.xs.shape[1]


class PredictorHandle:
    """Opaque evaluable map from points in [0, 1]^d to real predictions.

    Wraps a vectorized function taking an (n, d) array and returning an
    (n,) array.  Handles are deterministic and total on the unit cube.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], name: str = "predictor",
                 meta: Optional[dict] = None):
        self._fn = fn
        self.name = name
        self.meta = dict(meta or {})

    def predict(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        out = np.asarray(self._fn(xs), dtype=float).ravel()
        if out.shape[0] != xs.shape[0]:
            raise TrainerFailedError(
                f"{self.name}: expected {xs.shape[0]} predictions, got {out.shape[0]}"
            )
        return out

    __call__ = predict

    def __repr__(self):
        return f"PredictorHandle({self.name!r})"


@dataclass(frozen=True)
class TrainerOracle:
    """A black-box fitting procedure: (dataset, seed) -> PredictorHandle.

    ``optimization_tol`` declares how far the achieved empirical risk may sit
    above the class minimum; exact solvers declare a solver-precision value.
    A `WildriffError` from ``fit_fn`` passes through as raised; any other
    exception becomes a `TrainerFailedError`.

    ``fit_multi_fn(xs, Y, seeds, rows)``, optional, fits every column of
    ``Y`` (m x c) in one call, column c on the points ``xs[rows[c]]`` of the
    (c x m) integer array ``rows``, and returns one handle per column, each
    the handle ``fit_fn`` would return for that column, its points and its
    seed, up to float rounding when the trainer solves columns together.
    `fit_multi` uses it when set and loops over ``fit`` otherwise.

    ``predict_multi_fn(handles, xs)``, optional, is its prediction twin: one
    call returns a (len(handles), n) array whose row i is
    ``handles[i].predict(xs)``, up to float rounding when the trainer
    predicts handles together.  It must accept any handle, predicting one it
    did not make through that handle's own ``predict``.  `predict_multi`
    uses it when set and loops over ``predict`` otherwise.

    ``linear_smoother`` declares two things of every `fit_multi` column:
    its fitted function is linear in that column's responses, and it does
    not depend on the column's seed.  A fixed-grid evaluate then fits two
    columns per subsample, the trained predictor's values and the signed
    residuals, and derives every noise scale's refits from that pair.  The
    engine does not check the declaration: a trainer that declares it
    falsely gets wrong bounds.

    ``pair_moments_fn(base, handles, xs, weights)``, optional, serves a
    linear smoother's fixed-grid evaluate.  ``handles`` is
    [a_1, b_1, ..., a_K, b_K] and ``weights`` a (w x n) array.  With
    D_k = a_k - base and B_k = b_k on ``xs``, it returns the five arrays
    (wd, wb, dd, db, bb): the means over ``xs`` of weights * D_k and
    weights * B_k, each of shape (w, K), and of D_k * D_k, D_k * B_k and
    B_k * B_k, each of shape (K,).  It may return None to decline, and the
    engine then predicts the 2K handles on ``xs`` and takes the means from
    their values.  `pair_moments` checks the shapes and finiteness only:
    a hook whose moments are not those of its handles gets wrong bounds,
    as a false ``linear_smoother`` does.
    """

    name: str
    fit_fn: Callable[[RegressionDataset, int], PredictorHandle] = field(repr=False)
    optimization_tol: float = 0.0
    fit_multi_fn: Optional[Callable[..., Sequence[PredictorHandle]]] = field(default=None,
                                                                          repr=False)
    predict_multi_fn: Optional[Callable[..., np.ndarray]] = field(default=None, repr=False)
    linear_smoother: bool = False
    pair_moments_fn: Optional[Callable[..., Optional[Sequence[np.ndarray]]]] = field(
        default=None, repr=False)

    def fit(self, dataset: RegressionDataset, seed: int) -> PredictorHandle:
        return self._call(self.fit_fn, dataset, int(seed))

    def fit_multi(self, xs, Y, seeds: Sequence[int],
                  rows=None) -> List[PredictorHandle]:
        """Fit column c of ``Y`` (m x c) on ``xs[rows[c]]`` with ``seeds[c]``,
        for every c; without ``rows``, every column on all of ``xs``.

        The data pass the `RegressionDataset` checks, with the same errors,
        and ``rows`` of the wrong shape, not integer or not indexing ``xs``
        raise `InvalidDataError`.  Returns the c handles in column order.
        """
        seeds = [int(s) for s in seeds]
        Y = np.asarray(Y, dtype=float)
        if Y.ndim != 2 or Y.shape[1] != len(seeds):
            raise InvalidDataError(
                f"need one response column per seed; got shape {Y.shape}, {len(seeds)} seeds")
        if rows is not None:
            try:
                rows = _frozen_array(rows, dtype=None)
            except ValueError as exc:   # ragged rows
                raise InvalidDataError(f"rows must be a (c x m) integer array: {exc}") from exc
        xs, Y = _checked_data(xs, Y, rows)
        if rows is None:
            rows = np.broadcast_to(np.arange(xs.shape[0]), Y.shape[::-1])
        if self.fit_multi_fn is None:
            return [self.fit(RegressionDataset(xs[r], y), s) for r, y, s in zip(rows, Y.T, seeds)]
        if not seeds:
            return []
        handles = list(self._call(self.fit_multi_fn, xs, Y, seeds, rows))
        if len(handles) != len(seeds):
            raise TrainerFailedError(
                f"trainer {self.name!r} returned {len(handles)} predictors "
                f"for {len(seeds)} response columns")
        return handles

    def predict_multi(self, handles: Sequence[PredictorHandle], xs) -> np.ndarray:
        """Row i is ``handles[i]`` predicted on ``xs``: shape (len(handles), n).

        The engine reads every prediction through here.  A foreign exception
        becomes a `TrainerFailedError`, as in `fit`, and so does a result of
        the wrong shape; a non-finite prediction raises `NonFiniteDataError`.
        The result is C-ordered, copied only when ``predict_multi_fn``'s
        is not.
        """
        handles = list(handles)
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        if not handles:
            return np.empty((0, xs.shape[0]))
        vals = np.asarray(self._call(self.predict_multi_fn or _predict_each, handles, xs),
                          dtype=float)
        if vals.shape != (len(handles), xs.shape[0]):
            raise TrainerFailedError(
                f"trainer {self.name!r} returned predictions of shape {vals.shape} "
                f"for {len(handles)} predictors on {xs.shape[0]} points")
        if not np.all(np.isfinite(vals)):
            raise NonFiniteDataError(f"trainer {self.name!r} predicted non-finite values")
        # Each row of a C-ordered block reduces bit for bit as it would alone.
        return np.ascontiguousarray(vals)

    def pair_moments(self, base: PredictorHandle, handles: Sequence[PredictorHandle], xs,
                     weights) -> Optional[tuple]:
        """``pair_moments_fn``'s five moment arrays for the pairs
        (``handles[2k]`` - ``base``, ``handles[2k + 1]``) on ``xs``, or None
        when the hook is unset or declines.

        Errors follow `predict_multi`: a foreign exception or a result of
        the wrong shape becomes a `TrainerFailedError`, and a non-finite
        moment raises `NonFiniteDataError`.
        """
        if self.pair_moments_fn is None:
            return None
        handles = list(handles)
        if len(handles) % 2:
            raise InvalidDataError(f"need handles in pairs, got {len(handles)}")
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        weights = np.atleast_2d(np.asarray(weights, dtype=float))
        moments = self._call(self.pair_moments_fn, base, handles, xs, weights)
        if moments is None:
            return None
        pairs = len(handles) // 2
        shapes = [(len(weights), pairs)] * 2 + [(pairs,)] * 3
        try:
            moments = tuple(np.asarray(m, dtype=float) for m in moments)
        except (TypeError, ValueError) as exc:
            raise TrainerFailedError(
                f"trainer {self.name!r} returned pair moments that are not arrays: {exc}") from exc
        if [m.shape for m in moments] != shapes:
            raise TrainerFailedError(
                f"trainer {self.name!r} returned pair moments of shapes "
                f"{[m.shape for m in moments]}, expected {shapes}")
        if not all(np.all(np.isfinite(m)) for m in moments):
            raise NonFiniteDataError(f"trainer {self.name!r} returned non-finite pair moments")
        return moments

    def _call(self, fn, *args):
        try:
            return fn(*args)
        except WildriffError:
            raise
        except Exception as exc:
            raise TrainerFailedError(f"trainer {self.name!r} failed: {exc}") from exc


def _predict_each(handles: Sequence[PredictorHandle], xs: np.ndarray) -> np.ndarray:
    out = np.empty((len(handles), xs.shape[0]))
    for row, handle in zip(out, handles):
        row[:] = handle.predict(xs)
    return out


@dataclass(frozen=True)
class RefitState:
    """Warm-up outputs shared by every resampling round.  ``pilot_vals`` is
    ``breve_vals`` itself when the trained predictor is the pilot."""

    breve_f: PredictorHandle
    pilot_f: PredictorHandle
    residuals: np.ndarray
    signs: np.ndarray
    breve_vals: np.ndarray
    pilot_vals: np.ndarray
    seed: int

    def __post_init__(self):
        breve_vals = _frozen_array(self.breve_vals)
        pilot_vals = (breve_vals if self.pilot_vals is self.breve_vals
                      else _frozen_array(self.pilot_vals))
        object.__setattr__(self, "residuals", _frozen_array(self.residuals))
        object.__setattr__(self, "breve_vals", breve_vals)
        object.__setattr__(self, "pilot_vals", pilot_vals)
        signs = _frozen_array(self.signs)
        if not np.all(np.abs(signs) == 1.0):
            raise NonFiniteDataError("signs must take values in {-1, +1}")
        if not signs.shape == breve_vals.shape == pilot_vals.shape == self.residuals.shape:
            raise NonFiniteDataError("residuals, signs, and predictions must share a length")
        object.__setattr__(self, "signs", signs)

    @property
    def n(self) -> int:
        return self.residuals.shape[0]


@dataclass(frozen=True)
class EvaluationConfig:
    """Knobs for one evaluation run.

    ``tau`` may be a positive float or the string ``"estimate"``, in which
    case the residual-maximum estimate is used wherever the noise bound
    appears.  ``t`` defaults to ``refit.default_t(tau)``, that is
    ``max(3, 4*tau) + 0.1``, when omitted.  A given ``t`` must exceed
    max(3, 4*tau): it is checked here against a given tau, and against an
    estimated one right after the warm-up fit, before any refit.

    Each engine reads its own settings.  Fixed-grid mode runs every scale
    of ``rho_grid`` and reads no ``K1``, ``tol_rho`` or ``tune_max_iter``.
    Tuned mode runs its ``K1`` radius rounds at ``rho_grid[0]``, or at 1.0
    when the grid is empty, and reads no later grid entry.  Every round's
    subsample is a uniform draw without replacement, by partial
    Fisher-Yates, seeded from ``seed``.
    """

    K: int = 30
    K1: int = 0
    beta: float = 0.6
    rho_mode: str = "fixed-grid"          # "fixed-grid" | "tuned"
    rho_grid: tuple = (0.1, 0.5, 1.0, 2.0, 5.0)
    delta: float = 0.05
    tau: Union[float, str] = "estimate"
    t: Optional[float] = None
    w_bar: float = 1.0
    w_under: float = 1.0
    v: float = 1.0
    M_v: float = 0.0
    tol_rho: float = 0.05
    seed: int = 0
    radius_constant: float = 1.0          # unnamed constant in the radius additives
    log_term_constant: float = 1.0
    tune_max_iter: int = 40

    def __post_init__(self):
        try:
            grid = tuple(self.rho_grid)
        except TypeError as exc:
            raise BadConfigError(f"rho_grid must be a list of numbers: {exc}") from exc
        for rho in grid:
            check_real("rho_grid entries", rho)
        object.__setattr__(self, "rho_grid", tuple(float(r) for r in grid))
        if len({f"{r:g}" for r in self.rho_grid}) < len(self.rho_grid):
            raise BadConfigError(f"rho_grid entries {self.rho_grid} share a report label "
                                 "(each scale is labelled by its value to 6 significant digits)")
        for name in ("beta", "delta", "w_bar", "w_under", "v", "M_v", "tol_rho",
                     "radius_constant", "log_term_constant"):
            check_real(name, getattr(self, name))
        if self.t is not None:
            check_real("t", self.t)
        if self.tau != "estimate":
            check_real("tau", self.tau)
        for name in ("K", "K1", "tune_max_iter", "seed"):
            check_integer(name, getattr(self, name))
        if self.K < 1:
            raise BadConfigError("K must be a positive integer")
        if not (0 <= self.K1 < self.K):
            raise BadConfigError("K1 must satisfy 0 <= K1 < K")
        if not (0.0 < self.beta < 1.0):
            raise BadConfigError("beta must lie in (0, 1)")
        if self.rho_mode not in ("fixed-grid", "tuned"):
            raise BadConfigError(f"unknown rho_mode {self.rho_mode!r}")
        if self.rho_mode == "tuned" and self.K1 < 1:
            raise BadConfigError("tuned mode needs K1 >= 1 warm-up rounds")
        if self.rho_mode == "fixed-grid" and len(self.rho_grid) == 0:
            raise BadConfigError("fixed-grid mode needs a non-empty rho_grid")
        if any(r <= 0 for r in self.rho_grid):
            raise BadConfigError("rho values must be positive")
        if not (0.0 < self.delta < 1.0):
            raise BadConfigError("delta must lie in (0, 1)")
        if self.tau != "estimate" and self.tau <= 0:
            raise BadConfigError("tau must be a positive number or 'estimate'")
        if self.v <= 0:
            raise BadConfigError("v must be positive")
        if self.t is not None:
            # An estimated tau is checked once the warm-up has measured it.
            check_t(self.t, 0.0 if self.tau == "estimate" else self.tau)
        if self.w_under <= 0 or self.w_bar < self.w_under:
            raise BadParamError(
                f"need 0 < w_under <= w_bar; got w_under={self.w_under}, w_bar={self.w_bar}")
        if self.tol_rho <= 0:
            raise BadConfigError("tol_rho must be positive")
        if self.tune_max_iter < 1:
            raise BadConfigError("tune_max_iter must be a positive integer")
        if self.radius_constant < 0 or self.log_term_constant < 0:
            raise BadConfigError("radius_constant and log_term_constant must be >= 0")

    def subsample_size(self, n: int) -> int:
        m = int(round(n ** self.beta))
        m = max(1, min(m, n))
        return m


def warm_up(dataset: RegressionDataset, trainer: TrainerOracle,
            pilot: Optional[PredictorHandle] = None, seed: int = 0) -> RefitState:
    """Train the full-scale predictor and prepare residuals and signs.

    The pilot predictor defaults to the trained predictor itself; one
    `TrainerOracle.predict_multi` call checks both.  Signs are i.i.d.
    uniform on {-1, +1}, drawn once here and reused by every round.
    """
    [breve_f] = trainer.fit_multi(dataset.xs, dataset.ys[:, None], [seed])
    pilot_f = pilot if pilot is not None else breve_f
    vals = trainer.predict_multi([breve_f] if pilot is None else [breve_f, pilot], dataset.xs)
    breve_vals = vals[0]
    pilot_vals = breve_vals if pilot is None else vals[1]

    rng = derive_rng(seed, "signs")
    signs = rng.integers(0, 2, size=dataset.n).astype(float) * 2.0 - 1.0

    return RefitState(
        breve_f=breve_f,
        pilot_f=pilot_f,
        residuals=dataset.ys - pilot_vals,
        signs=signs,
        breve_vals=breve_vals,
        pilot_vals=pilot_vals,
        seed=int(seed),
    )


def estimate_tau(residuals: np.ndarray) -> float:
    """Noise-bound estimate: the maximum absolute residual."""
    v = np.asarray(residuals, dtype=float).ravel()
    if v.size == 0:
        raise EmptyInputError("cannot estimate a noise bound from no residuals")
    if not np.all(np.isfinite(v)):
        raise NonFiniteDataError("residuals contain non-finite entries")
    return float(np.max(np.abs(v)))
