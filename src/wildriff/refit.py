"""Evaluation engines and excess-risk bound assembly.

`evaluate` drives the full pipeline: warm-up, K resampling rounds of wild
refitting (at fixed noise scales or with per-round tuning), and assembly of
the fixed-design and random-design risk bounds with every additive term
itemized.

Suprema over function balls are approximated by maximizing over the fitted
predictors the procedure materializes (the wild predictors attain the
sub-scale suprema for exact solvers, which makes them the canonical
candidates).  Every report flags these quantities as proxies, not exact
suprema.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import (
    BadParamError,
    BoundError,
    DecayRegimeError,
    EvaluationError,
    TrainerFailedError,
    EvaluationConfig,
    PredictorHandle,
    RefitState,
    RegressionDataset,
    TrainerOracle,
    check_t,
    derive_seed,
    estimate_tau,
    warm_up,
)
# Rounds are scored row-wise over a value block (`_sub_scores`), not through
# `wild_optimism`; the name stays because perfbench's tracer patches it here.
from .metrics import OptimismPair, empirical_norm, wild_optimism, wild_responses
from .sampling import Subsample, srswor

__all__ = [
    "BoundError",
    "BadParamError",
    "DecayRegimeError",
    "TuneError",
    "NoBracketError",
    "NonMonotoneWarning",
    "WildRound",
    "CandidateBlock",
    "RadiusEstimate",
    "RiskBoundReport",
    "TuneResult",
    "run_round",
    "candidate_block",
    "deviation_term",
    "r_tilde",
    "tune_noise_scale",
    "default_t",
    "estimate_radius",
    "pilot_error_proxy",
    "process_sup_proxy",
    "evaluate",
    "evaluate_with_state",
]


class TuneError(EvaluationError):
    """Base class for noise-scale tuning failures."""


class NoBracketError(TuneError):
    """No noise scale brackets the target norm within the refit budget."""


class NonMonotoneWarning(UserWarning):
    """Refit distance decreased noticeably while the noise scale grew."""


@dataclass(frozen=True)
class WildRound:
    """Artifacts of one resample-and-refit round."""

    k: int
    sub: Subsample
    rho1: float
    rho2: float
    tilde_f: PredictorHandle
    check_f: PredictorHandle
    optimism: OptimismPair
    norm_tilde: float
    norm_check: float
    trainer_tol: float


@dataclass(frozen=True)
class RadiusEstimate:
    """High-probability upper bound on the full-data distance to the truth."""

    r: float
    branch: str
    components: dict
    t: float


@dataclass
class RiskBoundReport:
    """Assembled excess-risk upper bound with every additive term itemized.

    ``fixed_design_bound`` is exactly ``mean_opt_tilde + mean_opt_check +
    deviation + pilot_proxy``; ``wild_optimism_bound`` is the optimism sum
    alone, the quantity the synthetic experiments compare against the
    Monte-Carlo excess risk.
    """

    label: str
    n: int
    m: int
    d: int
    k_rounds_used: int
    mean_opt_tilde: float
    mean_opt_check: float
    wild_optimism_bound: float
    deviation: float
    pilot_proxy: float
    r: float
    r_tilde: float
    fixed_design_bound: float
    random_design_bound: float
    log_term: float
    tau: float
    t: float
    delta: float
    confidence_fixed: float
    confidence_random: float
    pilot_flags: List[str] = field(default_factory=list)
    rounds: List[WildRound] = field(default_factory=list)
    config: Optional[EvaluationConfig] = None


class TuneResult(NamedTuple):
    rho: float
    predictor: PredictorHandle
    achieved_norm: float
    iterations: int
    converged: bool
    optimism: float   # the predictor's wild optimism on the tuned subsample


class CandidateBlock(NamedTuple):
    """Candidates scored on the full data, one entry each: the distance
    ||f - breve||_n, the noise score mean(eps*v*(f - breve)) and the pilot
    score mean(eps*(pilot - f*)*(f - breve)), None unless scored with a truth f*."""

    dists: np.ndarray
    scores: np.ndarray
    pilot_scores: Optional[np.ndarray] = None


# ---------------------------------------------------------------------------
# Closed-form terms
# ---------------------------------------------------------------------------

def deviation_term(r: float, tau: float, delta: float, n: int, K: int) -> float:
    """Probability deviation term of the fixed-design bound.

    r * 10*sqrt(2)*tau*sqrt(log(1/delta))/sqrt(n)
      + 32*r*tau*sqrt(log(K/delta))/sqrt(K)
    """
    if r < 0 or tau < 0 or not (0.0 < delta < 1.0) or n < 1 or K < 1:
        raise BadParamError(
            f"need r >= 0, tau >= 0, delta in (0,1), n >= 1, K >= 1; "
            f"got r={r}, tau={tau}, delta={delta}, n={n}, K={K}"
        )
    first = r * 10.0 * math.sqrt(2.0) * tau * math.sqrt(math.log(1.0 / delta)) / math.sqrt(n)
    second = 32.0 * r * tau * math.sqrt(math.log(K / delta)) / math.sqrt(K)
    return first + second


def _shell_constant(d: int) -> float:
    # Integer points on a max-norm shell of radius rho: at most 2d(3 rho)^(d-1).
    return 2.0 * d * 3.0 ** (d - 1)


def r_tilde(r: float, n: int, beta: float, d: int, v: float, M_v: float,
            w_bar: float = 1.0, w_under: float = 1.0) -> float:
    """Inflated target radius for the subsample-norm noise-scale condition.

    d = 1:  3*sqrt(w_bar/w_under)*r
            + 7*sqrt(w_bar)*M_v/sqrt((2v-1)*w_under)
              * (log n)^(v-1/2) / sqrt(n^(beta*(2v-1)))
    d > 1:  3*sqrt(w_bar/w_under)*r
            + 4*M_v*sqrt(w_bar*S_d/(w_under*(2v-d)))
              * (log n)^(v-d/2) / n^((v-d/2)*beta/(2d+1)),  S_d = 2d*3^(d-1)

    The decay term vanishes when M_v = 0; otherwise v > d/2 is required.
    """
    if r < 0 or n < 1 or not (0.0 < beta < 1.0) or d < 1 or M_v < 0:
        raise BadParamError(
            f"need r >= 0, n >= 1, beta in (0,1), d >= 1, M_v >= 0; "
            f"got r={r}, n={n}, beta={beta}, d={d}, M_v={M_v}"
        )
    if w_under <= 0 or w_bar < w_under:
        raise BadParamError(f"need 0 < w_under <= w_bar; got w_under={w_under}, w_bar={w_bar}")
    main = 3.0 * math.sqrt(w_bar / w_under) * r
    if M_v == 0:
        return main
    if v <= d / 2.0:
        raise DecayRegimeError(f"decay exponent v={v} must exceed d/2={d / 2.0} when M_v > 0")
    logn = math.log(n)
    if d == 1:
        decay = (7.0 * math.sqrt(w_bar) * M_v / math.sqrt((2.0 * v - 1.0) * w_under)
                 * logn ** (v - 0.5) / math.sqrt(n ** (beta * (2.0 * v - 1.0))))
    else:
        s_d = _shell_constant(d)
        decay = (4.0 * M_v * math.sqrt(w_bar * s_d / (w_under * (2.0 * v - d)))
                 * logn ** (v - d / 2.0) / n ** ((v - d / 2.0) * beta / (2.0 * d + 1.0)))
    return main + decay


def _log_term(n: int, d: int, v: float, delta: float, w_bar: float, w_under: float,
              constant: float) -> float:
    """Random-design localization slack, clamped at zero for degenerate n."""
    if n < 2:
        return 0.0
    raw = (constant * (w_bar / w_under) * math.log(n) * math.log(math.log(n))
           * math.log(1.0 / delta) / n ** (1.0 - d / (2.0 * v)))
    return max(0.0, raw)


# ---------------------------------------------------------------------------
# Candidate-set suprema
# ---------------------------------------------------------------------------

_SCORE_TILE_ENTRIES = 1 << 14   # values per row tile of `_row_scores`


def _row_scores(vals: np.ndarray, breve: np.ndarray,
                weights: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's RMS distance to ``breve`` and, per weight vector w, its
    mean of w * (row - breve): shapes (c,) and (len(weights), c).

    Row tiles reduce along axis 1, bit for bit as `empirical_norm` and a
    one-row `np.mean` do, and never write ``vals``, which a trainer's
    ``predict_multi_fn`` may keep.
    """
    dists = np.empty(len(vals))
    scores = np.empty((len(weights), len(vals)))
    step = max(1, _SCORE_TILE_ENTRIES // vals.shape[1])
    for lo in range(0, len(vals), step):
        diff = vals[lo:lo + step] - breve
        for out, w in zip(scores, weights):
            out[lo:lo + step] = np.mean(w * diff, axis=1)
        dists[lo:lo + step] = np.sqrt(np.mean(np.square(diff, out=diff), axis=1))
    return dists, scores


def _score_weights(state: RefitState, fstar_vals: Optional[np.ndarray]) -> List[np.ndarray]:
    """The full-data weights of a candidate's noise score and, with the
    truth's values ``fstar_vals``, of its pilot score."""
    weights = [state.signs * state.residuals]
    if fstar_vals is not None:
        weights.append(state.signs * (state.pilot_vals - fstar_vals))
    return weights


def candidate_block(state: RefitState, vals: np.ndarray,
                    fstar_vals: Optional[np.ndarray] = None) -> CandidateBlock:
    """Score candidates from their full-data values, one row of ``vals``
    each; with the truth's values ``fstar_vals``, pilot scores too."""
    dists, scores = _row_scores(vals, state.breve_vals, _score_weights(state, fstar_vals))
    return CandidateBlock(dists, *scores)


class _PairMoments(NamedTuple):
    """Full-data moments of linear-smoother refit pairs (a, b), one entry
    per pair, with D = a - breve: the means of w * D and w * B per weight
    vector w (shape (len(weights), pairs)), and of D * D, D * B and B * B."""

    wd: np.ndarray
    wb: np.ndarray
    dd: np.ndarray
    db: np.ndarray
    bb: np.ndarray


def _pair_moments(vals: np.ndarray, breve: np.ndarray,
                  weights: Sequence[np.ndarray]) -> _PairMoments:
    """The moments of the pairs whose full-data values are rows 2k and
    2k + 1 of ``vals``.

    Each tile of pairs takes one temporary, its D rows, of at most
    `_SCORE_TILE_ENTRIES` values; ``einsum`` sums each product in one pass
    without a temporary or a BLAS call.
    """
    n = vals.shape[1]
    pairs = vals.reshape(len(vals) // 2, 2, n)
    weights = np.stack(weights)
    wd, wb = np.empty((2, len(weights), len(pairs)))
    dd, db, bb = np.empty((3, len(pairs)))
    step = max(1, _SCORE_TILE_ENTRIES // n)
    for lo in range(0, len(pairs), step):
        tile = slice(lo, lo + step)
        diff, slope = pairs[tile, 0] - breve, pairs[tile, 1]
        wd[:, tile] = np.einsum("wj,ij->wi", weights, diff)
        wb[:, tile] = np.einsum("wj,ij->wi", weights, slope)
        dd[tile] = np.einsum("ij,ij->i", diff, diff)
        db[tile] = np.einsum("ij,ij->i", diff, slope)
        bb[tile] = np.einsum("ij,ij->i", slope, slope)
    return _PairMoments(wd / n, wb / n, dd / n, db / n, bb / n)


def _affine_block(moments: _PairMoments, rho: float) -> CandidateBlock:
    """The candidate block of the refits a + rho * b and a - rho * b of
    every pair, in that order, from the pairs' moments alone."""
    signed = np.array([rho, -rho])
    scores = (moments.wd[:, :, None] + signed * moments.wb[:, :, None]).reshape(
        len(moments.wd), -1)
    sq = (moments.dd[:, None] + 2.0 * signed * moments.db[:, None]
          + rho * rho * moments.bb[:, None])
    return CandidateBlock(np.sqrt(np.maximum(sq, 0.0)).ravel(), *scores)


def _sups(scores: np.ndarray, dists: np.ndarray, radius: float) -> Tuple[float, float]:
    """max(0, max s) and max(0, -min s), as Python floats, over the scores s
    of the candidates within ``radius``.

    The trained predictor itself sits at distance zero and scores zero, so
    neither supremum is ever negative.
    """
    inside = scores[dists <= radius]
    return max(0.0, float(inside.max(initial=0.0))), max(0.0, -float(inside.min(initial=0.0)))


def process_sup_proxy(block: CandidateBlock, radius: float) -> Tuple[float, float]:
    """Candidate-set proxies for the full-data noise complexity at a radius.

    Returns the suprema over the candidates of ``block`` within ``radius`` of
    the trained predictor of (1/n) sum eps*v*(f - breve) and of its negation.
    """
    return _sups(block.scores, block.dists, radius)


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

def _refit(dataset: RegressionDataset, trainer: TrainerOracle,
           batches: Sequence[Tuple[Subsample, Sequence[np.ndarray], Sequence[int]]]):
    """The engine's one refit step.  A batch is a subsample, its columns'
    pseudo-responses there (one vector each) and their seeds; all
    subsamples are of one size.  One `TrainerOracle.fit_multi` call fits
    every column on its subsample's points of the full data, and one
    `predict_multi` call per batch predicts its refits there: returns, per
    batch, the refits and their values on the subsample, one row each."""
    seeds = [seed for _, _, batch_seeds in batches for seed in batch_seeds]
    responses = np.empty((batches[0][0].indices.size, len(seeds)))
    rows = np.empty((len(seeds), len(responses)), dtype=np.intp)
    for c, (sub, y) in enumerate((sub, y) for sub, ys, _ in batches for y in ys):
        responses[:, c] = y
        rows[c] = sub.indices
    fits = trainer.fit_multi(dataset.xs, responses, seeds, rows)
    refits = []
    for sub, _, batch_seeds in batches:
        batch, fits = fits[:len(batch_seeds)], fits[len(batch_seeds):]
        refits.append((batch, trainer.predict_multi(batch, dataset.xs[sub.indices])))
    return refits


def _sub_scores(state: RefitState, sub: Subsample, vals: np.ndarray,
                minus: Sequence[bool]) -> Tuple[np.ndarray, np.ndarray]:
    """The engine's one round scorer: the subsample-norm distance to breve
    and the optimism of each row of ``vals``, a refit's values on ``sub``,
    with the rows flagged in ``minus`` negated (the minus direction mirrors
    f - breve; negation is exact).  Each row scores bit for bit as
    `empirical_norm` and `wild_optimism` score it alone."""
    idx = sub.indices
    norms, [opts] = _row_scores(vals, state.breve_vals[idx],
                                [state.signs[idx] * state.residuals[idx]])
    opts[minus] *= -1.0
    return norms, opts


def _refit_scores(state: RefitState, dataset: RegressionDataset, trainer: TrainerOracle,
                  batches: Sequence[Tuple[Subsample, Sequence[Tuple[float, str, int]]]]):
    """Refit the black box once per column (rho, direction, seed) of every
    (subsample, columns) batch on the column's wild pseudo-responses
    (`_refit`), and score each refit on its subsample (`_sub_scores`):
    returns, per batch, the refits, their subsample-norm distances to
    breve and their optimisms, in column order."""
    refit_batches = []
    for sub, columns in batches:
        idx = sub.indices
        breve, signs, residuals = state.breve_vals[idx], state.signs[idx], state.residuals[idx]
        refit_batches.append((sub, [wild_responses(breve, signs, residuals, rho, direction)
                                    for rho, direction, _ in columns],
                              [seed for _, _, seed in columns]))
    refits = _refit(dataset, trainer, refit_batches)
    return [(fits, *_sub_scores(state, sub, vals, [d == "minus" for _, d, _ in columns]))
            for (sub, columns), (fits, vals) in zip(batches, refits)]


def _wild_round(trainer: TrainerOracle, k: int, sub: Subsample, rhos, fits, norms,
                opts) -> WildRound:
    """Round k on ``sub`` from its plus and minus refits, in that order."""
    return WildRound(
        k=k,
        sub=sub,
        rho1=float(rhos[0]),
        rho2=float(rhos[1]),
        tilde_f=fits[0],
        check_f=fits[1],
        optimism=OptimismPair(opt_tilde=float(opts[0]), opt_check=float(opts[1])),
        norm_tilde=float(norms[0]),
        norm_check=float(norms[1]),
        trainer_tol=trainer.optimization_tol,
    )


def run_round(state: RefitState, dataset: RegressionDataset, trainer: TrainerOracle,
              sub: Subsample, rho1: float, rho2: float, seed: int, k: int = 0) -> WildRound:
    """One resample-and-refit round at fixed noise scales.

    Builds the two perturbed pseudo-datasets on the subsample, refits the
    black box on each, and records optimisms and subsample-norm distances.
    """
    [[rd]] = _run_rounds(state, dataset, trainer, [sub], [(rho1, rho2)], seed, first=k)
    return rd


@contextlib.contextmanager
def _naming_rounds(first: int, last: int):
    """Prefix a trainer failure with the rounds it stopped."""
    try:
        yield
    except TrainerFailedError as exc:
        raise TrainerFailedError(
            f"round {first}: {exc}" if first == last else f"rounds {first}-{last}: {exc}"
        ) from exc


def _run_rounds(state, dataset, trainer, subs, scales, seed, first=0) -> List[List[WildRound]]:
    """Round first + i on subsample i of ``subs`` at each (rho1, rho2) of
    ``scales``: one list of rounds per scale, in round order.

    Every refit is a column of one `_refit_scores` call: the plus and minus
    refits of every scale, in that order, subsample by subsample.  Round k's
    plus refits take one seed and its minus refits another.
    """
    ks = range(first, first + len(subs))
    batches = []
    for k, sub in zip(ks, subs):
        seeds = (derive_seed(seed, "refit-tilde", k), derive_seed(seed, "refit-check", k))
        batches.append((sub, [column for pair in scales
                              for column in zip(pair, ("plus", "minus"), seeds)]))
    with _naming_rounds(ks[0], ks[-1]):
        scored = _refit_scores(state, dataset, trainer, batches)
    return [[_wild_round(trainer, k, sub, pair, fits[2 * i:], norms[2 * i:], opts[2 * i:])
             for k, sub, (fits, norms, opts) in zip(ks, subs, scored)]
            for i, pair in enumerate(scales)]


def _refit_block(state, dataset, trainer, rounds, fstar_vals) -> CandidateBlock:
    """The rounds' refits predicted on the full data in one call, and scored."""
    refits = [f for rd in rounds for f in (rd.tilde_f, rd.check_f)]
    return candidate_block(state, trainer.predict_multi(refits, dataset.xs), fstar_vals)


def _black_box_scales(state, dataset, trainer, subs, grid, seed, fstar_vals):
    """Each scale's rounds (`_run_rounds`) and their `_refit_block`."""
    for rounds in _run_rounds(state, dataset, trainer, subs, [(rho, rho) for rho in grid], seed):
        yield rounds, _refit_block(state, dataset, trainer, rounds, fstar_vals)


def _affine_refit(trainer: TrainerOracle, base: PredictorHandle, slope: PredictorHandle,
                  rho: float) -> PredictorHandle:
    """The refit ``base + rho * slope`` of a linear smoother."""
    def predict(xs):
        a, b = trainer.predict_multi([base, slope], xs)
        return a + rho * b

    return PredictorHandle(predict, name=f"{base.name} {rho:+g} * slope")


def _linear_scales(state, dataset, trainer, subs, grid, seed, fstar_vals):
    """`_black_box_scales` for a trainer that declares
    `TrainerOracle.linear_smoother`: every refit from two fits per subsample.

    A refit on breve + rho * eps * v is a + rho * b, with a the fit of
    breve and b the fit of eps * v on the subsample (and a - rho * b in the
    minus direction), so one `_refit` step fits a and b for every
    subsample and predicts them there.  A linear smoother's fit ignores its
    seed, so each pair takes its round index k and ``seed`` goes unread.
    Every scale's candidate block is affine in rho over the pairs' full-data
    moments, which `TrainerOracle.pair_moments` gives when the trainer can,
    and one `predict_multi` call of every a and b on the full data
    otherwise.  Each subsample's rounds score the refits' values
    a ± rho * b there with `_sub_scores`.
    """
    weights = state.signs * state.residuals
    batches = [(sub, (state.breve_vals[sub.indices], weights[sub.indices]),
                [k, k]) for k, sub in enumerate(subs)]
    with _naming_rounds(0, len(subs) - 1):
        pairs = _refit(dataset, trainer, batches)
        handles = [f for fits, _ in pairs for f in fits]
        full_weights = _score_weights(state, fstar_vals)
        moments = trainer.pair_moments(state.breve_f, handles, dataset.xs, full_weights)
        moments = (_pair_moments(trainer.predict_multi(handles, dataset.xs), state.breve_vals,
                                 full_weights) if moments is None else _PairMoments(*moments))
    signed = np.repeat(grid, 2) * np.tile([1.0, -1.0], len(grid))
    per_sub = []
    for k, (sub, ((a, b), (base, slope))) in enumerate(zip(subs, pairs)):
        norms, opts = _sub_scores(state, sub, base + signed[:, None] * slope,
                                  [False, True] * len(grid))
        refits = [_affine_refit(trainer, a, b, rho) for rho in signed]
        per_sub.append([_wild_round(trainer, k, sub, (rho, rho), refits[2 * i:],
                                    norms[2 * i:], opts[2 * i:])
                        for i, rho in enumerate(grid)])
    for rho, rounds in zip(grid, zip(*per_sub)):
        yield list(rounds), _affine_block(moments, rho)


# ---------------------------------------------------------------------------
# Noise-scale tuning
# ---------------------------------------------------------------------------

def tune_noise_scale(state: RefitState, dataset: RegressionDataset, trainer: TrainerOracle,
                     sub: Subsample, target: float, direction: str = "plus",
                     tol_rel: float = 0.05, max_iter: int = 40, seed: int = 0) -> TuneResult:
    """Find rho so the refit lands at the target subsample-norm distance.

    Geometric bracketing (double/halve rho until the achieved norm brackets
    the target) followed by bisection.  Assumes the achieved norm is
    nondecreasing in rho; a decrease of more than 10x the tolerance across
    a doubling emits `NonMonotoneWarning` and continues best-effort.
    """
    if not 0.0 < target < math.inf:
        raise TuneError(f"target must be positive and finite, got {target}")
    residuals = state.residuals[sub.indices]
    if np.all(residuals == 0.0):
        raise TuneError("residuals on the subsample are all zero; nothing to scale")
    fit_seed = derive_seed(seed, "tune-fit", 0 if direction == "plus" else 1)
    tol_abs = tol_rel * target
    best = lo = hi = None   # the closest refit; (rho, norm) below / at or above the target
    gap, evals = math.inf, 0   # best's distance from the target; refits so far

    def probe(rho: float) -> float:
        nonlocal best, gap, lo, hi, evals
        [([f], [norm], [opt])] = _refit_scores(state, dataset, trainer,
                                               [(sub, [(rho, direction, fit_seed)])])
        norm = float(norm)
        evals += 1
        if best is None or abs(norm - target) < gap:
            best, gap = TuneResult(rho, f, norm, 0, False, float(opt)), abs(norm - target)
        if norm >= target:
            hi = (rho, norm)
        else:
            lo = (rho, norm)
        return norm

    rho = target / empirical_norm(residuals)   # exact for interpolating solvers
    prev_norm = probe(rho)
    grow = prev_norm < target
    while (lo is None or hi is None) and evals < max_iter:
        rho = rho * 2.0 if grow else rho / 2.0
        norm = probe(rho)
        if grow and norm < prev_norm - 10.0 * tol_abs:
            warnings.warn(
                f"achieved norm fell from {prev_norm:.3g} to {norm:.3g} while doubling rho",
                NonMonotoneWarning,
            )
        prev_norm = norm
    if (lo is None or hi is None) and gap > tol_abs:
        side = ("the class saturates below the target" if hi is None
                else "the refit error floor sits above the target")
        raise NoBracketError(
            f"no bracket for target {target:.6g} within {max_iter} refits "
            f"(closest achieved norm {best.achieved_norm:.6g}); {side}"
        )

    # Bisection; an unbracketed search gets here only when already converged.
    while gap > tol_abs and evals < max_iter:
        probe(math.sqrt(lo[0] * hi[0]))
    return best._replace(iterations=evals, converged=gap <= tol_abs)


# ---------------------------------------------------------------------------
# Radius estimation
# ---------------------------------------------------------------------------

def default_t(tau: float) -> float:
    """The radius confidence parameter used when none is set: just above
    the max(3, 4 tau) that `estimate_radius` requires."""
    return max(3.0, 4.0 * tau) + 0.1


def estimate_radius(state: RefitState, rounds: Sequence[WildRound], block: CandidateBlock,
                    t: float, tau: float, C: float = 1.0) -> RadiusEstimate:
    """Upper bound on the full-data distance between the trained predictor
    and the truth, from the warm-up rounds.

    Takes the maximum of the t^2/sqrt(n) floor, the two mean refit
    distances, and twice the summed slope proxies, adds the concentration
    additives, and divides by (1 - 4 tau / t).  Requires t > max(3, 4 tau).
    The slope proxies take the scores of ``block``, the rounds' refits.
    """
    if len(rounds) < 1:
        raise BadParamError("radius estimation needs at least one round")
    check_t(t, tau)
    sqrt_n = math.sqrt(state.n)

    r_diamond = float(np.mean([rd.norm_tilde for rd in rounds]))
    r_sharp = float(np.mean([rd.norm_check for rd in rounds]))

    inflate = 2.0 + 1.0 / t
    w_sup = process_sup_proxy(block, inflate * r_diamond)[0] if r_diamond > 0 else 0.0
    h_sup = process_sup_proxy(block, inflate * r_sharp)[1] if r_sharp > 0 else 0.0
    slope_w = w_sup / r_diamond if r_diamond > 0 else 0.0
    slope_h = h_sup / r_sharp if r_sharp > 0 else 0.0

    branches = {
        "t2_over_sqrt_n": t * t / sqrt_n,
        "r_diamond": r_diamond,
        "r_sharp": r_sharp,
        "slope": 2.0 * (slope_w + slope_h),
    }
    branch = max(branches, key=branches.get)

    additive = (inflate * 4.0 * math.sqrt(2.0) * tau * t / sqrt_n
                + 2.0 * tau * t / sqrt_n
                + C * inflate * tau * t / sqrt_n)
    denom = 1.0 - 4.0 * tau / t
    r = (branches[branch] + additive) / denom

    return RadiusEstimate(
        r=r,
        branch=branch,
        components={
            **branches,
            "slope_w": slope_w,
            "slope_h": slope_h,
            "w_sup": w_sup,
            "h_sup": h_sup,
            "additive": additive,
            "denominator": denom,
            "C": C,
        },
        t=t,
    )


# ---------------------------------------------------------------------------
# Pilot error proxy
# ---------------------------------------------------------------------------

def pilot_error_proxy(state: RefitState, refit_blocks: Sequence[CandidateBlock],
                      fstar_vals: np.ndarray, radius: float = math.inf) -> float:
    """Candidate-set proxy for the pilot error term in synthetic mode.

    The gap between the pilot and the truth on the full data, ``fstar_vals``,
    weights both supremands.  The candidates are those of ``refit_blocks``
    (scored with the same truth) plus the pilot and the truth themselves,
    restricted to the full-data ball of the given radius around the trained
    predictor.  With no truth available the term is omitted, and callers
    record the omission flag in the report.
    """
    if any(block.pilot_scores is None for block in refit_blocks):
        raise BadParamError("pilot_error_proxy needs candidate blocks scored with a truth")
    weights = state.signs * (state.pilot_vals - fstar_vals)
    dists, [scores] = _row_scores(np.stack([state.pilot_vals, fstar_vals]), state.breve_vals,
                                  [weights])
    return sum(_sups(np.concatenate([*(block.pilot_scores for block in refit_blocks), scores]),
                     np.concatenate([*(block.dists for block in refit_blocks), dists]), radius))


# ---------------------------------------------------------------------------
# Full evaluation
# ---------------------------------------------------------------------------

def _resolve_tau(config: EvaluationConfig, state: RefitState) -> float:
    if config.tau == "estimate":
        return estimate_tau(state.residuals)
    return float(config.tau)


def _assemble_report(label, state, dataset, config, rounds_for_bound, blocks,
                     r_value, rt_value, tau, t, fstar_vals) -> RiskBoundReport:
    n, d = dataset.n, dataset.d
    k_used = len(rounds_for_bound)
    mean_opt_tilde = float(np.mean([rd.optimism.opt_tilde for rd in rounds_for_bound]))
    mean_opt_check = float(np.mean([rd.optimism.opt_check for rd in rounds_for_bound]))
    deviation = deviation_term(r_value, tau, config.delta, n, k_used)

    flags = ["sup-terms-are-candidate-proxies"]
    if fstar_vals is None:
        pilot = 0.0
        flags.append("pilot-term-omitted")  # pilot equals the trained predictor;
        # the pilot error is dominated by the wild optimism for rich classes.
    else:
        pilot = pilot_error_proxy(state, blocks, fstar_vals, radius=2.0 * r_value)

    fixed = mean_opt_tilde + mean_opt_check + deviation + pilot
    ratio = config.w_bar / config.w_under
    log_term = _log_term(n, d, config.v, config.delta, config.w_bar, config.w_under,
                         config.log_term_constant)
    random_design = 4.0 * ratio * (mean_opt_tilde + mean_opt_check + deviation + pilot) + log_term

    return RiskBoundReport(
        label=label,
        n=n,
        m=config.subsample_size(n),
        d=d,
        k_rounds_used=k_used,
        mean_opt_tilde=mean_opt_tilde,
        mean_opt_check=mean_opt_check,
        wild_optimism_bound=mean_opt_tilde + mean_opt_check,
        deviation=deviation,
        pilot_proxy=pilot,
        r=r_value,
        r_tilde=rt_value,
        fixed_design_bound=fixed,
        random_design_bound=random_design,
        log_term=log_term,
        tau=tau,
        t=t,
        delta=config.delta,
        confidence_fixed=1.0 - 5.0 * config.delta,
        confidence_random=1.0 - 6.0 * config.delta,
        pilot_flags=flags,
        rounds=list(rounds_for_bound),
        config=config,
    )


def evaluate_with_state(dataset: RegressionDataset, trainer: TrainerOracle,
                        config: EvaluationConfig, pilot: Optional[PredictorHandle] = None,
                        fstar: Optional[PredictorHandle] = None):
    """Like `evaluate`, additionally returning the warm-up state."""
    n = dataset.n
    # The inflated radius's settings against the data's dimension, and an
    # explicit t against the estimated tau, are checked before any refit.
    r_tilde(0.0, n, config.beta, dataset.d, config.v, config.M_v, config.w_bar, config.w_under)
    m = config.subsample_size(n)
    subs = [srswor(n, m, "permutation", derive_seed(config.seed, "subsample", k))
            for k in range(config.K)]
    state = warm_up(dataset, trainer, pilot, config.seed)
    tau = _resolve_tau(config, state)
    t = config.t if config.t is not None else default_t(tau)
    check_t(t, tau)

    # Each refit, or each fitted pair of a linear smoother whose trainer
    # gives no pair moments, is predicted on the full data once and only
    # its scores are kept; the pilot's values come from the warm-up, the
    # truth's are predicted here, once.
    fstar_vals = None if fstar is None else trainer.predict_multi([fstar], dataset.xs)[0]

    def radius(rounds, block):
        """The radius r and inflated radius r_tilde of the rounds and their block."""
        r = estimate_radius(state, rounds, block, t, tau, C=config.radius_constant).r
        return r, r_tilde(r, n, config.beta, dataset.d, config.v, config.M_v,
                          config.w_bar, config.w_under)

    reports: List[RiskBoundReport] = []
    if config.rho_mode == "fixed-grid":
        scales = _linear_scales if trainer.linear_smoother else _black_box_scales
        for rho, (rounds, block) in zip(config.rho_grid, scales(
                state, dataset, trainer, subs, config.rho_grid, config.seed, fstar_vals)):
            r, rt = radius(rounds, block)
            reports.append(_assemble_report(f"{rho:g}", state, dataset, config, rounds, [block],
                                            r, rt, tau, t, fstar_vals))
    else:
        rho0 = config.rho_grid[0] if config.rho_grid else 1.0
        [warm_rounds] = _run_rounds(state, dataset, trainer, subs[:config.K1], [(rho0, rho0)],
                                    config.seed)
        warm_block = _refit_block(state, dataset, trainer, warm_rounds, fstar_vals)
        r, rt = radius(warm_rounds, warm_block)
        tuned_rounds, unconverged = [], 0
        for k in range(config.K1, config.K):
            plus, minus = [tune_noise_scale(state, dataset, trainer, subs[k], 2.0 * rt, direction,
                                            config.tol_rho, config.tune_max_iter,
                                            derive_seed(config.seed, "tune", k))
                           for direction in ("plus", "minus")]
            unconverged += (not plus.converged) + (not minus.converged)
            tuned_rounds.append(_wild_round(
                trainer, k, subs[k], (plus.rho, minus.rho), (plus.predictor, minus.predictor),
                (plus.achieved_norm, minus.achieved_norm), (plus.optimism, minus.optimism)))
        tuned_block = _refit_block(state, dataset, trainer, tuned_rounds, fstar_vals)
        report = _assemble_report("tuned", state, dataset, config, tuned_rounds,
                                  [warm_block, tuned_block], r, rt, tau, t, fstar_vals)
        if unconverged:
            # An unconverged tune still enters the bound at its closest
            # noise scale; say how many did.
            report.pilot_flags.append(
                f"tune-unconverged:{unconverged}/{2 * len(tuned_rounds)}")
        reports.append(report)
    return reports, state


def evaluate(dataset: RegressionDataset, trainer: TrainerOracle, config: EvaluationConfig,
             pilot: Optional[PredictorHandle] = None,
             fstar: Optional[PredictorHandle] = None) -> List[RiskBoundReport]:
    """Run the full evaluation pipeline.

    Fixed-grid mode runs K rounds at each noise scale in the grid (the same
    subsamples and signs are reused across scales) and returns one report
    per scale; for a trainer that declares `TrainerOracle.linear_smoother`,
    every scale's refits come from one fitted pair per subsample.  Tuned
    mode spends K1 rounds on radius estimation, tunes the
    noise scales so each refit lands at twice the inflated radius, and
    returns a single report over the remaining K - K1 rounds.
    """
    reports, _ = evaluate_with_state(dataset, trainer, config, pilot, fstar)
    return reports
