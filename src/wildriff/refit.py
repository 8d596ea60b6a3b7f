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

import math
import warnings
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import (
    ConfigError,
    EvaluationError,
    TrainerFailedError,
    EvaluationConfig,
    PredictorHandle,
    RefitState,
    RegressionDataset,
    TrainerOracle,
    derive_seed,
    estimate_tau,
    warm_up,
)
# Rounds are scored row-wise over a value block (`_score_rounds`), not through
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


class BoundError(ConfigError):
    """Base class for bound-assembly failures."""


class BadParamError(BoundError):
    pass


class DecayRegimeError(BoundError):
    """Decay exponent too small for the requested dimension."""


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
    sub_vals: np.ndarray   # the predictor on the tuned subsample


class CandidateBlock(NamedTuple):
    """Candidate predictors evaluated on the full data.

    ``vals`` holds one row of full-data predictions per candidate (c x n);
    ``dists`` holds each row's empirical distance to the trained predictor.
    """

    vals: np.ndarray
    dists: np.ndarray


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

def candidate_block(state: RefitState, dataset: RegressionDataset, trainer: TrainerOracle,
                    handles: Sequence[PredictorHandle]) -> CandidateBlock:
    """Predict the handles on the full data, one row per handle, in one
    `TrainerOracle.predict_multi` call of the trainer that made them."""
    return _block(state, trainer.predict_multi(handles, dataset.xs))


def _block(state: RefitState, vals: np.ndarray) -> CandidateBlock:
    return CandidateBlock(vals, np.array([empirical_norm(row - state.breve_vals) for row in vals]))


def _scored(weights: np.ndarray, breve_vals: np.ndarray,
            blocks: Sequence[CandidateBlock]) -> List[Tuple[float, float]]:
    """(s, distance) of every row of ``blocks``, s = mean(weights * (row - breve_vals))."""
    return [(float(np.mean(weights * (row - breve_vals))), dist)
            for block in blocks for row, dist in zip(block.vals, block.dists)]


def _sups(scored: Sequence[Tuple[float, float]], radius: float) -> Tuple[float, float]:
    """max(0, max s) and max(0, -min s) over the rows within ``radius``.

    The trained predictor itself sits at distance zero and scores zero, so
    neither supremum is ever negative.
    """
    inside = [s for s, dist in scored if dist <= radius]
    return max([0.0, *inside]), max([0.0, *(-s for s in inside)])


def _refits(rounds: Sequence[WildRound]) -> List[PredictorHandle]:
    return [f for rd in rounds for f in (rd.tilde_f, rd.check_f)]


def process_sup_proxy(state: RefitState, block: CandidateBlock,
                      radius: float) -> Tuple[float, float]:
    """Candidate-set proxies for the full-data noise complexity at a radius.

    Returns the suprema over the rows of ``block`` within ``radius`` of the
    trained predictor of (1/n) sum eps*v*(f - breve) and of its negation.
    """
    return _sups(_scored(state.signs * state.residuals, state.breve_vals, [block]), radius)


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

class _SubsampleRows(NamedTuple):
    """One subsample's rows: its covariates and the warm-up slices."""

    xs: np.ndarray
    breve: np.ndarray
    signs: np.ndarray
    residuals: np.ndarray


def _subsample_rows(state: RefitState, dataset: RegressionDataset,
                    sub: Subsample) -> _SubsampleRows:
    idx = sub.indices
    return _SubsampleRows(dataset.xs[idx], state.breve_vals[idx], state.signs[idx],
                          state.residuals[idx])


def run_round(state: RefitState, dataset: RegressionDataset, trainer: TrainerOracle,
              sub: Subsample, rho1: float, rho2: float, seed: int, k: int = 0) -> WildRound:
    """One resample-and-refit round at fixed noise scales.

    Builds the two perturbed pseudo-datasets on the subsample, refits the
    black box on each, and records optimisms and subsample-norm distances.
    """
    [rd] = _subsample_rounds(state, dataset, trainer, sub, [(rho1, rho2)], seed, k)
    return rd


def _subsample_rounds(state: RefitState, dataset: RegressionDataset, trainer: TrainerOracle,
                      sub: Subsample, scales: Sequence[Tuple[float, float]], seed: int,
                      k: int) -> List[WildRound]:
    """Round k on ``sub`` at each (rho1, rho2) of ``scales``, in order.

    The plus and minus pseudo-responses of every scale, in that order, are
    the columns of one matrix, refit in one `TrainerOracle.fit_multi` call
    and predicted on the subsample in one `TrainerOracle.predict_multi`
    call.  Every scale's plus refit takes one seed and every minus refit
    another.
    """
    rows = _subsample_rows(state, dataset, sub)
    responses = np.column_stack([
        wild_responses(rows.breve, rows.signs, rows.residuals, rho, direction)
        for pair in scales for rho, direction in zip(pair, ("plus", "minus"))])
    seeds = [derive_seed(seed, "refit-tilde", k), derive_seed(seed, "refit-check", k)]
    try:
        fits = trainer.fit_multi(rows.xs, responses, seeds * len(scales))
        vals = trainer.predict_multi(fits, rows.xs)
    except TrainerFailedError as exc:
        raise TrainerFailedError(f"round {k}: {exc}") from exc
    return _score_rounds(trainer, rows, sub, k, scales, fits, vals)


def _score_rounds(trainer: TrainerOracle, rows: _SubsampleRows, sub: Subsample, k: int,
                  scales: Sequence[Tuple[float, float]], fits: Sequence[PredictorHandle],
                  vals: np.ndarray) -> List[WildRound]:
    """Round k at each (rho1, rho2) of ``scales``, from its refits ``fits``
    (plus then minus, scale by scale) and their values on the subsample,
    one row of ``vals`` each.

    Row-wise reductions give every row's optimism and subsample-norm
    distance bit for bit as `wild_optimism` and `empirical_norm` give them
    for that row alone.
    """
    diff = vals - rows.breve
    # The minus-direction optimism carries the mirrored difference breve - f.
    diff[1::2] *= -1.0
    opts = np.mean(rows.signs * rows.residuals * diff, axis=1)
    norms = np.sqrt(np.mean(np.square(diff), axis=1))
    return [WildRound(
        k=k,
        sub=sub,
        rho1=float(rho1),
        rho2=float(rho2),
        tilde_f=fits[2 * i],
        check_f=fits[2 * i + 1],
        optimism=OptimismPair(opt_tilde=float(opts[2 * i]), opt_check=float(opts[2 * i + 1])),
        norm_tilde=float(norms[2 * i]),
        norm_check=float(norms[2 * i + 1]),
        trainer_tol=trainer.optimization_tol,
    ) for i, (rho1, rho2) in enumerate(scales)]


def _run_rounds(state, dataset, trainer, subs, grid, seed) -> List[List[WildRound]]:
    """Round k on subsample k at each noise scale of ``grid``, both directions.

    Subsample-major: every refit of one subsample goes to the trainer in a
    single `TrainerOracle.fit_multi` call.  Returns one list of rounds per
    scale, in k order.
    """
    scales = [(rho, rho) for rho in grid]
    per_sub = [_subsample_rounds(state, dataset, trainer, sub, scales, seed, k)
               for k, sub in enumerate(subs)]
    return [list(rounds) for rounds in zip(*per_sub)]


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
    if target <= 0:
        raise TuneError(f"target must be positive, got {target}")
    rows = _subsample_rows(state, dataset, sub)
    if np.all(rows.residuals == 0.0):
        raise TuneError("residuals on the subsample are all zero; nothing to scale")
    fit_seed = derive_seed(seed, "tune-fit", 0 if direction == "plus" else 1)

    evals = [0]

    def achieved(rho: float):
        y = wild_responses(rows.breve, rows.signs, rows.residuals, rho, direction)
        f = trainer.fit(RegressionDataset(rows.xs, y), fit_seed)
        evals[0] += 1
        [vals] = trainer.predict_multi([f], rows.xs)
        return empirical_norm(vals - rows.breve), (f, vals)

    tol_abs = tol_rel * target
    rho = target / empirical_norm(rows.residuals)   # exact for interpolating solvers
    norm, pred = achieved(rho)
    best = (abs(norm - target), rho, pred, norm)

    lo = hi = None   # lo: (rho, norm) below target; hi: at/above target
    if norm >= target:
        hi = (rho, norm)
    else:
        lo = (rho, norm)
    grow = norm < target
    prev_norm = norm
    while (lo is None or hi is None) and evals[0] < max_iter:
        rho = rho * 2.0 if grow else rho / 2.0
        norm, pred = achieved(rho)
        if abs(norm - target) < best[0]:
            best = (abs(norm - target), rho, pred, norm)
        if grow and norm < prev_norm - 10.0 * tol_abs:
            warnings.warn(
                f"achieved norm fell from {prev_norm:.3g} to {norm:.3g} while doubling rho",
                NonMonotoneWarning,
            )
        prev_norm = norm
        if norm >= target:
            hi = (rho, norm)
        else:
            lo = (rho, norm)
    if lo is None or hi is None:
        if best[0] <= tol_abs:
            return TuneResult(best[1], best[2][0], best[3], evals[0], True, best[2][1])
        side = ("the class saturates below the target" if hi is None
                else "the refit error floor sits above the target")
        raise NoBracketError(
            f"no bracket for target {target:.6g} within {max_iter} refits "
            f"(closest achieved norm {best[3]:.6g}); {side}"
        )

    while best[0] > tol_abs and evals[0] < max_iter:
        rho = math.sqrt(lo[0] * hi[0])
        norm, pred = achieved(rho)
        if abs(norm - target) < best[0]:
            best = (abs(norm - target), rho, pred, norm)
        if norm >= target:
            hi = (rho, norm)
        else:
            lo = (rho, norm)

    return TuneResult(best[1], best[2][0], best[3], evals[0], best[0] <= tol_abs, best[2][1])


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
    The slope proxies score the rows of ``block``, the rounds' refits.
    """
    if len(rounds) < 1:
        raise BadParamError("radius estimation needs at least one round")
    if not (t > 4.0 * tau and t > 3.0):
        raise BadParamError(f"need t > max(3, 4*tau) = {max(3.0, 4.0 * tau)}, got t={t}")
    sqrt_n = math.sqrt(state.n)

    r_diamond = float(np.mean([rd.norm_tilde for rd in rounds]))
    r_sharp = float(np.mean([rd.norm_check for rd in rounds]))

    inflate = 2.0 + 1.0 / t
    scored = _scored(state.signs * state.residuals, state.breve_vals, [block])
    w_sup = _sups(scored, inflate * r_diamond)[0] if r_diamond > 0 else 0.0
    h_sup = _sups(scored, inflate * r_sharp)[1] if r_sharp > 0 else 0.0
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
    weights both supremands.  The candidates are the rows of
    ``refit_blocks`` plus the pilot and the truth themselves, restricted to
    the full-data ball of the given radius around the trained predictor.
    With no truth available the term is omitted, and callers record the
    omission flag in the report.
    """
    weights = state.signs * (state.pilot_vals - fstar_vals)
    ends = _block(state, np.stack([state.pilot_vals, fstar_vals]))
    return sum(_sups(_scored(weights, state.breve_vals, [*refit_blocks, ends]), radius))


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
    state = warm_up(dataset, trainer, pilot, config.seed)
    n = dataset.n
    m = config.subsample_size(n)
    tau = _resolve_tau(config, state)
    t = config.t if config.t is not None else default_t(tau)

    subs = [srswor(n, m, config.srswor_strategy, derive_seed(config.seed, "subsample", k))
            for k in range(config.K)]
    # Each report predicts its refits on the full data once; the pilot's
    # values come from the warm-up and the truth's are predicted here, once.
    fstar_vals = fstar.predict(dataset.xs) if fstar is not None else None

    reports: List[RiskBoundReport] = []
    if config.rho_mode == "fixed-grid":
        by_scale = _run_rounds(state, dataset, trainer, subs, config.rho_grid, config.seed)
        for rho, rounds in zip(config.rho_grid, by_scale):
            block = candidate_block(state, dataset, trainer, _refits(rounds))
            est = estimate_radius(state, rounds, block, t, tau, C=config.radius_constant)
            rt = r_tilde(est.r, n, config.beta, dataset.d, config.v, config.M_v,
                         config.w_bar, config.w_under)
            reports.append(_assemble_report(
                f"{rho:g}", state, dataset, config, rounds, [block], est.r, rt, tau, t,
                fstar_vals))
            del block  # release it before the next scale's block is built
    else:
        rho0 = config.rho_grid[0] if config.rho_grid else 1.0
        [warm_rounds] = _run_rounds(state, dataset, trainer, subs[:config.K1], (rho0,),
                                    config.seed)
        warm_block = candidate_block(state, dataset, trainer, _refits(warm_rounds))
        est = estimate_radius(state, warm_rounds, warm_block, t, tau, C=config.radius_constant)
        rt = r_tilde(est.r, n, config.beta, dataset.d, config.v, config.M_v,
                     config.w_bar, config.w_under)
        target = 2.0 * rt
        tuned_rounds = []
        unconverged = 0
        for k in range(config.K1, config.K):
            sub = subs[k]
            plus = tune_noise_scale(state, dataset, trainer, sub, target, "plus",
                                    config.tol_rho, config.tune_max_iter,
                                    derive_seed(config.seed, "tune", k))
            minus = tune_noise_scale(state, dataset, trainer, sub, target, "minus",
                                     config.tol_rho, config.tune_max_iter,
                                     derive_seed(config.seed, "tune", k))
            unconverged += (not plus.converged) + (not minus.converged)
            tuned_rounds += _score_rounds(trainer, _subsample_rows(state, dataset, sub), sub, k,
                                          [(plus.rho, minus.rho)],
                                          [plus.predictor, minus.predictor],
                                          np.stack([plus.sub_vals, minus.sub_vals]))
        tuned_block = candidate_block(state, dataset, trainer, _refits(tuned_rounds))
        report = _assemble_report("tuned", state, dataset, config, tuned_rounds,
                                  [warm_block, tuned_block], est.r, rt, tau, t, fstar_vals)
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
    per scale.  Tuned mode spends K1 rounds on radius estimation, tunes the
    noise scales so each refit lands at twice the inflated radius, and
    returns a single report over the remaining K - K1 rounds.
    """
    reports, _ = evaluate_with_state(dataset, trainer, config, pilot, fstar)
    return reports
