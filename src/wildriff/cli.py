"""Batch entry point: configure, run evaluations and verification suites,
emit machine-readable reports.

Commands
--------
evaluate : run one evaluation; writes rounds.csv, summary.json, oracle.json.
sweep    : evaluate cells of (n, seed) over the noise-scale grid, reusing the
           same subsample sequence for every scale; writes sweep.csv.
verify   : run a named Monte-Carlo / exhaustive verification suite and write
           a pass/fail JSON.

Exit codes: 0 ok, 1 verification failure, 2 config error (a `ConfigError`,
wherever in the run it is raised), 3 runtime error (any other exception).
All files are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import __version__
from .core import (ConfigError, EvaluationConfig, RegressionDataset, TrainerOracle, WildriffError,
                   check_integer)
from .refit import RiskBoundReport, evaluate_with_state
from .synth import (
    EXPERIMENT_IDS,
    ExperimentSpec,
    empirical_excess_risk,
    generate,
    population_excess_risk,
)
from .trainers import make_trainer
from .verify import SUITES

__all__ = ["RunConfig", "ConfigError", "cmd_evaluate", "cmd_sweep", "cmd_verify", "main",
           "VERIFY_SUITES"]

VERIFY_SUITES = tuple(SUITES)

ROUNDS_COLUMNS = ["k", "m", "rho1", "rho2", "opt_tilde", "opt_check",
                  "norm_tilde", "norm_check", "trainer_tol"]
SWEEP_COLUMNS = ["n", "rho", "seed", "bound", "oracle_excess_risk", "ratio"]

CONFIG_KEYS = ("experiment", "dataset_file", "n", "seed", "seeds", "trainer", "evaluation",
               "oracle", "formats", "output_dir")


@dataclass
class RunConfig:
    """Parsed batch-run configuration."""

    experiment: Optional[str]
    dataset_file: Optional[str]
    n: List[int]
    seeds: List[int]
    trainer_name: str
    trainer_params: dict
    evaluation: dict
    n_mc: int
    output_dir: Path
    trainer: TrainerOracle
    config: EvaluationConfig
    formats: List[str] = field(default_factory=lambda: ["csv", "json"])

    @staticmethod
    def from_file(path, out_override=None, seed_override=None, formats_override=None) -> "RunConfig":
        """Read and parse a JSON config.  An unreadable file, or a value of the
        wrong type or range anywhere in it, raises `ConfigError`."""
        try:
            raw = json.loads(Path(path).read_text())
            return RunConfig.from_dict(raw, out_override, seed_override, formats_override)
        except ConfigError:
            raise
        except (OSError, TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(f"bad config {path}: {exc}") from exc

    @staticmethod
    def from_dict(raw: dict, out_override=None, seed_override=None, formats_override=None) -> "RunConfig":
        _check_keys("", raw, CONFIG_KEYS)
        experiment = raw.get("experiment")
        dataset_file = raw.get("dataset_file")
        if (experiment is None) == (dataset_file is None):
            raise ConfigError("exactly one of 'experiment' and 'dataset_file' is required")
        if experiment is not None and experiment not in EXPERIMENT_IDS:
            raise ConfigError(f"unknown experiment {experiment!r}; pick one of {EXPERIMENT_IDS}")

        n_raw = raw.get("n", 1000)
        n_list = _parse("n", lambda v: [_integer(x) for x in (v if isinstance(v, list) else [v])],
                        n_raw)

        trainer = raw.get("trainer", {})
        if not isinstance(trainer, dict) or "name" not in trainer:
            raise ConfigError("config needs trainer: {name, params}")
        _check_keys("trainer: ", trainer, ("name", "params"))
        trainer_params = _parse("trainer.params", dict, trainer.get("params", {}))

        seed = _parse("seed", _integer, seed_override if seed_override is not None
                      else raw.get("seed", 0))
        seeds = _parse("seeds", lambda v: [_integer(s) for s in v], raw.get("seeds", [seed]))
        if seed_override is not None:
            seeds = [seed]
        if not (n_list and seeds) or min(n_list) < 1:
            raise ConfigError("n and seeds each need an entry, and sample sizes must be >= 1")

        evaluation = _parse("evaluation", dict, raw.get("evaluation", {}))
        if "seed" in evaluation:
            raise ConfigError("evaluation.seed: set the seed with 'seed', 'seeds' or --seed")

        formats = formats_override or raw.get("formats", ["csv", "json"])
        if not (isinstance(formats, list) and formats) or set(map(str, formats)) - {"csv", "json"}:
            raise ConfigError(f"formats: need a non-empty list of csv and json, got {formats!r}")

        oracle = _parse("oracle", dict, raw.get("oracle", {}))
        _check_keys("oracle: ", oracle, ("n_mc",))
        n_mc = _parse("oracle.n_mc", _integer, oracle.get("n_mc", 10000))
        if n_mc < 2:
            raise ConfigError("oracle.n_mc must be >= 2")

        return RunConfig(
            experiment=experiment,
            dataset_file=dataset_file,
            n=n_list,
            seeds=seeds,
            trainer_name=trainer["name"],
            trainer_params=trainer_params,
            evaluation=evaluation,
            n_mc=n_mc,
            output_dir=Path(out_override if out_override is not None else raw.get("output_dir", ".")),
            trainer=_parse("trainer.params", lambda p: make_trainer(trainer["name"], p),
                           trainer_params),
            config=_parse("evaluation", lambda e: EvaluationConfig(**e), evaluation),
            formats=formats,
        )

    def eval_config(self, seed: int) -> EvaluationConfig:
        return replace(self.config, seed=seed)

    def load_data(self, n: int, seed: int):
        """Returns (dataset, truth-or-None)."""
        if self.experiment is not None:
            dataset, truth = generate(ExperimentSpec(id=self.experiment, n=n, seed=seed))
            return dataset, truth
        return _read_dataset_csv(self.dataset_file), None


def _check_keys(where: str, block, known) -> None:
    """A `ConfigError` naming the first key of ``block`` that is not in
    ``known``: a config key nothing reads is a mistake, not a no-op."""
    unknown = [key for key in block if key not in known]
    if unknown:
        raise ConfigError(f"{where}unknown key {unknown[0]!r}; pick from {', '.join(known)}")


def _parse(key: str, convert, value):
    """``convert(value)``; a wrongly typed or invalid value raises a
    `ConfigError` that names its key."""
    try:
        return convert(value)
    except (TypeError, ValueError, AttributeError) as exc:   # ConfigError is a ValueError
        raise ConfigError(f"{key}: {exc}") from exc


def _integer(value) -> int:
    """``value`` when `check_integer` accepts it."""
    check_integer("value", value)
    return int(value)


def _read_dataset_csv(path) -> RegressionDataset:
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [row for row in reader if row]
        for row in rows:
            if len(row) != len(header):
                raise ConfigError(f"row {row} has {len(row)} columns; the header has {len(header)}")
        data = np.asarray([[float(cell) for cell in row] for row in rows])
    except (OSError, StopIteration, ValueError) as exc:
        raise ConfigError(f"cannot read dataset file {path}: {exc}") from exc
    if "y" not in header:
        raise ConfigError("dataset file needs a 'y' column")
    if data.size == 0:
        raise ConfigError(f"dataset file {path} has no data rows")
    ycol = header.index("y")
    xcols = [i for i in range(len(header)) if i != ycol]
    return RegressionDataset(data[:, xcols], data[:, ycol])


def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _csv_text(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([repr(x) if isinstance(x, float) else x for x in row])
    return buf.getvalue()


def _report_json(report: RiskBoundReport) -> dict:
    """Every report field but the label, the rounds and the config, in order."""
    return {f.name: getattr(report, f.name) for f in fields(report)
            if f.name not in ("label", "rounds", "config")}


def _rounds_rows(reports) -> list:
    rows = []
    for report in reports:
        for rd in report.rounds:
            rows.append([rd.k, rd.sub.m, rd.rho1, rd.rho2,
                         rd.optimism.opt_tilde, rd.optimism.opt_check,
                         rd.norm_tilde, rd.norm_check, rd.trainer_tol])
    return rows


def _run_cell(run: RunConfig, n: int, seed: int):
    dataset, truth = run.load_data(n, seed)
    fstar = truth.fstar if truth is not None else None
    reports, state = evaluate_with_state(dataset, run.trainer, run.eval_config(seed), fstar=fstar)
    return dataset, truth, reports, state


def _exit_codes(command):
    """Run a command, mapping a `ConfigError` to exit 2 and any other exception
    to 3; one from outside the package's error tree also prints its traceback."""
    @functools.wraps(command)
    def run(*args, **kwargs) -> int:
        try:
            return command(*args, **kwargs)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except Exception as exc:
            if not isinstance(exc, WildriffError):
                traceback.print_exc()
            print(f"evaluation error: {exc}", file=sys.stderr)
            return 3
    return run


@_exit_codes
def cmd_evaluate(config_path, out_dir=None, seed=None, formats=None) -> int:
    """Run one evaluation and write rounds.csv / summary.json / oracle.json."""
    run = RunConfig.from_file(config_path, out_dir, seed, formats)
    if run.experiment is None:
        # A file's n is its row count, so only the seeds can make more cells.
        if len(run.seeds) > 1:
            raise ConfigError(
                f"evaluate runs one seed, not seeds {run.seeds}; pick one with --seed")
    elif len(run.n) > 1 or len(run.seeds) > 1:
        raise ConfigError(f"evaluate runs one cell, not n {run.n} x seeds {run.seeds}; use sweep")
    start = time.perf_counter()
    dataset, truth, reports, state = _run_cell(run, run.n[0], run.seeds[0])
    wall = time.perf_counter() - start

    out = run.output_dir
    if "csv" in run.formats:
        _atomic_write_text(out / "rounds.csv", _csv_text(ROUNDS_COLUMNS, _rounds_rows(reports)))
    if "json" in run.formats:
        summary = {
            "version": __version__,
            "wall_clock_seconds": wall,
            "config": {
                "experiment": run.experiment,
                "dataset_file": run.dataset_file,
                "n": dataset.n,
                "seed": run.seeds[0],
                "trainer": {"name": run.trainer_name, "params": run.trainer_params},
                "evaluation": run.evaluation,
            },
            "bounds": {report.label: _report_json(report) for report in reports},
        }
        _atomic_write_text(out / "summary.json", json.dumps(summary, indent=2) + "\n")
        if truth is not None:
            oracle = {
                "empirical_excess_risk": empirical_excess_risk(state.breve_f, truth, dataset.xs),
                "population_excess_risk": population_excess_risk(
                    state.breve_f, truth, run.n_mc, seed=run.seeds[0]),
                "n_mc": run.n_mc,
                "seed": run.seeds[0],
            }
            _atomic_write_text(out / "oracle.json", json.dumps(oracle, indent=2) + "\n")
    return 0


def _sweep_rows(run: RunConfig, n: int, seed: int) -> list:
    """One sweep cell's rows; its predictors are freed before the next cell."""
    _, truth, reports, state = _run_cell(run, n, seed)
    risk = population_excess_risk(state.breve_f, truth, run.n_mc, seed=seed)["estimate"]
    # The exact grid value, not the report label it was rounded to.
    rhos = run.config.rho_grid if run.config.rho_mode == "fixed-grid" else ["tuned"]
    return [[n, rho, seed, r.wild_optimism_bound, risk,
             r.wild_optimism_bound / risk if risk > 0 else math.inf] for r, rho in zip(reports, rhos)]


@_exit_codes
def cmd_sweep(config_path, out_dir=None, seed=None) -> int:
    """Evaluate every (n, seed) cell over the noise-scale grid.

    Within a cell all scales share the same subsample sequence and sign
    vector, so the per-scale bounds are directly comparable.  The reported
    bound is the wild-optimism sum, the quantity compared against the
    Monte-Carlo excess risk.
    """
    run = RunConfig.from_file(config_path, out_dir, seed)
    if run.experiment is None:
        raise ConfigError("sweep needs a synthetic experiment (oracle required)")
    rows = [row for n in run.n for s in run.seeds for row in _sweep_rows(run, n, s)]
    _atomic_write_text(run.output_dir / "sweep.csv", _csv_text(SWEEP_COLUMNS, rows))
    return 0


@_exit_codes
def cmd_verify(suite: str, out_dir=".") -> int:
    """Run a named verification suite; writes verify_<suite>.json."""
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; pick one of {VERIFY_SUITES}")
    result = SUITES[suite]()
    _atomic_write_text(Path(out_dir) / f"verify_{suite}.json",
                       json.dumps(result, indent=2) + "\n")
    print(f"{suite}: {'pass' if result['pass'] else 'FAIL'}")
    return 0 if result["pass"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="wildriff",
                                     description="Excess-risk bounds via wild refitting on subsamples")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="run one evaluation from a JSON config")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--out", default=None)
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.add_argument("--format", default=None, help="comma-separated: csv,json")

    p_sweep = sub.add_parser("sweep", help="sweep (n, seed) cells over the noise-scale grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--seed", type=int, default=None)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=VERIFY_SUITES)
    p_verify.add_argument("--out", default=".")

    args = parser.parse_args(argv)
    if args.command == "evaluate":
        formats = args.format.split(",") if args.format else None
        return cmd_evaluate(args.config, args.out, args.seed, formats)
    if args.command == "sweep":
        return cmd_sweep(args.config, args.out, args.seed)
    return cmd_verify(args.suite, args.out)


if __name__ == "__main__":
    sys.exit(main())
