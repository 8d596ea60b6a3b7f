"""The three benchmark workloads: inputs, one operation, and its output check.

An operation is one `wildriff.evaluate` call (library workloads) or one
`wildriff sweep` cell run through `wildriff.cli.main` (sweep workload).
Operation i of a run draws its data and evaluation seed from
(workload seed, i), so the same seed gives the same inputs.

Nothing here imports numpy or wildriff at module level: constructing a
`Workload` does, so that set-up time includes the import a user pays.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = {
    # exp1 at large n: bound assembly (predicting all 2K candidates on the
    # full data) dominates, fits are small.
    "ridge1d_bign": {
        "mode": "library",
        "experiment": "exp1",
        "n": 8000,
        "trainer": {"name": "fourier_ridge", "params": {"N": 8, "lam": 1e-6}},
        "evaluation": {"K": 30, "beta": 0.6, "rho_grid": [0.1, 0.5, 1.0, 2.0, 5.0]},
    },
    # exp3 in 5-d: p = 3125 features >> m = 63, so primal p x p solves
    # dominate time and memory.
    "ridge5d": {
        "mode": "library",
        "experiment": "exp3",
        "n": 1000,
        "trainer": {"name": "fourier_ridge", "params": {"N": 2, "lam": 1e-6}},
        "evaluation": {"K": 3, "rho_grid": [0.5, 2.0]},
    },
    # The discontinuous-step sweep cell through the CLI: GIL-bound Python
    # CART fits, plus data generation, the Monte-Carlo oracle and file output.
    "tree_step": {
        "mode": "sweep",
        "experiment": "exp2",
        "n": 1000,
        "trainer": {"name": "tree", "params": {"max_depth": 4}},
        "evaluation": {"K": 20, "beta": 0.5, "rho_grid": [0.05, 0.1, 0.2, 0.3, 0.4]},
        "oracle": {"n_mc": 10000},
    },
}

DEFAULT_SEED = 0
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
REL_TOL = 1e-9
LIBRARY_BOUNDS = ("wild_optimism_bound", "fixed_design_bound", "random_design_bound")


class SourceMissing(RuntimeError):
    """The checkout holds no wildriff sources to benchmark."""


def op_seed(workload: str, seed: int, i: int) -> int:
    """Data and evaluation seed of operation i."""
    digest = hashlib.blake2b(f"{workload}:{seed}:{i}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def import_wildriff():
    """Import wildriff from this checkout's sources, never from elsewhere."""
    if not (SRC / "wildriff" / "__init__.py").is_file():
        raise SourceMissing(f"no wildriff sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import wildriff
    import wildriff.cli

    if Path(wildriff.__file__).resolve().parent != SRC / "wildriff":
        raise SourceMissing(f"imported wildriff from {wildriff.__file__}, not from {SRC}")
    return wildriff


class Workload:
    """Set-up state of one workload; `run_op(i)` performs operation i."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.wr = import_wildriff()
        self.cli_main = self.wr.cli.main
        self.generate = self.wr.generate
        self.trainer = None
        if self.spec["mode"] == "library":
            self.trainer = self.wr.make_trainer(self.spec["trainer"]["name"],
                                                self.spec["trainer"]["params"])
            self.inputs = self.make_inputs(0)
        else:
            workdir.mkdir(parents=True, exist_ok=True)
            self.config_path = workdir / "config.json"
            config = {key: self.spec[key] for key in ("experiment", "n", "trainer",
                                                      "evaluation", "oracle")}
            self.config_path.write_text(json.dumps(config))
            self.inputs = None

    def make_inputs(self, i: int):
        """Dataset, truth and evaluation config of library operation i."""
        s = op_seed(self.name, self.seed, i)
        dataset, truth = self.generate(
            self.wr.ExperimentSpec(id=self.spec["experiment"], n=self.spec["n"], seed=s))
        ev = dict(self.spec["evaluation"], seed=s, rho_grid=tuple(self.spec["evaluation"]["rho_grid"]))
        return dataset, truth, self.wr.EvaluationConfig(**ev)

    def prepare(self, i: int):
        """Untimed work before operation i: its inputs (set-up made op 0's once)."""
        if self.spec["mode"] == "library":
            self.inputs = self.make_inputs(i)

    def run_op(self, i: int):
        """Operation i; returns what `bounds` checks."""
        if self.spec["mode"] == "library":
            dataset, truth, config = self.inputs
            return self.wr.evaluate(dataset, self.trainer, config, fstar=truth.fstar)
        out = self.workdir / "out"
        code = self.cli_main(["sweep", "--config", str(self.config_path), "--out", str(out),
                              "--seed", str(op_seed(self.name, self.seed, i))])
        return code

    def bounds(self, i: int, result) -> dict:
        """Label -> {bound name: value} of operation i; raises CheckFailed."""
        grid = [float(r) for r in self.spec["evaluation"]["rho_grid"]]
        if self.spec["mode"] == "library":
            return library_bounds(result, grid)
        if result != 0:
            raise CheckFailed(f"wildriff sweep exited with {result}")
        return sweep_bounds(self.workdir / "out" / "sweep.csv", grid, self.spec["n"],
                            op_seed(self.name, self.seed, i))


class CheckFailed(AssertionError):
    """An operation's output failed its check."""


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise CheckFailed(f"{name} is not finite: {value!r}")
    return value


def library_bounds(reports, grid) -> dict:
    if [float(r.label) for r in reports] != grid:
        raise CheckFailed(f"report labels {[r.label for r in reports]} != grid {grid}")
    out = {}
    for r in reports:
        for name in LIBRARY_BOUNDS + ("mean_opt_tilde", "mean_opt_check", "deviation",
                                      "pilot_proxy"):
            _finite(f"{r.label}.{name}", getattr(r, name))
        total = r.mean_opt_tilde + r.mean_opt_check + r.deviation + r.pilot_proxy
        if r.fixed_design_bound != total:
            raise CheckFailed(f"{r.label}: fixed_design_bound {r.fixed_design_bound!r} != "
                              f"sum of its terms {total!r}")
        out[r.label] = {name: getattr(r, name) for name in LIBRARY_BOUNDS}
    return out


def sweep_bounds(path: Path, grid, n: int, seed: int) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [float(row["rho"]) for row in rows] != grid:
        raise CheckFailed(f"sweep.csv rho column {[row['rho'] for row in rows]} != grid {grid}")
    out = {}
    for row in rows:
        if int(row["n"]) != n or int(row["seed"]) != seed:
            raise CheckFailed(f"sweep.csv row {row} is not the cell (n={n}, seed={seed})")
        bound = _finite("bound", float(row["bound"]))
        oracle = _finite("oracle_excess_risk", float(row["oracle_excess_risk"]))
        if not (oracle > 0 and float(row["ratio"]) == bound / oracle):
            raise CheckFailed(f"sweep.csv row {row}: ratio != bound / oracle_excess_risk")
        out[f"{float(row['rho']):g}"] = {"bound": bound}
    return out


def load_reference(workload: str, seed: int):
    """Recorded per-operation bounds, or None off the default seed."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(workload)


def compare_reference(i: int, got: dict, reference) -> None:
    """Check operation i's bounds against the recorded ones at 1e-9 relative."""
    if reference is None or i >= len(reference):
        return
    want = reference[i]
    if sorted(got) != sorted(want):
        raise CheckFailed(f"op {i}: labels {sorted(got)} != reference {sorted(want)}")
    for label, values in want.items():
        for name, expected in values.items():
            actual = got[label][name]
            if not math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=0.0):
                raise CheckFailed(f"op {i} scale {label} {name}: {actual!r} differs from "
                                  f"reference {expected!r} by more than {REL_TOL} relative")
