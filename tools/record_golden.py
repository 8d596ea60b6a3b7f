"""Record the goldens that tests/test_golden.py compares evaluations against.

    python3 tools/record_golden.py                 # every trainer's golden file
    python3 tools/record_golden.py fourier_ridge   # tests/golden_fourier_ridge.json only
    python3 tools/record_golden.py --check         # compare, write nothing

Runs every cell of a trainer's `GOLDENS` entry with the wildriff sources of
the checkout this file sits in, and writes each cell's inputs together with
its outputs:
every report field, every round's noise scales, optimism and norms, and a
SHA-256 of the rounds' subsample indices.  Floats are stored as
`float.hex`, so the test compares them exactly.  Re-recording is an intended
output change: run ``--check`` first, which re-runs the cells, prints each
field's largest relative move against the checked-in goldens, writes
nothing, and exits 1 on any difference.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TREE_CELLS = [
    # The tree_step sweep cell (exp2, depth 4, its K, beta and grid) at smaller n.
    {"name": "fixed-grid-exp2-depth4", "experiment": "exp2", "n": 400, "seed": 3,
     "trainer": {"max_depth": 4},
     "evaluation": {"K": 20, "beta": 0.5, "rho_grid": [0.05, 0.1, 0.2, 0.3, 0.4]},
     "fstar": True},
    {"name": "tuned-exp1-depth5", "experiment": "exp1", "n": 300, "seed": 5,
     "trainer": {"max_depth": 5},
     "evaluation": {"K": 6, "K1": 2, "rho_mode": "tuned"},
     "fstar": False},
    # A 5-d tree, which predicts by routing points down the nodes.
    {"name": "fixed-grid-exp3-d5", "experiment": "exp3", "n": 300, "seed": 11,
     "trainer": {"max_depth": 5},
     "evaluation": {"K": 6, "rho_grid": [0.5, 2.0]},
     "fstar": True},
]

FOURIER_RIDGE_CELLS = [
    # p = 17 <= m = 36: the p x p normal equations, with the linear-smoother
    # step and, with "linear_smoother": False, refit at every scale.
    {"name": "fixed-grid-exp1-primal", "experiment": "exp1", "n": 400, "seed": 2,
     "trainer": {"N": 8, "lam": 1e-6},
     "evaluation": {"K": 8, "rho_grid": [0.1, 0.5, 2.0]},
     "fstar": True},
    {"name": "fixed-grid-exp1-primal-refit-each-scale", "experiment": "exp1", "n": 400,
     "seed": 2, "trainer": {"N": 8, "lam": 1e-6}, "linear_smoother": False,
     "evaluation": {"K": 8, "rho_grid": [0.1, 0.5, 2.0]},
     "fstar": True},
    # p = 5^5 > n: the n x n Dirichlet kernel system.
    {"name": "fixed-grid-exp3-kernel", "experiment": "exp3", "n": 200, "seed": 4,
     "trainer": {"N": 2, "lam": 1e-6},
     "evaluation": {"K": 4, "rho_grid": [0.5, 2.0]},
     "fstar": True},
    # p = 3^5 <= n but > m: the warm-up on the design, the refits on the kernel.
    {"name": "fixed-grid-exp3-primal-warm-up", "experiment": "exp3", "n": 300, "seed": 12,
     "trainer": {"N": 1, "lam": 1e-6},
     "evaluation": {"K": 4, "rho_grid": [0.5, 2.0]},
     "fstar": True},
    # lam = 0: least squares on the explicit design.
    {"name": "fixed-grid-exp1-lstsq", "experiment": "exp1", "n": 300, "seed": 6,
     "trainer": {"N": 6, "lam": 0.0},
     "evaluation": {"K": 6, "rho_grid": [0.5, 2.0]},
     "fstar": False},
    {"name": "tuned-exp1-primal", "experiment": "exp1", "n": 300, "seed": 8,
     "trainer": {"N": 8, "lam": 1e-6},
     "evaluation": {"K": 6, "K1": 2, "rho_mode": "tuned"},
     "fstar": True},
    {"name": "tuned-exp3-kernel", "experiment": "exp3", "n": 150, "seed": 10,
     "trainer": {"N": 2, "lam": 1e-6},
     "evaluation": {"K": 6, "K1": 2, "rho_mode": "tuned"},
     "fstar": False},
]

# mlp has no fit_multi_fn, so its refits go through TrainerOracle.fit_multi's
# loop of one L-BFGS fit per column.
MLP_CELLS = [
    {"name": "fixed-grid-exp1-lbfgs", "experiment": "exp1", "n": 200, "seed": 4,
     "trainer": {"widths": [8, 8], "max_iter": 40},
     "evaluation": {"K": 3, "rho_grid": [0.5, 2.0]},
     "fstar": True},
]

# Per trainer: its golden file and its cells.
GOLDENS = {
    "tree": (ROOT / "tests" / "golden_trees.json", TREE_CELLS),
    "fourier_ridge": (ROOT / "tests" / "golden_fourier_ridge.json", FOURIER_RIDGE_CELLS),
    "mlp": (ROOT / "tests" / "golden_mlp.json", MLP_CELLS),
}

ROUND_FIELDS = ("k", "rho1", "rho2", "norm_tilde", "norm_check", "trainer_tol")


def exact(value):
    """A JSON value that round-trips ``value`` bit for bit."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    return value


def run_cell(trainer_name: str, cell: dict) -> list:
    """The recorded outputs of one cell: one entry per report.  A cell may
    set ``"linear_smoother": False`` to refit at every scale."""
    import numpy as np
    import wildriff

    dataset, truth = wildriff.generate(
        wildriff.ExperimentSpec(id=cell["experiment"], n=cell["n"], seed=cell["seed"]))
    evaluation = dict(cell["evaluation"], seed=cell["seed"])
    if "rho_grid" in evaluation:
        evaluation["rho_grid"] = tuple(evaluation["rho_grid"])
    trainer = wildriff.make_trainer(trainer_name, cell["trainer"])
    if "linear_smoother" in cell:
        trainer = dataclasses.replace(trainer, linear_smoother=cell["linear_smoother"])
    reports = wildriff.evaluate(dataset, trainer, wildriff.EvaluationConfig(**evaluation),
                                fstar=truth.fstar if cell["fstar"] else None)
    out = []
    for report in reports:
        fields = {f.name: exact(getattr(report, f.name)) for f in dataclasses.fields(report)
                  if f.name not in ("rounds", "config")}
        rounds = report.rounds
        fields["rounds"] = {name: exact([getattr(rd, name) for rd in rounds])
                            for name in ROUND_FIELDS}
        for name in ("opt_tilde", "opt_check"):
            fields["rounds"][name] = exact([getattr(rd.optimism, name) for rd in rounds])
        digest = hashlib.sha256()
        for rd in rounds:
            digest.update(np.asarray(rd.sub.indices, dtype=np.int64).tobytes())
        fields["rounds"]["subsample_sha256"] = digest.hexdigest()
        out.append(fields)
    return out


def relative_move(old, new) -> float:
    """How far a recorded value moved: 0 if equal, the relative difference
    of two hex floats, and infinite for any other difference."""
    if old == new:
        return 0.0
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return max(map(relative_move, old, new))
    try:
        a, b = float.fromhex(old), float.fromhex(new)
    except (TypeError, ValueError):
        return math.inf
    diff = abs(a - b) / max(abs(a), abs(b))
    return math.inf if math.isnan(diff) else diff


def check(trainer_name: str) -> dict:
    """Each field's largest move, with the cell and report where it occurs,
    between the trainer's golden file and a fresh run of its cells.  A cell
    defined but not recorded, or recorded but no longer defined, moves
    ``cells`` infinitely."""
    path, cells = GOLDENS[trainer_name]
    recorded = {cell["name"]: cell for cell in json.loads(path.read_text())["cells"]}
    worst = defaultdict(lambda: (0.0, ""))
    stale = recorded.keys() - {cell["name"] for cell in cells}
    if stale:
        worst["cells"] = (math.inf, min(stale))
    for cell in cells:
        if cell["name"] not in recorded:
            worst["cells"] = (math.inf, cell["name"])
            continue
        want = recorded[cell["name"]]["reports"]
        got = run_cell(trainer_name, cell)
        if [r["label"] for r in got] != [r["label"] for r in want]:
            worst["label"] = (math.inf, cell["name"])
            continue
        for old, new in zip(want, got):
            pairs = [(key, old.get(key), new.get(key)) for key in old.keys() | new.keys()
                     if key != "rounds"]
            pairs += [(f"rounds.{key}", old["rounds"].get(key), new["rounds"].get(key))
                      for key in old["rounds"].keys() | new["rounds"].keys()]
            for key, a, b in pairs:
                move = relative_move(a, b)
                if move > worst[key][0]:
                    worst[key] = (move, f"{cell['name']} label {new['label']}")
    return worst


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="print each field's largest move; exit 1 on any")
    parser.add_argument("trainers", nargs="*", metavar="TRAINER",
                        help=f"any of {', '.join(GOLDENS)} (default: all)")
    args = parser.parse_args(argv)
    unknown = [name for name in args.trainers if name not in GOLDENS]
    if unknown:
        parser.error(f"unknown trainer {unknown[0]!r}; pick from {', '.join(GOLDENS)}")
    names = args.trainers or list(GOLDENS)
    sys.path.insert(0, str(ROOT / "src"))
    if not args.check:
        for trainer_name in names:
            path, cells = GOLDENS[trainer_name]
            cells = [dict(cell, reports=run_cell(trainer_name, cell)) for cell in cells]
            path.write_text(json.dumps({"cells": cells}, indent=1) + "\n")
            print(f"wrote {len(cells)} cells to {path}")
        return 0
    moved = False
    for trainer_name in names:
        for key, (move, where) in sorted(check(trainer_name).items()):
            print(f"{trainer_name:14s} {key:28s} {move:.3g}" + (f"  {where}" if move else ""))
            moved |= move > 0
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
