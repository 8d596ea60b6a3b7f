"""Record the goldens that tests/test_golden.py compares evaluations against.

    python3 tools/record_golden.py             # writes tests/golden_trees.json

Runs every cell of `CELLS` with the wildriff sources of the checkout this
file sits in, and writes each cell's inputs together with its outputs:
every report field, every round's noise scales, optimism and norms, and a
SHA-256 of the rounds' subsample indices.  Floats are stored as
`float.hex`, so the test compares them exactly.  Re-recording is an intended
output change: compare the old and new files field by field first.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_FILE = ROOT / "tests" / "golden_trees.json"

CELLS = [
    # The tree_step sweep cell (exp2, depth 4, its K, beta and grid) at smaller n.
    {"name": "fixed-grid-exp2-depth4", "experiment": "exp2", "n": 400, "seed": 3,
     "trainer": {"max_depth": 4},
     "evaluation": {"K": 20, "beta": 0.5, "rho_grid": [0.05, 0.1, 0.2, 0.3, 0.4]},
     "fstar": True},
    {"name": "tuned-exp1-depth5", "experiment": "exp1", "n": 300, "seed": 5,
     "trainer": {"max_depth": 5},
     "evaluation": {"K": 6, "K1": 2, "rho_mode": "tuned"},
     "fstar": False},
    {"name": "fixed-grid-exp1-forest3", "experiment": "exp1", "n": 300, "seed": 7,
     "trainer": {"max_depth": 4, "n_trees": 3},
     "evaluation": {"K": 8, "rho_grid": [0.1, 0.5, 2.0]},
     "fstar": False},
    # A 5-d tree, which predicts by routing points down the nodes.
    {"name": "fixed-grid-exp3-d5", "experiment": "exp3", "n": 300, "seed": 11,
     "trainer": {"max_depth": 5},
     "evaluation": {"K": 6, "rho_grid": [0.5, 2.0]},
     "fstar": True},
]

ROUND_FIELDS = ("k", "rho1", "rho2", "norm_tilde", "norm_check", "trainer_tol")


def exact(value):
    """A JSON value that round-trips ``value`` bit for bit."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    return value


def run_cell(cell: dict) -> list:
    """The recorded outputs of one cell: one entry per report."""
    import numpy as np
    import wildriff

    dataset, truth = wildriff.generate(
        wildriff.ExperimentSpec(id=cell["experiment"], n=cell["n"], seed=cell["seed"]))
    evaluation = dict(cell["evaluation"], seed=cell["seed"])
    if "rho_grid" in evaluation:
        evaluation["rho_grid"] = tuple(evaluation["rho_grid"])
    reports = wildriff.evaluate(dataset, wildriff.make_trainer("tree", cell["trainer"]),
                                wildriff.EvaluationConfig(**evaluation),
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


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    cells = [dict(cell, reports=run_cell(cell)) for cell in CELLS]
    GOLDEN_FILE.write_text(json.dumps({"cells": cells}, indent=1) + "\n")
    print(f"wrote {len(cells)} cells to {GOLDEN_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
