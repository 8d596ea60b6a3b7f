"""Largest relative difference of every output field between two checkouts.

    python3 tools/report_drift.py PARENT CHANGE --workload ridge5d --seed 0 --ops 4
    python3 tools/report_drift.py PARENT CHANGE --workload tree_step --max-rel 0

Each checkout runs operations 0..N-1 of a benchmark workload through its own
perfbench/workloads.py, in a subprocess that writes nothing into it: every
numeric report field and rounds.csv column per scale, or the sweep.csv cells.
The report flags and each round's subsample indices are compared exactly:
any difference in them counts as infinite drift.  Each field's line names
the operation and the label (the scale, or the sweep cell's rho) where its
largest drift occurs.  Exits 1 if the two label sets differ, or if
``--max-rel X`` is given and some field drifts by more than X relative
(``--max-rel 0`` checks bit identity).
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import defaultdict

DUMP = r"""
import csv, dataclasses, json, sys
from pathlib import Path
sys.path.insert(0, str(Path(sys.argv[1]) / "perfbench"))
import workloads
out, w = {}, workloads.Workload(sys.argv[2], int(sys.argv[3]), Path.cwd())
for i in range(int(sys.argv[4])):
    w.prepare(i)
    result = w.run_op(i)
    if w.spec["mode"] == "sweep":
        for row in csv.DictReader(open("out/sweep.csv")):
            out.update({f"{i}/{row['rho']}/{k}": [float(v)] for k, v in row.items()})
        continue
    for r in result:
        cells = {f.name: [getattr(r, f.name)] for f in dataclasses.fields(r)}
        cells = {k: v for k, v in cells.items() if type(v[0]) in (int, float)}
        cells["pilot_flags"] = [r.pilot_flags]
        cells["rounds.sub"] = [rd.sub.indices.tolist() for rd in r.rounds]
        for col in ("k", "rho1", "rho2", "norm_tilde", "norm_check", "trainer_tol"):
            cells["rounds." + col] = [getattr(rd, col) for rd in r.rounds]
        for col in ("opt_tilde", "opt_check"):
            cells["rounds." + col] = [getattr(rd.optimism, col) for rd in r.rounds]
        out.update({f"{i}/{r.label}/{k}": v for k, v in cells.items()})
print(json.dumps(out))
"""


def dump(checkout, args):
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, "-c", DUMP, os.path.abspath(checkout), args.workload,
             str(args.seed), str(args.ops)], cwd=tmp, capture_output=True, text=True,
            check=True, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    return json.loads(proc.stdout.splitlines()[-1])


def rel(a, b):
    if a == b:
        return 0.0
    if not all(type(x) in (int, float) for x in (a, b)):
        return math.inf   # flags and subsample indices compare exactly
    if math.isnan(a) and math.isnan(b):
        return 0.0
    diff = abs(a - b) / max(abs(a), abs(b))
    return math.inf if math.isnan(diff) else diff   # one side NaN or infinite


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ops", type=int, default=1)
    parser.add_argument("--max-rel", type=float, default=None,
                        help="exit 1 when any field drifts by more than this relative amount")
    args = parser.parse_args()
    before, after = dump(args.parent, args), dump(args.change, args)
    if {k: len(v) for k, v in before.items()} != {k: len(v) for k, v in after.items()}:
        print("labels differ:", sorted(set(before) ^ set(after)))
        return 1
    worst = defaultdict(lambda: (0.0, None, None))   # field -> (drift, op, label)
    for key, values in before.items():
        op, label, field = key.split("/", 2)
        diff = max(map(rel, values, after[key]), default=0.0)
        if diff > worst[field][0]:
            worst[field] = (diff, op, label)
    for field, (diff, op, label) in sorted(worst.items()):
        where = f"  op {op} label {label}" if diff > 0 else ""
        print(f"{field:32s} {diff:.3g}{where}")
    largest = max((diff for diff, _, _ in worst.values()), default=0.0)
    if args.max_rel is not None and largest > args.max_rel:
        print(f"drift above --max-rel {args.max_rel:g}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
