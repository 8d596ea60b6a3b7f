"""Alternating benchmark runs of two checkouts, pair by pair.

    python3 tools/ab_pairs.py PARENT CHANGE --workload ridge1d_bign --pairs 10 --seconds 25

Pair i runs `perfbench/run.py --trace 0` once in each checkout, the parent
first in even pairs and the change first in odd ones.  Each checkout's
`src/`, `perfbench/` and `BENCHMARK.json` are copied into a temporary
directory and run there without writing bytecode, so neither checkout's
files change.  Prints every end-to-end metric's per-pair values, both
medians, the parent's interquartile range and the change's win count (a tie
counts for neither side), with "better" read from the change's
BENCHMARK.json.  Exits 1 if a run fails or reports a failed operation.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

COPIED = ("src", "perfbench", "BENCHMARK.json")


def copy_checkout(checkout: Path, dest: Path) -> Path:
    dest.mkdir()
    for name in COPIED:
        source = checkout / name
        if source.is_dir():
            shutil.copytree(source, dest / name,
                            ignore=shutil.ignore_patterns("out", "__pycache__", "*.pyc"))
        elif source.is_file():
            shutil.copy2(source, dest / name)
    return dest


def run_once(root: Path, args) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if proc.returncode != 0:
        raise RuntimeError(f"{root.name}: run.py exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{root.name}: {result['failed']}/{result['attempted']} operations "
                           "failed their check")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}

    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as tmp:
        roots = {side: copy_checkout(getattr(args, side).resolve(), Path(tmp) / side)
                 for side in runs}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(roots[side], args))
            print(f"pair {i}: " + "  ".join(
                f"{name} {runs['parent'][-1][name]:.4g} -> {runs['change'][-1][name]:.4g}"
                for name in lower), flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    for name, lower_is_better in lower.items():
        before = [r[name] for r in runs["parent"]]
        after = [r[name] for r in runs["change"]]
        wins = sum((a < b) if lower_is_better else (a > b) for b, a in zip(before, after))
        q1, q3 = quartiles(before) if len(before) > 1 else (before[0], before[0])
        med_b, med_a = statistics.median(before), statistics.median(after)
        print(f"{name:16s} parent {' '.join(f'{v:.4g}' for v in before)}")
        print(f"{'':16s} change {' '.join(f'{v:.4g}' for v in after)}")
        print(f"{'':16s} median {med_b:.4g} -> {med_a:.4g} ({(med_a - med_b) / med_b:+.1%}), "
              f"parent IQR {q3 - q1:.3g}, change better in {wins}/{len(before)}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        print(f"ab_pairs: {exc}", file=sys.stderr)
        sys.exit(1)
