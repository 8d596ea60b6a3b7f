"""Alternating benchmark runs of two checkouts, pair by pair.

    python3 tools/ab_pairs.py PARENT CHANGE --pairs 10 --seconds 25
    python3 tools/ab_pairs.py PARENT CHANGE --workload ridge1d_bign --workload ridge5d

Runs every workload given with ``--workload``, or every workload in the
change's BENCHMARK.json when none is.  Pair i of a workload runs
`perfbench/run.py --trace 0` once in each checkout, the parent first in even
pairs and the change first in odd ones.  Each checkout's `src/`,
`perfbench/` and `BENCHMARK.json` are copied into a temporary directory and
run there without writing bytecode, so neither checkout's files change.
Prints, per workload, the core count, the thread variables set and each
side's median steal share, from the `env` line every run prints, then
every end-to-end metric's per-pair values, both medians, the
parent's interquartile range and the change's win count (a tie counts for
neither side), with "better" and "bound" read from the change's
BENCHMARK.json.  Each metric then gets a verdict against its relative
bound: "worse" when the change's median is worse than the parent's by more
than the bound, "unresolved" when the parent's IQR exceeds the bound (and
not every change run beats every parent run), and "within bound" otherwise.
Every metric also gets a gain verdict: "gain" when the change wins at least
nine tenths of the pairs (a tie counts for neither side) and its median is
better than the parent's by more than the parent's IQR, "no gain" otherwise.
Exits 1 if a run fails or reports a failed operation.
"""

import argparse
import json
import math
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


def run_once(root: Path, workload: str, args):
    """One run's end-to-end metric values and its environment block."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if proc.returncode != 0:
        raise RuntimeError(f"{root.name}: run.py exited {proc.returncode}: {proc.stderr.strip()}")
    return parse_run(proc.stdout, root.name)


def parse_run(stdout: str, name: str):
    """The metric values of run.py's last line and the block of its `env` line."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{name}: {result['failed']}/{result['attempted']} operations "
                           "failed their check")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {metric: m["value"] for metric, m in result["metrics"].items()}, env


def machine(envs: dict) -> str:
    """The cores, thread variables and median steal share of each side's
    runs ({side: [env, ...]}), as `perfbench/run.py` records them."""
    every = [env for runs in envs.values() for env in runs]
    cores = ", ".join(sorted({f"{env['cpu_affinity']} of {env['cpu_count']}" for env in every}))
    threads = ", ".join(sorted({f"{name}={value}" for env in every
                                for name, value in env["thread_env"].items()
                                if value is not None})) or "no thread variable set"
    steal = []
    for side, runs in envs.items():
        shares = [env["steal_share"] for env in runs if "steal_share" in env]
        steal.append(f"{side} {statistics.median(shares):.2%}" if shares else f"{side} n/a")
    return f"cores {cores}; {threads}; median steal share {', '.join(steal)}"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(before, after, lower_is_better: bool, bound: float) -> str:
    """Whether the change's median is worse than the parent's by more than
    ``bound`` (relative), or unresolved because the parent's own spread is."""
    q1, q3 = quartiles(before)
    med_b, med_a = statistics.median(before), statistics.median(after)
    worse = (med_a - med_b if lower_is_better else med_b - med_a) / abs(med_b)
    all_better = (max(after) < min(before) if lower_is_better else min(after) > max(before))
    if (q3 - q1) / abs(med_b) > bound and not all_better:
        return f"unresolved (parent IQR {(q3 - q1) / abs(med_b):.1%} > bound {bound:.0%})"
    if worse > bound:
        return f"worse by {worse:.1%} > bound {bound:.0%}"
    return f"within bound {bound:.0%}"


def gain(before, after, wins: int, lower_is_better: bool) -> str:
    """"gain" when the change won at least 9 of every 10 pairs and its median
    is better than the parent's by more than the parent's IQR."""
    q1, q3 = quartiles(before)
    med_b, med_a = statistics.median(before), statistics.median(after)
    shift = med_b - med_a if lower_is_better else med_a - med_b
    won = 10 * wins >= 9 * len(before)
    verdict = "gain" if won and shift > q3 - q1 else "no gain"
    return (f"{verdict} ({wins}/{len(before)} wins, need {math.ceil(0.9 * len(before))}; "
            f"median better by {shift:.3g}, parent IQR {q3 - q1:.3g})")


def compare(workload: str, roots: dict, metrics: dict, args) -> None:
    runs = {"parent": [], "change": []}
    envs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            values, env = run_once(roots[side], workload, args)
            runs[side].append(values)
            envs[side].append(env)
        print(f"{workload} pair {i}: " + "  ".join(
            f"{name} {runs['parent'][-1][name]:.4g} -> {runs['change'][-1][name]:.4g}"
            for name in metrics), flush=True)

    print(f"\n{workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    print(machine(envs))
    for name, metric in metrics.items():
        lower_is_better = metric["better"] == "lower"
        before = [r[name] for r in runs["parent"]]
        after = [r[name] for r in runs["change"]]
        wins = sum((a < b) if lower_is_better else (a > b) for b, a in zip(before, after))
        q1, q3 = quartiles(before)
        med_b, med_a = statistics.median(before), statistics.median(after)
        print(f"{name:16s} parent {' '.join(f'{v:.4g}' for v in before)}")
        print(f"{'':16s} change {' '.join(f'{v:.4g}' for v in after)}")
        print(f"{'':16s} median {med_b:.4g} -> {med_a:.4g} ({(med_a - med_b) / med_b:+.1%}), "
              f"parent IQR {q3 - q1:.3g}, change better in {wins}/{len(before)}: "
              f"{verdict(before, after, lower_is_better, metric['bound'])}")
        print(f"{'':16s} {gain(before, after, wins, lower_is_better)}")
    print(flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append",
                        help="a workload to run; repeat for several (default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as tmp:
        roots = {side: copy_checkout(getattr(args, side).resolve(), Path(tmp) / side)
                 for side in ("parent", "change")}
        for workload in workloads:
            compare(workload, roots, metrics, args)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        print(f"ab_pairs: {exc}", file=sys.stderr)
        sys.exit(1)
