"""Alternating benchmark runs of two checkouts, pair by pair.

    python3 tools/ab_pairs.py PARENT CHANGE --pairs 10 --seconds 25
    python3 tools/ab_pairs.py PARENT CHANGE --workload ridge1d_bign --workload ridge5d
    python3 tools/ab_pairs.py PARENT CHANGE --pairs 8 --seconds 8 --out BENCH.json

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
With ``--out FILE``, the same comparison is also written to FILE as JSON:
the seed, pair count and run length, then per workload its machine (cores,
thread variables set, each side's median steal share) and, per metric, both
sides' per-pair values, both medians, the parent's IQR, the change's win
count and both verdicts.  Exits 1 if a run fails or reports a failed
operation, else 2 if any end-to-end metric's verdict on any workload is
"worse", else 0.
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


def machine_record(envs: dict) -> dict:
    """The cores, the thread variables set and each side's median steal
    share (None when its runs record none) of each side's runs
    ({side: [env, ...]}), as `perfbench/run.py` records them."""
    every = [env for runs in envs.values() for env in runs]
    steal = {}
    for side, runs in envs.items():
        shares = [env["steal_share"] for env in runs if "steal_share" in env]
        steal[side] = statistics.median(shares) if shares else None
    return {
        "cores": sorted({f"{env['cpu_affinity']} of {env['cpu_count']}" for env in every}),
        "thread_env": dict(sorted({(name, value) for env in every
                                   for name, value in env["thread_env"].items()
                                   if value is not None})),
        "steal_share": steal,
    }


def machine(envs: dict) -> str:
    """`machine_record` as one line."""
    record = machine_record(envs)
    threads = ", ".join(f"{name}={value}" for name, value in record["thread_env"].items())
    steal = ", ".join(f"{side} {share:.2%}" if share is not None else f"{side} n/a"
                      for side, share in record["steal_share"].items())
    return (f"cores {', '.join(record['cores'])}; {threads or 'no thread variable set'}; "
            f"median steal share {steal}")


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


def summarize(runs: dict, envs: dict, metrics: dict) -> dict:
    """One workload's record: its machine (`machine_record`) and, per
    end-to-end metric, both sides' per-pair values, medians, the parent's
    IQR, the change's win count and both verdicts."""
    record = {"machine": machine_record(envs), "metrics": {}}
    for name, metric in metrics.items():
        lower_is_better = metric["better"] == "lower"
        before = [r[name] for r in runs["parent"]]
        after = [r[name] for r in runs["change"]]
        wins = sum((a < b) if lower_is_better else (a > b) for b, a in zip(before, after))
        q1, q3 = quartiles(before)
        record["metrics"][name] = {
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": before,
            "change": after,
            "parent_median": statistics.median(before),
            "change_median": statistics.median(after),
            "parent_iqr": q3 - q1,
            "change_wins": wins,
            "verdict": verdict(before, after, lower_is_better, metric["bound"]),
            "gain": gain(before, after, wins, lower_is_better),
        }
    return record


def exit_status(records: dict) -> int:
    """2 if any metric of any workload's record (`summarize`) reads "worse", else 0."""
    return 2 if any(m["verdict"].startswith("worse") for record in records.values()
                    for m in record["metrics"].values()) else 0


def compare(workload: str, roots: dict, metrics: dict, args) -> dict:
    """Run a workload's pairs, print its summary and return its `summarize` record."""
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

    record = summarize(runs, envs, metrics)
    print(f"\n{workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    print(machine(envs))
    for name, m in record["metrics"].items():
        med_b, med_a = m["parent_median"], m["change_median"]
        print(f"{name:16s} parent {' '.join(f'{v:.4g}' for v in m['parent'])}")
        print(f"{'':16s} change {' '.join(f'{v:.4g}' for v in m['change'])}")
        print(f"{'':16s} median {med_b:.4g} -> {med_a:.4g} ({(med_a - med_b) / med_b:+.1%}), "
              f"parent IQR {m['parent_iqr']:.3g}, change better in "
              f"{m['change_wins']}/{len(m['parent'])}: {m['verdict']}")
        print(f"{'':16s} {m['gain']}")
    print(flush=True)
    return record


def write_record(path: Path, args, records: dict) -> None:
    """The comparison's settings and every workload's record, as JSON."""
    path.write_text(json.dumps({"seed": args.seed, "pairs": args.pairs,
                                "seconds": args.seconds, "workloads": records},
                               indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append",
                        help="a workload to run; repeat for several (default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path,
                        help="also write every workload's record to this JSON file")
    args = parser.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as tmp:
        roots = {side: copy_checkout(getattr(args, side).resolve(), Path(tmp) / side)
                 for side in ("parent", "change")}
        records = {workload: compare(workload, roots, metrics, args) for workload in workloads}
    if args.out:
        write_record(args.out, args, records)
    return exit_status(records)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        print(f"ab_pairs: {exc}", file=sys.stderr)
        sys.exit(1)
