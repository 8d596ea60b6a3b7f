"""wildriff benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload ridge1d_bign --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from `src/`.
Operations run back to back (a closed loop with one caller) until
`--seconds` have passed; each operation's output is checked.  With
`--trace 0` the last stdout line carries the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced run (see tracing.py).  The
lines before it are a human-readable summary and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from workloads import ROOT, CheckFailed, SourceMissing, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "eval_s_p50": "s",
    "evals_per_s": "1/s",
    "cpu_s_per_eval": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def setup_probe(workload: str, seed: int) -> float:
    """Seconds to import wildriff, make the first inputs and the trainer."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        Workload(workload, seed, Path(tmp))
        return time.perf_counter() - start


def measure_setup(workload: str, seed: int) -> list:
    """Set-up seconds of fresh interpreters, one per probe."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def cpu_ticks():
    """(steal, total) ticks of the whole machine, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def environment(wr) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    thread_vars = ("WILDRIFF_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "git_commit": commit,
        "wildriff": wr.__version__,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workloads.import_wildriff()
    OUT_DIR.mkdir(exist_ok=True)
    setup_times = [] if trace else measure_setup(workload, seed)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    try:
        return _run(workload, seed, seconds, trace, setup_times, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, seed, seconds, trace, setup_times, workdir) -> dict:
    w = Workload(workload, seed, workdir)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        for name in tracer.install(w.wr):
            print(f"trace: {name} not found; its spans are missing")
        if w.trainer is not None:
            w.trainer = tracer.trainer(w.trainer)
        w.cli_main = tracer.wrap("cli.main", w.cli_main)
        w.generate = tracer.wrap("synth.generate", w.generate)
    reference = workloads.load_reference(workload, seed)

    walls, failures = [], []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    ticks0 = cpu_ticks()
    loop_start = time.perf_counter()
    deadline = loop_start + seconds
    i = 0
    while True:
        if tracer:
            tracer.op = i
        w.prepare(i)
        start = time.perf_counter()
        try:
            result = w.run_op(i)
        except Exception as exc:  # an operation that raised counts as failed
            result = exc
        walls.append(time.perf_counter() - start)
        if isinstance(result, Exception):
            failures.append(f"op {i}: {type(result).__name__}: {result}")
        else:
            try:
                workloads.compare_reference(i, w.bounds(i, result), reference)
            except CheckFailed as exc:
                failures.append(f"op {i}: {exc}")
        i += 1
        if time.perf_counter() >= deadline:
            break
    loop_wall = time.perf_counter() - loop_start
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    ticks1 = cpu_ticks()

    attempted = i
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    summary = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "attempted": attempted, "failed": len(failures), "failures": failures[:5],
        "fail_frac": len(failures) / attempted, "loop_wall_s": loop_wall,
        "eval_s": walls, "setup_s": setup_times, "env": environment(w.wr),
    }
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # Time the hypervisor gave the machine's CPUs to others: wall-time noise.
        summary["env"]["steal_share"] = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    if tracer:
        metrics = tracer.metrics(walls)
        units = tracing.PER_LAYER_UNITS
        tracer.dump(OUT_DIR / f"trace-{workload}-seed{seed}.jsonl")
    else:
        metrics = {
            "eval_s_p50": statistics.median(walls),
            "evals_per_s": (attempted - len(failures)) / loop_wall,
            "cpu_s_per_eval": cpu / attempted,
            "peak_rss_mb": ru1.ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup_times),
        }
        units = END_TO_END_UNITS
    summary["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return summary


def print_report(summary: dict) -> None:
    print(f"workload {summary['workload']} seed {summary['seed']} trace {summary['trace']}: "
          f"{summary['attempted']} operations in {summary['loop_wall_s']:.2f} s")
    for name, m in summary["metrics"].items():
        print(f"  {name:38s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_frac':38s} {summary['fail_frac']:>14.6g} "
          f"({summary['failed']}/{summary['attempted']})")
    print(f"  eval_s samples ({len(summary['eval_s'])}): "
          + " ".join(f"{t:.4f}" for t in summary["eval_s"][:20]))
    if summary["setup_s"]:
        print(f"  setup_s samples: " + " ".join(f"{t:.4f}" for t in summary["setup_s"]))
    for line in summary["failures"]:
        print(f"  FAILED {line}")
    print("env " + json.dumps(summary["env"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(setup_probe(args.workload, args.seed))
            return 0
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_report(summary)
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
