import argparse
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def assert_no_drift_against_itself(workload):
    """This checkout against itself on one operation of ``workload`` drifts
    by 0 in every field."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_drift.py"), str(ROOT), str(ROOT),
         "--workload", workload, "--ops", "1", "--max-rel", "0"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) > 3
    for line in lines:
        field, drift = line.split()
        assert float(drift) == 0.0, line


def test_report_drift_of_a_checkout_against_itself_is_zero():
    # The drift tool that shows a change leaves outputs alone, here on the
    # tree path.
    assert_no_drift_against_itself("tree_step")


def test_linear_smoother_path_is_deterministic():
    # ridge1d_bign runs fourier_ridge's linear-smoother path, whose moments
    # come from coefficients: two runs of it agree bit for bit.
    assert_no_drift_against_itself("ridge1d_bign")


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", [["mlp", "--chek"], ["mpl"], ["--check", "boost"]])
def test_record_golden_bad_argument_exits_2_and_writes_nothing(argv, capsys):
    # A mistyped flag or trainer name stops before any cell runs, so no
    # golden is re-recorded by accident.
    record_golden = load_tool("record_golden")
    paths = [path for path, _ in record_golden.GOLDENS.values()]
    before = [path.read_bytes() for path in paths]
    with pytest.raises(SystemExit) as exc:
        record_golden.main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert [path.read_bytes() for path in paths] == before


# Ten parent runs: median 1.045, interquartile range 0.045 (4.3% of it).
PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def test_ab_verdict_against_the_bound():
    verdict = load_tool("ab_pairs").verdict
    slower = [1.3 * v for v in PARENT]
    assert verdict(PARENT, [1.1 * v for v in PARENT], True, 0.25).startswith("within bound")
    assert verdict(PARENT, slower, True, 0.25).startswith("worse by 30.0%")
    # Higher is better: 30% lower is worse, 30% higher within bound.
    assert verdict(PARENT, [0.7 * v for v in PARENT], False, 0.25).startswith("worse by 30.0%")
    assert verdict(PARENT, slower, False, 0.25).startswith("within bound")
    # A parent spread wider than the bound leaves the metric unresolved,
    # unless every change run beats every parent run.
    assert verdict(PARENT, PARENT, True, 0.02).startswith("unresolved")
    assert verdict(PARENT, slower, True, 0.02).startswith("unresolved")
    assert verdict(PARENT, [0.5 * v for v in PARENT], True, 0.02).startswith("within bound")
    assert verdict(PARENT, [2.0 * v for v in PARENT], False, 0.02).startswith("within bound")


def test_ab_gain_needs_nine_tenths_of_the_pairs_and_a_shift_past_the_iqr():
    gain = load_tool("ab_pairs").gain
    faster = [v - 0.1 for v in PARENT]
    assert gain(PARENT, faster, 9, True).startswith("gain (9/10 wins, need 9;")
    assert gain(PARENT, faster, 8, True).startswith("no gain")
    # A tie counts for neither side: nine wins and a tie are a gain, eight
    # wins and two ties are not.
    assert gain(PARENT, faster[:9] + PARENT[9:], 9, True).startswith("gain")
    assert gain(PARENT, faster[:8] + PARENT[8:], 8, True).startswith("no gain")
    # Winning every pair by less than the parent's IQR is no gain.
    assert gain(PARENT, [v - 0.01 for v in PARENT], 10, True).startswith("no gain")
    # Higher is better.
    assert gain(PARENT, [v + 0.1 for v in PARENT], 10, False).startswith("gain")
    assert gain(PARENT, faster, 0, False).startswith("no gain")


def test_ab_reads_each_runs_machine():
    # Every comparison states the cores, the thread variables and the
    # steal share its runs saw, from the `env` line run.py prints.
    ab_pairs = load_tool("ab_pairs")
    env = {"cpu_count": 4, "cpu_affinity": 2, "steal_share": 0.01,
           "thread_env": {"OMP_NUM_THREADS": None, "OPENBLAS_NUM_THREADS": "1"}}
    stdout = "\n".join([
        "workload ridge1d_bign seed 7 trace 0: 3 operations in 1.00 s",
        "env " + json.dumps(env, sort_keys=True),
        json.dumps({"correct": True, "attempted": 3, "failed": 0,
                    "metrics": {"eval_s_p50": {"value": 0.5, "unit": "s"}}})])
    assert ab_pairs.parse_run(stdout, "change") == ({"eval_s_p50": 0.5}, env)
    envs = {"parent": [dict(env, steal_share=s) for s in (0.01, 0.04, 0.02)],
            "change": [{k: v for k, v in env.items() if k != "steal_share"}]}
    assert ab_pairs.machine(envs) == ("cores 2 of 4; OPENBLAS_NUM_THREADS=1; "
                                      "median steal share parent 2.00%, change n/a")
    unset = dict(env, thread_env={"OMP_NUM_THREADS": None})
    assert ab_pairs.machine({"parent": [unset], "change": [unset]}) == (
        "cores 2 of 4; no thread variable set; median steal share parent 1.00%, change 1.00%")


def test_ab_out_records_every_metric_and_the_machine(tmp_path):
    # `--out` writes what the comparison prints, per workload and metric,
    # from synthetic runs: no benchmark runs here.
    ab_pairs = load_tool("ab_pairs")
    metrics = {"eval_s_p50": {"name": "eval_s_p50", "better": "lower", "bound": 0.25},
               "evals_per_s": {"name": "evals_per_s", "better": "higher", "bound": 0.25}}
    faster = [v - 0.1 for v in PARENT]
    runs = {"parent": [{"eval_s_p50": b, "evals_per_s": 1 / b} for b in PARENT],
            "change": [{"eval_s_p50": a, "evals_per_s": 1 / a} for a in faster]}
    env = {"cpu_count": 2, "cpu_affinity": 2, "steal_share": 0.01,
           "thread_env": {"OMP_NUM_THREADS": None, "OPENBLAS_NUM_THREADS": "1"}}
    envs = {"parent": [env] * 10, "change": [dict(env, steal_share=0.03)] * 10}
    record = ab_pairs.summarize(runs, envs, metrics)
    args = argparse.Namespace(seed=7, pairs=10, seconds=8.0)
    path = tmp_path / "BENCH.json"
    ab_pairs.write_record(path, args, {"ridge1d_bign": record})
    written = json.loads(path.read_text())
    assert {k: written[k] for k in ("seed", "pairs", "seconds")} == {
        "seed": 7, "pairs": 10, "seconds": 8.0}
    [[name, got]] = written["workloads"].items()
    assert name == "ridge1d_bign"
    assert got["machine"] == {"cores": ["2 of 2"], "thread_env": {"OPENBLAS_NUM_THREADS": "1"},
                              "steal_share": {"parent": 0.01, "change": 0.03}}
    p50 = got["metrics"]["eval_s_p50"]
    assert p50["parent"] == PARENT and p50["change"] == faster
    assert p50["parent_median"] == 1.045 and math.isclose(p50["change_median"], 0.945)
    assert math.isclose(p50["parent_iqr"], 0.045)
    assert p50["change_wins"] == 10 and p50["better"] == "lower" and p50["bound"] == 0.25
    assert p50["verdict"].startswith("within bound") and p50["gain"].startswith("gain (10/10")
    rate = got["metrics"]["evals_per_s"]
    assert rate["change_wins"] == 10 and rate["gain"].startswith("gain")
    # The printed machine line reads the same record.
    assert ab_pairs.machine(envs) == ("cores 2 of 2; OPENBLAS_NUM_THREADS=1; "
                                      "median steal share parent 1.00%, change 3.00%")


def test_ab_exits_2_when_a_metric_reads_worse():
    # Synthetic runs through `summarize`: a change 30% slower on one
    # workload's eval_s_p50 makes the comparison exit 2; within its bound
    # everywhere, or only unresolved, it exits 0.
    ab_pairs = load_tool("ab_pairs")
    env = {"cpu_count": 2, "cpu_affinity": 2, "thread_env": {}}
    envs = {"parent": [env] * 10, "change": [env] * 10}

    def record(scale, bound=0.25):
        runs = {"parent": [{"eval_s_p50": b} for b in PARENT],
                "change": [{"eval_s_p50": scale * b} for b in PARENT]}
        return ab_pairs.summarize(runs, envs, {"eval_s_p50": {"better": "lower", "bound": bound}})

    within, worse = record(1.1), record(1.3)
    assert worse["metrics"]["eval_s_p50"]["verdict"].startswith("worse")
    assert ab_pairs.exit_status({"ridge1d_bign": within, "ridge5d": within}) == 0
    assert ab_pairs.exit_status({"ridge1d_bign": within, "ridge5d": worse}) == 2
    unresolved = record(1.3, bound=0.02)
    assert unresolved["metrics"]["eval_s_p50"]["verdict"].startswith("unresolved")
    assert ab_pairs.exit_status({"tree_step": unresolved}) == 0
