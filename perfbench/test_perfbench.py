"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Each traced run performs one operation, so the slowest case (ridge5d) takes
about half a minute.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
REPEATABLE = ("trainers.fit.calls", "trainers.predict.rows", "sampling.srswor.calls")


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


def traced_metrics(workload: str, seed: int) -> dict:
    proc = run_bench(ROOT, "--workload", workload, "--seed", str(seed),
                     "--seconds", "0.01", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_at_one_seed(workload):
    first = traced_metrics(workload, seed=7)
    second = traced_metrics(workload, seed=7)
    assert sorted(first) == sorted(PER_LAYER)
    for name in REPEATABLE:
        assert first[name] > 0
        assert first[name] == second[name], name


def test_exits_nonzero_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "tree_step", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


class FakeReport:
    def __init__(self, label, **terms):
        self.label = label
        self.__dict__.update(terms)


def fake_report(label="0.5", pilot=0.25):
    return FakeReport(label, mean_opt_tilde=0.1, mean_opt_check=0.2, deviation=0.3,
                      pilot_proxy=pilot, fixed_design_bound=0.1 + 0.2 + 0.3 + 0.25,
                      wild_optimism_bound=0.1 + 0.2, random_design_bound=3.0)


def test_output_check_rejects_unitemized_fixed_bound():
    assert workloads.library_bounds([fake_report()], [0.5])["0.5"]["random_design_bound"] == 3.0
    with pytest.raises(workloads.CheckFailed):
        workloads.library_bounds([fake_report(pilot=0.26)], [0.5])


def test_output_check_rejects_non_finite_bound():
    report = fake_report()
    report.random_design_bound = math.inf
    with pytest.raises(workloads.CheckFailed):
        workloads.library_bounds([report], [0.5])


def test_reference_check_tolerance():
    reference = [{"0.5": {"bound": 1.0}}]
    workloads.compare_reference(0, {"0.5": {"bound": 1.0 + 5e-10}}, reference)
    workloads.compare_reference(1, {"0.5": {"bound": 2.0}}, reference)  # past the record
    with pytest.raises(workloads.CheckFailed):
        workloads.compare_reference(0, {"0.5": {"bound": 1.0 + 2e-9}}, reference)
