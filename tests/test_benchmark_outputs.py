"""The benchmark's own output check on its first operations.

Runs operations 0 and 1 of every workload in perfbench/workloads.py at the
default seed, in process, and applies the checks a benchmark run applies to
each operation: the report or sweep.csv checks (`Workload.bounds`) and the
comparison with perfbench/reference.json (`compare_reference`).  A change
that moves a benchmark output beyond the reference's tolerance fails here
first.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_operations_pass_the_benchmark_check(tmp_path, name):
    seed = workloads.DEFAULT_SEED
    reference = workloads.load_reference(name, seed)
    assert len(reference) >= 2
    work = workloads.Workload(name, seed, tmp_path)
    for i in range(2):
        work.prepare(i)
        workloads.compare_reference(i, work.bounds(i, work.run_op(i)), reference)
