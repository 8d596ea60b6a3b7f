"""Record the reference bounds that run.py checks at the default seed.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs the first operations of each workload at the default seed, checks
them as a benchmark run would, and writes their bounds to reference.json.
Re-record only in a change that alters the bounds on purpose, and say so.
"""

import json
import sys
import tempfile
from pathlib import Path

import workloads

# Operations recorded per workload: more than a run of a few times today's
# run length performs, at a few seconds of recording each.
RECORDED_OPS = {"ridge1d_bign": 16, "ridge5d": 4, "tree_step": 64}


def record(name: str) -> list:
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        w = workloads.Workload(name, workloads.DEFAULT_SEED, Path(tmp))
        ops = []
        for i in range(RECORDED_OPS[name]):
            w.prepare(i)
            ops.append(w.bounds(i, w.run_op(i)))
        return ops


def main(names) -> int:
    path = workloads.REFERENCE_FILE
    reference = json.loads(path.read_text()) if path.is_file() else {}
    for name in names or sorted(workloads.WORKLOADS):
        reference[name] = record(name)
        print(f"{name}: recorded {len(reference[name])} operations")
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
