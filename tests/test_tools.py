import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_report_drift_of_a_checkout_against_itself_is_zero():
    # The drift tool that shows a change leaves outputs alone: this checkout
    # against itself on one tree_step operation drifts by 0 in every field.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_drift.py"), str(ROOT), str(ROOT),
         "--workload", "tree_step", "--ops", "1", "--max-rel", "0"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) > 3
    for line in lines:
        field, drift = line.split()
        assert float(drift) == 0.0, line
