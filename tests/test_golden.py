"""Evaluations against goldens recorded by tools/record_golden.py.

Each cell of a trainer's golden file holds its inputs and its outputs; the
cell is run again and every output must match exactly, floats bit for bit.
The tree cells cover a fixed-grid 1-d tree (the tree_step cell at smaller
n), a tuned 1-d tree, a 1-d three-tree forest and a 5-d tree.  The
fourier_ridge cells cover the explicit design with the linear-smoother step
and refit at every scale, the kernel path, a design warm-up with kernel
refits, lam = 0, and tuned mode on the design and on the kernel.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("record_golden", ROOT / "tools" / "record_golden.py")
record_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_golden)

CELLS = {name: json.loads(path.read_text())["cells"]
         for name, (path, _) in record_golden.GOLDENS.items()}


def test_goldens_cover_every_recorded_cell():
    for name, (_, cells) in record_golden.GOLDENS.items():
        assert [cell["name"] for cell in CELLS[name]] == [cell["name"] for cell in cells], name


def assert_matches_golden(trainer_name, cell):
    got = record_golden.run_cell(trainer_name, cell)
    assert [report["label"] for report in got] == [report["label"] for report in cell["reports"]]
    for report, want in zip(got, cell["reports"]):
        for field, value in want.items():
            assert report[field] == value, f"{report['label']}: {field}"
        assert report.keys() == want.keys()


@pytest.mark.parametrize("cell", CELLS["tree"], ids=[cell["name"] for cell in CELLS["tree"]])
def test_tree_evaluation_matches_golden(cell):
    assert_matches_golden("tree", cell)


@pytest.mark.parametrize("cell", CELLS["fourier_ridge"],
                         ids=[cell["name"] for cell in CELLS["fourier_ridge"]])
def test_fourier_ridge_evaluation_matches_golden(cell):
    assert_matches_golden("fourier_ridge", cell)
