"""Tree evaluations against goldens recorded by tools/record_golden.py.

Each cell of tests/golden_trees.json holds its inputs and its outputs; the
cell is run again and every output must match exactly, floats bit for bit.
The cells cover a fixed-grid 1-d tree (the tree_step cell at smaller n), a
tuned 1-d tree, a 1-d three-tree forest and a 5-d tree.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("record_golden", ROOT / "tools" / "record_golden.py")
record_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_golden)

CELLS = json.loads(record_golden.GOLDEN_FILE.read_text())["cells"]


def test_goldens_cover_every_recorded_cell():
    assert [cell["name"] for cell in CELLS] == [cell["name"] for cell in record_golden.CELLS]


@pytest.mark.parametrize("cell", CELLS, ids=[cell["name"] for cell in CELLS])
def test_tree_evaluation_matches_golden(cell):
    got = record_golden.run_cell(cell)
    assert [report["label"] for report in got] == [report["label"] for report in cell["reports"]]
    for report, want in zip(got, cell["reports"]):
        for field, value in want.items():
            assert report[field] == value, f"{report['label']}: {field}"
        assert report.keys() == want.keys()
