"""Evaluations against goldens recorded by tools/record_golden.py.

Each cell of a trainer's golden file holds its inputs and its outputs; the
cell is run again and every output must match exactly, floats bit for bit.
The tree cells cover a fixed-grid 1-d tree (the tree_step cell at smaller
n), a tuned 1-d tree and a 5-d tree.  The fourier_ridge cells cover the
explicit design with the linear-smoother step and refit at every scale, the
kernel path, a design warm-up with kernel refits, lam = 0, and tuned mode on
the design and on the kernel.  The mlp cell covers
`TrainerOracle.fit_multi`'s loop of one fit per column.
"""

import importlib.util
import json
import math
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


@pytest.mark.parametrize("cell", CELLS["mlp"], ids=[cell["name"] for cell in CELLS["mlp"]])
def test_mlp_evaluation_matches_golden(cell):
    assert_matches_golden("mlp", cell)


def test_check_reports_each_moved_field(monkeypatch, tmp_path):
    # `record_golden.py --check` against a golden file whose first report
    # has one bound one ulp off and one flag renamed: those two fields move
    # (the bound by one ulp, the flag infinitely), every other field by 0.
    path, cells = record_golden.GOLDENS["mlp"]
    golden = json.loads(path.read_text())
    report = golden["cells"][0]["reports"][0]
    bound = float.fromhex(report["fixed_design_bound"])
    report["fixed_design_bound"] = math.nextafter(bound, math.inf).hex()
    report["pilot_flags"] = report["pilot_flags"] + ["renamed"]
    moved = tmp_path / "golden.json"
    moved.write_text(json.dumps(golden))
    monkeypatch.setitem(record_golden.GOLDENS, "mlp", (moved, cells))
    worst = record_golden.check("mlp")
    assert worst["fixed_design_bound"][0] == math.ulp(bound) / math.nextafter(bound, math.inf)
    assert worst["pilot_flags"][0] == math.inf
    assert {key for key, (move, _) in worst.items() if move} == {"fixed_design_bound",
                                                                 "pilot_flags"}
    monkeypatch.setitem(record_golden.GOLDENS, "mlp", (path, cells))
    assert record_golden.main(["--check", "mlp"]) == 0


def test_check_reports_a_stale_cell(monkeypatch):
    # A cell still in the golden file but no longer defined moves `cells`
    # infinitely, as a defined cell missing from the file does.
    path, cells = record_golden.GOLDENS["mlp"]
    monkeypatch.setitem(record_golden.GOLDENS, "mlp", (path, []))
    assert dict(record_golden.check("mlp")) == {"cells": (math.inf, cells[0]["name"])}
    assert record_golden.main(["--check", "mlp"]) == 1
