"""Golden outputs: a change that moves the pipeline's numbers fails here.

The files under tests/data hold outputs the CLI wrote: the `--no-timing`
CSVs and `--panels` files of three small `tables` grids (both critical
methods, both kernels, size and power cells, each grid next to its
config) and the `result` block of one `test` report on a sample simulated
from golden_sim.cfg.  Numbers are compared with the benchmark's rule
(perfbench/workloads.py `close`): ints, bools and strings exactly, floats
to 1e-9 relative, which allows for BLAS summation order only.  The CSV
header, its axis columns and the panels are compared as text, so their
number format is pinned too.  Rewrite them only for a change that means
to move the numbers or the format.
"""

import csv
import json
import math
import pathlib

import pytest

from funcusum.cli import main

DATA = pathlib.Path(__file__).resolve().parent / "data"
REL_TOL = 1e-9
ABS_TOL = 1e-12


def close(got, want) -> bool:
    if isinstance(want, bool) or isinstance(got, bool):
        return got is want
    if isinstance(want, (int, str)) and isinstance(got, (int, str)):
        return got == want
    if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
        return False
    if math.isinf(want) or math.isinf(got) or math.isnan(want):
        return got == want
    return abs(got - want) <= REL_TOL * abs(want) + ABS_TOL


def csv_cells(path):
    """CSV rows with each cell as an int, a float or a string."""
    def cell(text):
        for parse in (int, float):
            try:
                return parse(text)
            except ValueError:
                pass
        return text

    with open(path, newline="") as fh:
        return [[cell(c) for c in row] for row in csv.reader(fh)]


AXIS_COLUMNS = 6


@pytest.mark.parametrize("name", ["golden_vostrikova", "golden_gumbel",
                                  "golden_mixed"])
def test_tables_csv_matches_golden(tmp_path, capsys, name):
    out, panels = tmp_path / "cells.csv", tmp_path / "cells.panels"
    assert main(["tables", str(DATA / f"{name}.cfg"), "--out", str(out),
                 "--panels", str(panels), "--quiet", "--no-timing"]) == 0
    capsys.readouterr()
    got, want = csv_cells(out), csv_cells(DATA / f"{name}.csv")
    assert got[0] == want[0] and len(got) == len(want)
    for g, w in zip(got[1:], want[1:]):
        assert len(g) == len(w) and all(map(close, g, w)), (g, w)
    # As text too: `close` reads "1" and "1.0" alike.
    got, want = (out.read_text().splitlines(),
                 (DATA / f"{name}.csv").read_text().splitlines())
    assert ([row.split(",")[:AXIS_COLUMNS] for row in got]
            == [row.split(",")[:AXIS_COLUMNS] for row in want])
    assert panels.read_text() == (DATA / f"{name}.panels").read_text()


def test_test_report_result_matches_golden(tmp_path, capsys):
    sample, report = tmp_path / "sim.csv", tmp_path / "report.json"
    assert main(["simulate", str(DATA / "golden_sim.cfg"),
                 "--out", str(sample)]) == 0
    assert main(["test", str(sample), "--d", "2", "--basis-smooth", "20:4",
                 "--fourier", "15", "--lag-kernel", "parzen",
                 "--out", str(report)]) == 0
    capsys.readouterr()
    got = json.loads(report.read_text())["result"]
    want = json.loads((DATA / "golden_test_result.json").read_text())
    assert got.keys() == want.keys()
    for key in want:
        assert close(got[key], want[key]), (key, got[key], want[key])
