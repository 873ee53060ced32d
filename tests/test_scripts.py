"""The scripts under scripts/, run in process against the library they wrap."""

import csv
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

from twoatom.propagator import c_max, t_gamma

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("gamma0,points", [(1.0, 99), (2.5, 7), (1e-3, 13)])
def test_peak_scan_rows_are_the_peak_formulas(gamma0, points):
    out = io.StringIO()
    _load("peak_scan").run(gamma0, points, out)
    header, *rows = csv.reader(io.StringIO(out.getvalue()))
    assert header == ["g", "t_gamma", "c_max"]
    gs = np.linspace(0.01, 0.99, points)
    assert len(rows) == points
    for row, g in zip(rows, gs):
        gamma = g * gamma0
        assert [float(x) for x in row] == [g, t_gamma(gamma0, gamma), c_max(gamma0, gamma)]
