"""scripts/accel_sweep.py at a small size: every scheme and R gives a row,
and each rectilinear row samples exactly ceil(size / R) columns, so its ACS
block fits the column budget at every R."""

import importlib.util
import math
from pathlib import Path

import pytest

from mcrecon.core import RECTILINEAR_SCHEMES
from mcrecon.sampling import GENERATORS

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "accel_sweep.py"
_spec = importlib.util.spec_from_file_location("accel_sweep", SCRIPT)
accel_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(accel_sweep)


def test_rectilinear_rows_state_the_asked_acceleration(capsys):
    size = 30  # ceil(30 / R) is 8, 4 and 3 columns at R 4, 8 and 10
    accel_sweep.main(["--size", str(size), "--coils", "2"])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(r[0], int(r[1])) for r in rows] == [
        (s, R) for s in GENERATORS for R in (4, 8, 10)
    ]
    for scheme, R, r_eff, *_ in rows:
        if scheme in RECTILINEAR_SCHEMES:
            assert float(r_eff) == pytest.approx(size / math.ceil(size / int(R)), abs=0.005)

