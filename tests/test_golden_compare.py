"""scripts/golden_compare.py on two small output directories: rcs.txt is
compared key by key, only declared exit-code changes are accepted, and each
reconstruction that moved within round-off is listed with its distance."""

import importlib.util
import subprocess
from pathlib import Path

import numpy as np
import pytest

from mcrecon.core import ComplexImage
from mcrecon.data import write_cks

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden_compare.py"
_spec = importlib.util.spec_from_file_location("golden_compare", SCRIPT)
golden_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_compare)


@pytest.fixture
def outs(tmp_path):
    """A parent and a change directory: the same notes.txt, and exit codes
    where rc_b changes 1 -> 2, rc_gone is removed and rc_new is added."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    codes = {parent: "rc_a=0\nrc_b=1\nrc_gone=2\n", change: "rc_a=0\nrc_b=2\nrc_new=0\n"}
    for root in (parent, change):
        root.mkdir()
        (root / "rcs.txt").write_text(codes[root])
        (root / "notes.txt").write_text("same\n")
        (root / "hashes.txt").write_text(f"{root.name}\n")  # never compared
    return parent, change


def run(outs, *expect):
    return golden_compare.main([str(outs[0]), str(outs[1]), *(f"--expect={e}" for e in expect)])


def test_every_changed_key_is_named(outs, capsys):
    assert run(outs) == 1
    out = capsys.readouterr().out
    assert "rcs.txt: rc_b: 1 -> 2\n" in out
    assert "rcs.txt: rc_gone: 2 -> absent\n" in out
    assert "rcs.txt: rc_new: absent -> 0\n" in out
    assert "rc_a" not in out
    assert "3 differ" in out


def test_declared_changes_agree(outs, capsys):
    assert run(outs, "rc_b=2", "rc_gone=", "rc_new=0") == 0
    out = capsys.readouterr().out
    assert "rcs.txt: rc_b: 1 -> 2 (declared)" in out
    assert "golden outputs agree within round-off" in out


@pytest.mark.parametrize(
    "expect, message",
    [(["rc_b=3", "rc_gone=", "rc_new=0"], "rcs.txt: rc_b: 1 -> 2, declared 3"),
     (["rc_b=2", "rc_gone=", "rc_new=0", "rc_a=0"], "rcs.txt: rc_a: 0 -> 0, declared 0"),
     (["rc_b=2", "rc_gone=", "rc_new=0", "rc_none=1"],
      "rcs.txt: rc_none: absent -> absent, declared 1")],
)
def test_a_declaration_that_does_not_hold_differs(outs, capsys, expect, message):
    """A declared code the change does not write, or a declared key that did
    not change, is a difference."""
    assert run(outs, *expect) == 1
    out = capsys.readouterr().out
    assert message in out and "1 differ" in out


def test_other_files_are_still_compared(outs, capsys):
    (outs[1] / "notes.txt").write_text("moved\n")
    assert run(outs, "rc_b=2", "rc_gone=", "rc_new=0") == 1
    assert "notes.txt: differs" in capsys.readouterr().out


def test_moved_reconstructions_are_listed_with_their_distance(outs, capsys):
    """Each reconstruction that moved within round-off is printed with its
    distance from the parent as a share of the parent's maximum, then the
    count of byte-identical files; the last line and exit code are those of
    an agreement."""
    image = np.zeros((1, 4, 4), np.complex64)
    image[0, 1, 2] = 2.0
    moved = image.copy()
    moved[0, 3, 3] = 1e-6  # 5e-07 of max
    for root, data in ((outs[0], image), (outs[1], moved)):
        for name in ("r_moved", "r_same"):
            write_cks(root / f"{name}.cks", ComplexImage(data if name == "r_moved" else image))
            (root / f"{name}.mag0.pgm").write_bytes(b"P5\n4 4\n255\n" + bytes(16))
    assert run(outs, "rc_b=2", "rc_gone=", "rc_new=0") == 0
    lines = capsys.readouterr().out.splitlines()
    assert "r_moved.cks: 5e-07 of max" in lines
    assert not any(line.startswith("r_same.cks") for line in lines)
    assert "4 of 6 files byte-identical" in lines  # all but rcs.txt and r_moved.cks
    assert lines[-1] == "golden outputs agree within round-off"


def test_expect_needs_key_and_equals(outs):
    with pytest.raises(SystemExit) as exc:
        run(outs, "rc_b")
    assert exc.value.code == 2


@pytest.mark.parametrize("layout", ["missing", "empty", "src_without_package"])
def test_golden_hashes_without_a_package_exits_2(tmp_path, layout):
    """scripts/golden_hashes.sh takes a checkout root or its src/; a SRC_DIR
    with neither mcrecon/ nor src/mcrecon/ exits 2 before any CLI call and
    writes no OUT_DIR."""
    src = tmp_path / "checkout"
    if layout != "missing":
        src.mkdir()
    if layout == "src_without_package":
        (src / "src").mkdir()
    out = tmp_path / "out"
    done = subprocess.run(["bash", str(SCRIPT.with_name("golden_hashes.sh")), str(src), str(out)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "no mcrecon package" in done.stderr
    assert not out.exists()
