#!/usr/bin/env python3
"""Compare two output directories of scripts/golden_hashes.sh when a change
may move floating-point round-off but nothing else.

Every file must be byte-identical, except:
- a reconstruction (an image .cks that has a .mag0.pgm preview beside it)
  may differ by at most 1e-6 * max|parent|;
- each min/max value of a .scale.txt may differ by at most 1e-6 * the larger
  of the parent's two magnitudes;
- a .pgm may differ by at most 1 grey level, with the same header;
- an evaluate .csv must have the parent's header and row keys (every column
  but the last). Its values score the change's reconstructions, which may
  have moved, so they are not compared; instead the evaluate that wrote the
  parent's CSV (its arguments are in the .csv.argv file beside it) is run
  again with the mcrecon sources this script imports, on the parent's
  files, and each of its last-column values may differ from the parent's
  by at most 1e-12 * |parent value|.
rcs.txt is compared key by key: each exit code that was added, removed or
changed is printed (``rc_sens_both: 0 -> 2``), and is a difference unless it
is declared with ``--expect KEY=CODE`` (``--expect KEY=`` declares a removed
key). A declared key whose code is not CODE on the change's side, or did not
change, is a difference too.
Any other difference, or a file present on one side only, is named and the
script exits 1. Each reconstruction that moved within its tolerance is
printed with its distance from the parent (``r_crop.cks: 7.3e-07 of max``),
followed by the count of byte-identical files.

Usage: PYTHONPATH=src python3 scripts/golden_compare.py PARENT_OUT CHANGE_OUT
       [--expect KEY=CODE ...]
"""

import argparse
import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import mcrecon
from mcrecon.core import ComplexImage
from mcrecon.data import read_cks

CKS_TOL = 1e-6
SCALE_TOL = 1e-6
PGM_TOL = 1
CSV_TOL = 1e-12


def _cks_distance(a: Path, b: Path) -> tuple[float | None, str | None]:
    """max|b - a| / max|a| of two reconstructions that agree within CKS_TOL,
    or why they do not."""
    if not a.with_suffix(".mag0.pgm").exists():
        return None, "differs and is not a reconstruction"
    pa, pb = read_cks(a), read_cks(b)
    if not (isinstance(pa, ComplexImage) and isinstance(pb, ComplexImage)):
        return None, "differs and is not an image"
    if pa.data.shape != pb.data.shape:
        return None, f"shape {pa.data.shape} -> {pb.data.shape}"
    err = np.abs(pa.data - pb.data).max() / np.abs(pa.data).max()
    return (err, None) if err <= CKS_TOL else (None, f"relative difference {err:.3g} > {CKS_TOL}")


def _scale_close(a: Path, b: Path) -> str | None:
    va = dict(line.split("=") for line in a.read_text().split())
    vb = dict(line.split("=") for line in b.read_text().split())
    if va.keys() != vb.keys():
        return f"keys {sorted(va)} -> {sorted(vb)}"
    # relative to the file's range: a min of 1e-17 is a rounded zero
    scale = max(abs(float(v)) for v in va.values())
    for key in va:
        x, y = float(va[key]), float(vb[key])
        if abs(x - y) > SCALE_TOL * scale:
            return f"{key} {x!r} -> {y!r}"
    return None


def _pgm_close(a: Path, b: Path) -> str | None:
    ra, rb = a.read_bytes(), b.read_bytes()
    head = len(b"\n".join(ra.split(b"\n", 3)[:3])) + 1
    if ra[:head] != rb[:head] or len(ra) != len(rb):
        return "header or size differs"
    pa, pb = (np.frombuffer(r[head:], np.uint8).astype(int) for r in (ra, rb))
    diff = np.abs(pa - pb)
    return None if diff.max() <= PGM_TOL else f"{diff.max()} grey levels apart"


def _csv_close(a: Path, b: Path, values: bool = True) -> str | None:
    ra, rb = (list(csv.reader(p.read_text().splitlines())) for p in (a, b))
    if ra[:1] != rb[:1] or len(ra) != len(rb):
        return "header or row count differs"
    for la, lb in zip(ra[1:], rb[1:]):
        if la[:-1] != lb[:-1]:
            return f"row {la[:-1]} -> {lb[:-1]}"
        x, y = float(la[-1]), float(lb[-1])
        if values and x != y and not abs(x - y) <= CSV_TOL * abs(x):
            return f"{','.join(la[:-1])} {x!r} -> {y!r}"
    return None


def _csv_rescored(a: Path, b: Path) -> str | None:
    """``b`` has a's rows, and this checkout's evaluate, run on the parent's
    files with the arguments recorded beside ``a``, reproduces ``a``."""
    why = _csv_close(a, b, values=False)
    argv = a.with_name(a.name + ".argv")
    if why or not argv.exists():
        return why or "differs and has no recorded evaluate arguments"
    src = Path(mcrecon.__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / a.name
        args = [*argv.read_text().splitlines(), "--out", str(out)]
        cmd = [sys.executable, "-m", "mcrecon.cli", *args]
        env = dict(os.environ, PYTHONPATH=str(src))
        run = subprocess.run(cmd, cwd=a.parent, env=env, capture_output=True, text=True)
        if run.returncode != 0:
            return f"re-scoring the parent's files exited {run.returncode}: {run.stderr.strip()}"
        why = _csv_close(a, out)
    return why and f"re-scored on the parent's files: {why}"


def _exit_codes(path: Path) -> dict[str, str]:
    return dict(line.split("=", 1) for line in path.read_text().split())


def _rcs_changes(a: Path, b: Path, expect: dict[str, str]) -> tuple[list[str], list[str]]:
    """The exit codes added, removed or changed from ``a`` to ``b`` as
    ``expect`` declares, and a message for every other change and for every
    ``expect`` entry that does not hold."""
    ca, cb = _exit_codes(a), _exit_codes(b)
    declared, problems = [], []
    for key in sorted(ca.keys() | cb.keys() | expect.keys()):
        old, new = ca.get(key, ""), cb.get(key, "")
        line = f"{a.name}: {key}: {old or 'absent'} -> {new or 'absent'}"
        if key in expect and (old == new or new != expect[key]):
            problems.append(f"{line}, declared {expect[key] or 'absent'}")
        elif key in expect:
            declared.append(line)
        elif old != new:
            problems.append(line)
    return declared, problems


def _files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()} - {Path("hashes.txt")}


def compare(parent: Path, change: Path,
            expect: dict[str, str]) -> tuple[list[str], list[str], int, int, list[str]]:
    """The exit codes in rcs.txt that changed as ``expect`` (KEY -> CODE, ""
    for a removed key) declares; each reconstruction that moved within
    round-off, with its distance; the number of byte-identical files and of
    files on both sides; and one message per file that differs by more than
    round-off and per exit code that changed otherwise."""
    pf, cf = _files(parent), _files(change)
    problems = [f"{f}: only in parent" for f in sorted(pf - cf)]
    problems += [f"{f}: only in change" for f in sorted(cf - pf)]
    declared, moved, identical, rcs = [], [], 0, Path("rcs.txt")
    if rcs in pf & cf:
        declared, bad = _rcs_changes(parent / rcs, change / rcs, expect)
        problems += bad
    for rel in sorted(pf & cf):
        a, b = parent / rel, change / rel
        if a.read_bytes() == b.read_bytes():
            identical += 1
            continue
        if rel == rcs:
            continue  # compared key by key above
        if rel.suffix == ".cks":
            dist, why = _cks_distance(a, b)
            if dist is not None:
                moved.append(f"{rel}: {dist:.2g} of max")
        elif rel.name.endswith(".scale.txt"):
            why = _scale_close(a, b)
        elif rel.suffix == ".pgm":
            why = _pgm_close(a, b)
        elif rel.suffix == ".csv":
            why = _csv_rescored(a, b)
        else:
            why = "differs"
        if why:
            problems.append(f"{rel}: {why}")
    return declared, moved, identical, len(pf & cf), problems


def _declared(text: str) -> tuple[str, str]:
    key, sep, code = text.partition("=")
    if not (key and sep):
        raise argparse.ArgumentTypeError(f"expected KEY=CODE, got {text!r}")
    return key, code


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description="Compare two scripts/golden_hashes.sh outputs.")
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--expect", type=_declared, action="append", default=[],
                    help="an exit code in rcs.txt that the change sets, as KEY=CODE")
    args = ap.parse_args(argv)
    declared, moved, identical, compared, problems = compare(
        args.parent, args.change, dict(args.expect))
    for line in declared:
        print(f"{line} (declared)")
    for line in moved:
        print(line)
    print(f"{identical} of {compared} files byte-identical")
    for line in problems:
        print(line)
    print("golden outputs agree within round-off" if not problems else f"{len(problems)} differ")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
