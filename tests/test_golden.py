"""Golden reports: each command of a fixed small set, rerun, must give the
report files and stdout committed under ``tests/golden/`` byte for byte.

Each run is ``lnlab --seed 3 --out <dir> <flags> <command>``; its expected
files live in ``tests/golden/<name>/``, with its stdout in ``stdout.txt``.
A change that moves bytes on purpose regenerates the goldens in the same
commit and says which files and rows moved, and why:

    PYTHONPATH=src python tests/test_golden.py

which also records the Python and numpy versions in
``tests/golden/versions.txt``.
"""

from __future__ import annotations

import contextlib
import io
import platform
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from lnlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
STDOUT = "stdout.txt"
SEED = 3

# name -> (flags, command), each run exiting 0; a config path is relative to GOLDEN
RUNS = {
    "bounds": (["--instances", "2"], "bounds"),
    "ot-check": (["--instances", "2"], "ot-check"),
    "ot-check-256": (["--config", "ot256.json", "--instances", "2"], "ot-check"),
    "gradcheck": (["--instances", "1"], "gradcheck"),
    "diagnose": ([], "diagnose"),
    "train": (["--placement", "pre"], "train"),
    "train-diverged": (["--config", "../../configs/aggressive.json", "--placement", "off"], "train"),
    "sweep": (["--config", "sweep.json"], "sweep"),
}


def run(name: str, out: Path) -> tuple[int, dict[str, str]]:
    """Run one golden command into ``out``; returns its exit code and every
    file it wrote plus its stdout, by file name."""
    flags, command = RUNS[name]
    flags = [str(GOLDEN / f) if f.endswith(".json") else f for f in flags]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["--seed", str(SEED), "--out", str(out), *flags, command])
    files = {p.name: p.read_text() for p in sorted(out.iterdir())}
    files[STDOUT] = buf.getvalue()
    return rc, files


def first_difference(expected: str, got: str) -> str | None:
    """``line k: expected ..., got ...`` for the first line that differs, else None."""
    want, have = expected.splitlines(keepends=True), got.splitlines(keepends=True)
    for k, (a, b) in enumerate(zip(want, have), 1):
        if a != b:
            return f"line {k}: expected {a!r}, got {b!r}"
    if len(want) != len(have):
        k = min(len(want), len(have)) + 1
        return f"line {k}: expected {len(want)} lines, got {len(have)}"
    return None


@pytest.mark.parametrize("name", RUNS)
def test_golden_report_bytes(name, tmp_path):
    rc, files = run(name, tmp_path)
    assert rc == 0
    golden = {p.name: p.read_text() for p in sorted((GOLDEN / name).iterdir())}
    assert sorted(files) == sorted(golden)
    for fname, expected in golden.items():
        diff = first_difference(expected, files[fname])
        assert diff is None, f"{name}/{fname} {diff}"


def test_first_difference_names_the_line():
    assert first_difference("a\nb\n", "a\nb\n") is None
    assert first_difference("a\nb\n", "a\nc\n") == "line 2: expected 'b\\n', got 'c\\n'"
    assert first_difference("a\nb\n", "a\n") == "line 2: expected 2 lines, got 1"


def regenerate() -> None:
    for name in RUNS:
        target = GOLDEN / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        rc, files = run(name, target)
        if rc != 0:
            raise SystemExit(f"{name}: exit code {rc}")
        (target / STDOUT).write_text(files[STDOUT])
    (GOLDEN / "versions.txt").write_text(
        f"python {platform.python_version()}\nnumpy {np.__version__}\n"
    )


if __name__ == "__main__":
    sys.exit(regenerate())
