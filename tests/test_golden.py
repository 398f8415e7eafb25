"""Golden reports: each command of a fixed small set, rerun, must give the
report files and stdout committed under ``tests/golden/`` byte for byte.

Each run is ``lnlab --seed 3 --out <dir> <flags> <command>``; its expected
files live in ``tests/golden/<name>/``, with its stdout in ``stdout.txt``.
A change that moves bytes on purpose regenerates the goldens in the same
commit and says which files and rows moved, and why:

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

which also records the Python and numpy versions in
``tests/golden/versions.txt``.  With no names every run is regenerated; a
new run is added by naming it, which is refused unless ``versions.txt``
already records the running Python and numpy, so one golden set never
mixes versions.
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


def versions() -> str:
    return f"python {platform.python_version()}\nnumpy {np.__version__}\n"


def regenerate(names: list[str], root: Path = GOLDEN) -> None:
    """Rewrite the golden files of the named runs under ``root``, or of every
    run when none is named, then record the versions that made them."""
    unknown = [name for name in names if name not in RUNS]
    if unknown:
        raise SystemExit(f"unknown golden runs {unknown}, expected some of {list(RUNS)}")
    recorded = root / "versions.txt"
    if names and not (recorded.exists() and recorded.read_text() == versions()):
        raise SystemExit(
            f"{recorded} does not record this Python and numpy ({versions()!r}); "
            "regenerate every run instead of naming some"
        )
    for name in names or RUNS:
        target = root / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        rc, files = run(name, target)
        if rc != 0:
            raise SystemExit(f"{name}: exit code {rc}")
        (target / STDOUT).write_text(files[STDOUT])
    recorded.write_text(versions())


def test_regenerate_rewrites_only_the_named_runs(tmp_path):
    (tmp_path / "versions.txt").write_text(versions())
    regenerate(["diagnose"], tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["diagnose", "versions.txt"]
    assert sorted(p.name for p in (tmp_path / "diagnose").iterdir()) == sorted(
        p.name for p in (GOLDEN / "diagnose").iterdir()
    )


@pytest.mark.parametrize("recorded", [None, "python 0.0\nnumpy 0.0\n"])
def test_naming_runs_refused_under_other_versions(tmp_path, recorded):
    if recorded is not None:
        (tmp_path / "versions.txt").write_text(recorded)
    with pytest.raises(SystemExit, match="does not record this Python and numpy"):
        regenerate(["diagnose"], tmp_path)
    assert not (tmp_path / "diagnose").exists()


def test_unknown_run_name_refused(tmp_path):
    with pytest.raises(SystemExit, match="unknown golden runs \\['nope'\\]"):
        regenerate(["nope"], tmp_path)


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
