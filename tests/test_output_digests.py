"""Byte-stability gate: every command on every shipped config and fixture
writes exactly the outputs whose digests tests/output_digests.json holds.

A change to any report.json, trajectory.csv, stdout, stderr or exit code
fails here.  When the change is intended, rewrite the record with

    python tools/compare_outputs.py --write-digests tests/output_digests.json

and say in CHANGES.md which outputs changed and why.  The package has no
runtime dependency and sums no floats through sum(), so the record holds
on every Python it accepts: the check runs under the Python running the
tests and under each of 3.10, 3.12 and 3.13 found on PATH or in pyenv,
all at once, and skips an interpreter it does not find.
"""

import subprocess
import sys
from pathlib import Path

import pytest
from interpreters import find_python

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_outputs.py"
DIGESTS = ROOT / "tests" / "output_digests.json"
OTHER_PYTHONS = ("3.10", "3.12", "3.13")


@pytest.fixture(scope="module")
def checks():
    """--check-digests under this Python (key None) and under each other
    Python found, started at once: the running processes by version."""
    exes = {None: sys.executable}
    exes.update((v, find_python(v)) for v in OTHER_PYTHONS)
    procs = {version: subprocess.Popen(
        [exe, str(TOOL), "--check-digests", str(DIGESTS)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        for version, exe in exes.items() if exe is not None}
    yield procs
    for proc in procs.values():
        proc.kill()
        proc.wait()


def _passes(proc):
    out = proc.communicate(timeout=600)[0]
    assert proc.returncode == 0, out


def test_outputs_match_recorded_digests(checks):
    _passes(checks[None])


@pytest.mark.parametrize("version", OTHER_PYTHONS)
def test_outputs_match_recorded_digests_under(version, checks):
    if version not in checks:
        pytest.skip(f"no Python {version} interpreter")
    _passes(checks[version])
