"""Byte-stability gate: every command on every shipped config and fixture
writes exactly the outputs whose digests tests/output_digests.json holds.

A change to any report.json, trajectory.csv, stdout, stderr or exit code
fails here.  When the change is intended, rewrite the record with

    python tools/compare_outputs.py --write-digests tests/output_digests.json

and say in CHANGES.md which outputs changed and why.  The record holds
for one Python and one numpy version; under others libm and numpy may
round differently, so the test skips.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_outputs.py"
DIGESTS = ROOT / "tests" / "output_digests.json"
_spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_outputs_match_recorded_digests():
    recorded = json.loads(DIGESTS.read_text())
    here = compare_outputs.versions()
    if any(recorded[key] != value for key, value in here.items()):
        pytest.skip("digests recorded under "
                    f"{compare_outputs.versions_text(recorded)}, not "
                    f"{compare_outputs.versions_text(here)}")
    res = subprocess.run([sys.executable, str(TOOL), "--check-digests",
                          str(DIGESTS)], capture_output=True, text=True)
    assert res.returncode == 0, res.stdout + res.stderr
