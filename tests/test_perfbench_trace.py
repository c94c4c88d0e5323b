"""The benchmark's traced self-check, one short run per workload.

Each run is perfbench/run.py in its own process at seed 1 with
--seconds 0 (one round) and --trace 1, so every boundary the workload
must reach is counted and the outputs are checked against their closed
forms.  The run reads perfbench/ and writes only under .perfbench_out/,
which it removes again.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["induced", "trajectories", "sweep"])
def test_traced_self_check_passes(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "TRACE CHECK" not in proc.stdout
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
