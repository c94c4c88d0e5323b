"""No module of the package imports numpy.

Points, jets, trajectory records and sampled maxima are lists of floats,
the sample draws come from numerics.Generator and the determinants from
the solve kernels, so the package runs where numpy is not installed;
numpy is only the tests' oracle.  The static check pins the empty set,
so that a module which takes numpy up again shows here, and a
subprocess with numpy made unimportable runs one command end to end.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"
CONFIGS = Path(__file__).parents[1] / "configs"


def _imports_numpy(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name == "numpy" or name.startswith("numpy.")
               for name in names):
            return True
    return False


def test_no_module_imports_numpy():
    found = {path.stem for path in (SRC / "fibresplit").glob("*.py")
             if _imports_numpy(path)}
    assert found == set()


def test_a_command_runs_with_numpy_unimportable(tmp_path):
    program = (
        "import sys\n"
        "sys.modules['numpy'] = None  # any import of numpy now fails\n"
        "from fibresplit import cli\n"
        f"code = cli.main(['check-all', '--config', "
        f"{str(CONFIGS / 'magnetic.ini')!r}, '--out-dir', "
        f"{str(tmp_path)!r}])\n"
        "assert 'numpy' not in {m.split('.')[0] for m in sys.modules\n"
        "                       if sys.modules[m] is not None}\n"
        "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", program],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "report.json").read_text())["status"] == "ok"
