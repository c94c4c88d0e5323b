"""Which modules of the package import numpy.

Points, trajectory records and sampled maxima are lists of floats, so
numpy is left only where it computes something: the sample draws, two
determinants and the eigenvalues in lagrangian and reduction, the
structure-constant checks, and Jet2.  This pins that set, so that a
module which drops numpy, or takes it up again, shows here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "fibresplit"


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


def test_only_these_modules_import_numpy():
    found = {path.stem for path in SRC.glob("*.py") if _imports_numpy(path)}
    assert found == {"jets", "numerics", "lagrangian", "reduction", "cli"}
