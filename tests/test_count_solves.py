import collections
import importlib.util
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parents[1] / "tools" / "count_solves.py"
_spec = importlib.util.spec_from_file_location("count_solves", _PATH)
count_solves = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_solves)

numerics = count_solves.numerics


def test_counted_solves_by_shape():
    solve, cond = numerics.linear_solve, numerics.condition_number
    A = [[2.0, 1.0], [1.0, 3.0]]  # nested lists, as the right-hand sides pass
    counts = collections.Counter()
    with count_solves._counted(counts):
        x = numerics.linear_solve(A, [3.0, 4.0])
        X = numerics.linear_solve(2.0 * np.eye(3), np.ones((3, 3)))
        kappa = numerics.condition_number(A)
    assert counts == {(2, "1-D"): 1, (3, 3): 1, (2, "cond"): 1}
    # the counter passes every call through unchanged, and unwraps on exit
    assert np.array_equal(x, solve(A, [3.0, 4.0]))
    assert np.array_equal(X, np.full((3, 3), 0.5))
    assert kappa == cond(A)
    assert numerics.linear_solve is solve
    assert numerics.condition_number is cond
