"""Every check the CLI can write to report.json can fail.

CHECKS has one row per check name: the command that writes it, a case on
which the check passes and a case on which it fails with exit 1.  Cases
use default tolerances; --samples, --t1 and --dt only keep them short.
A failing case is a model that breaks the checked property.
test_table_covers_every_check_the_cli_writes collects the names from
cli.py, so a new check without a failing case fails the suite.
"""

import ast
import itertools
import json
import re
from pathlib import Path

import pytest

from fibresplit import cli

ROOT = Path(__file__).parents[1]
FIX = ROOT / "tests" / "fixtures"
CONFIGS = ROOT / "configs"

B11 = "[bundle]\nbase_dim = 1\nfibre_dim = 1\n"
SHORT = ("--samples", "10")

# the lift of x1 = sin(3 t) through w = x1 v1 + 0.3; dt = 0.2 is too coarse
# for the dynamic tolerance
FAST_CURVE = B11 + ('[splitting]\nh1 = "x1*v1 + 0.3"\n'
                    '[curve]\nx1 = "sin(3*t)"\ny0 = [0.2]\n'
                    "[simulation]\nt1 = 1.5\ndt = 0.2\n")
# L depends on the fibre point on the horizontal manifold (h = 0)
Y_DEPENDENT = B11 + '[lagrangian]\nL = "0.5*v1^2 + 0.5*w1^2 - 0.5*y1^2"\n'
# declared 2-homogeneous; Delta(L) - 2L = 5e-9 w1^3 passes the 1e-8
# hypothesis test on the sample box, but h = -10 v1 + O(v1^2) leaves it
NEARLY_HOMOGENEOUS = B11 + ('[lagrangian]\n'
                            'L = "0.5*v1^2 + 0.05*w1^2 + w1*v1 + 5e-9*w1^3"\n'
                            "homogeneity = 2\n")
TRANSLATION = '[action]\nK = [["1"]]\n'
# under fibre translations: L invariant, h = x1 v1 and 0.7 v1 principal
COMPATIBLE = B11 + ('[lagrangian]\nL = "0.5*v1^2 + 0.5*(w1 - x1*v1)^2"\n'
                    '[splitting]\nh1 = "0.7*v1"\n' + TRANSLATION)
# L, h = y1 v1 and 0.7 v1 + y1 all move with the fibre point
INCOMPATIBLE = B11 + ('[lagrangian]\nL = "0.5*v1^2 + 0.5*(w1 - y1*v1)^2"\n'
                      '[splitting]\nh1 = "0.7*v1 + y1"\n' + TRANSLATION)


def case(config, *args):
    return {"config": config, "args": args}


# name: (command, passing case, failing case)
CHECKS = {
    "lift_residual": (
        "lift-curve", case(CONFIGS / "lift.ini"), case(FAST_CURVE)),
    "y_independence": (
        "check-all", case(FIX / "model.ini", *SHORT),
        case(Y_DEPENDENT, *SHORT)),
    "base_deviation": (
        "project-verify", case(FIX / "model.ini", "--dt", "0.05", *SHORT),
        case(FIX / "model.ini", "--dt", "0.2", *SHORT)),
    "horizontality_drift": (
        "project-verify", case(FIX / "model.ini", "--dt", "0.05", *SHORT),
        case(FIX / "model.ini", "--dt", "0.2", *SHORT)),
    "constraint_rate_residual": (
        "nh-simulate", case(CONFIGS / "knife_edge.ini", "--dt", "0.05"),
        case(CONFIGS / "knife_edge.ini", "--dt", "0.5")),
    "symmetry_condition": (
        "check-all", case(FIX / "model.ini", *SHORT),
        case(Y_DEPENDENT, *SHORT)),
    "tangency": (
        "check-all", case(FIX / "model.ini", *SHORT),
        case(Y_DEPENDENT, *SHORT)),
    "euler_residual_induced": (
        "check-all", case(FIX / "homog.ini", *SHORT),
        case(NEARLY_HOMOGENEOUS, *SHORT)),
    "invariance": (
        "check-all", case(CONFIGS / "unreduce.ini", *SHORT),
        case(INCOMPATIBLE, *SHORT)),
    "principal_explicit": (
        "check-all", case(CONFIGS / "unreduce.ini", *SHORT),
        case(INCOMPATIBLE, *SHORT)),
    "principal_induced": (
        "check-all", case(COMPATIBLE, *SHORT), case(INCOMPATIBLE, *SHORT)),
}


def _run(command, spec, tmp_path):
    config = spec["config"]
    if isinstance(config, str):
        path = tmp_path / "model.ini"
        path.write_text(config)
        config = path
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(config), "--out-dir", str(out),
                     *spec["args"]])
    rep = json.loads((out / "report.json").read_text())
    return code, {c["name"]: c for c in rep["checks"]}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_check_passes_on_its_passing_case(name, tmp_path):
    command, passing, _ = CHECKS[name]
    code, checks = _run(command, passing, tmp_path)
    assert code == 0
    assert checks[name]["passed"] is True


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_check_fails_on_its_failing_case(name, tmp_path):
    command, _, failing = CHECKS[name]
    code, checks = _run(command, failing, tmp_path)
    assert code == 1
    assert checks[name]["passed"] is False


def _loop_values(tree, var):
    """The values a for-loop over a literal sequence binds to var."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.For):
            continue
        target = node.target
        names = target.elts if isinstance(target, ast.Tuple) else [target]
        for i, t in enumerate(names):
            if isinstance(t, ast.Name) and t.id == var:
                items = node.iter.elts
                if isinstance(target, ast.Tuple):
                    items = [item.elts[i] for item in items]
                return [ast.literal_eval(item) for item in items]
    raise AssertionError(f"no literal loop binds {var}")


def _literal_names(node, tree):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.JoinedStr):
        parts = [[p.value] if isinstance(p, ast.Constant)
                 else _loop_values(tree, p.value.id) for p in node.values]
        return {"".join(p) for p in itertools.product(*parts)}
    raise AssertionError(f"check name is not a literal: {ast.unparse(node)}")


def cli_check_names():
    """Names passed to run.check, and "name" entries of dicts appended to
    a report's checks, in cli.py's module-level functions."""
    tree = ast.parse(Path(cli.__file__).read_text())
    names = set()
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr == "check":
                names |= _literal_names(node.args[0], tree)
            elif node.func.attr == "append" and \
                    ast.unparse(node.func.value).endswith('["checks"]'):
                entries = dict(zip(node.args[0].keys, node.args[0].values))
                key = next(k for k in entries if k.value == "name")
                names |= _literal_names(entries[key], tree)
    return names


def readme_check_names():
    text = (ROOT / "README.md").read_text()
    section = text.split("\n### Checks\n", 1)[1].split("\n#", 1)[0]
    return set(re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE))


def test_table_covers_every_check_the_cli_writes():
    names = cli_check_names()
    assert len(names) == 11
    assert set(CHECKS) == names
    assert readme_check_names() == names
