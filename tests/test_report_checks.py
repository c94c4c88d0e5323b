"""Every check the CLI can write to report.json can fail.

CHECKS has one row per check name: the command that writes it, a case on
which the check passes and a case on which it fails with exit 1.  Cases
use default tolerances; --samples, --t1 and --dt only keep them short.
A failing case is a model that breaks the checked property, or, where no
model can, a monkeypatched defect in the code that produces the checked
value (never in the check).  test_table_covers_every_check_the_cli_writes
collects the names from cli.py, so a new check without a failing case
fails the suite.
"""

import ast
import itertools
import json
import re
from pathlib import Path

import pytest

from fibresplit import cli, lagrangian

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


def _doubled_fibre_hessian(monkeypatch):
    """Newton on dL/dw = 0 with L_ww doubled: it contracts by 1/2 per
    iteration instead of converging in one."""
    fibre_system = lagrangian._fibre_system

    def doubled(L, z):
        system = fibre_system(L, z)

        def wrong(w):
            F, J = system(w)
            wrong.jet = system.jet
            return F, [[2.0 * e for e in row] for row in J]

        return wrong

    monkeypatch.setattr(lagrangian, "_fibre_system", doubled)


def _induced_root_off_by_1e_7(monkeypatch):
    """The induced splitting returns its root shifted by 1e-7, below the
    branch probe's 1e-6 gap."""
    solve_detail = lagrangian.InducedSplitting.solve_detail

    def shifted(self, x, y, v):
        w, iters = solve_detail(self, x, y, v)
        return [e + 1e-7 for e in w], iters

    monkeypatch.setattr(lagrangian.InducedSplitting, "solve_detail", shifted)


def case(config, *args, patch=None):
    return {"config": config, "args": args, "patch": patch}


# name: (command, passing case, failing case)
CHECKS = {
    "lift_residual": (
        "lift-curve", case(CONFIGS / "lift.ini"), case(FAST_CURVE)),
    "newton_iterations": (
        "induce", case(FIX / "model.ini", *SHORT),
        case(FIX / "model.ini", *SHORT, patch=_doubled_fibre_hessian)),
    "defining_relation": (
        "induce", case(FIX / "model.ini", *SHORT),
        case(FIX / "model.ini", *SHORT, patch=_induced_root_off_by_1e_7)),
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
    "momentum_on_horizontal": (
        "check-all", case(COMPATIBLE, *SHORT),
        case(COMPATIBLE, *SHORT, patch=_induced_root_off_by_1e_7)),
}


def _run(command, spec, tmp_path, monkeypatch):
    config = spec["config"]
    if isinstance(config, str):
        path = tmp_path / "model.ini"
        path.write_text(config)
        config = path
    if spec["patch"] is not None:
        spec["patch"](monkeypatch)
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(config), "--out-dir", str(out),
                     *spec["args"]])
    rep = json.loads((out / "report.json").read_text())
    return code, {c["name"]: c for c in rep["checks"]}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_check_passes_on_its_passing_case(name, tmp_path, monkeypatch):
    command, passing, _ = CHECKS[name]
    code, checks = _run(command, passing, tmp_path, monkeypatch)
    assert code == 0
    assert checks[name]["passed"] is True


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_check_fails_on_its_failing_case(name, tmp_path, monkeypatch):
    command, _, failing = CHECKS[name]
    code, checks = _run(command, failing, tmp_path, monkeypatch)
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
    assert len(names) == 14
    assert set(CHECKS) == names
    assert readme_check_names() == names
