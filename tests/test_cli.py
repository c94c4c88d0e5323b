import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fibresplit
from fibresplit import (_kernels, cli, config, exprs, lagrangian,
                        nonholonomic, numerics, reduction, splitting)

FIX = Path(__file__).parent / "fixtures"
CONFIGS = Path(__file__).parents[1] / "configs"


def run(command, config, out, *extra):
    return cli.main([command, "--config", str(config),
                     "--out-dir", str(out), *extra])


def report(out):
    return json.loads((out / "report.json").read_text())


def csv_lines(out):
    return (out / "trajectory.csv").read_text().splitlines()


def checks_by_name(rep):
    return {c["name"]: c for c in rep["checks"]}


def test_induce_report_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("induce", FIX / "model.ini", out1) == 0
    assert run("induce", FIX / "model.ini", out2) == 0
    assert (out1 / "report.json").read_bytes() \
        == (out2 / "report.json").read_bytes()
    rep = report(out1)
    assert rep["status"] == "ok"
    assert rep["command"] == "induce"
    assert len(rep["config_sha256"]) == 64
    assert rep["seed"] == 7 and rep["samples"] == 40
    assert rep["values"]["h_at_probe"] == [-0.25]
    assert rep["values"]["newton_iterations"] == 1
    assert rep["checks"] == []


def test_el_simulate_trajectory(tmp_path):
    assert run("el-simulate", FIX / "model.ini", tmp_path) == 0
    rep = report(tmp_path)
    assert rep["csv"] == "trajectory.csv"
    assert rep["residuals"]["energy_drift"] < 1e-12
    lines = csv_lines(tmp_path)
    assert lines[0] == "t,x1,y1,v1,w1,energy"
    assert len(lines) == 2002  # header + 2001 grid points
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[1:5] == [0.0, 0.0, 0.5, -0.25]


def test_classify_splitting(tmp_path):
    assert run("classify", FIX / "split.ini", tmp_path) == 0
    rep = report(tmp_path)
    assert rep["verdicts"]["classification"] == "Affine"
    assert rep["residuals"]["drift_residual"] == 0.3
    assert rep["values"]["smooth_at_zero"] is True


def test_lift_curve_csv(tmp_path):
    assert run("lift-curve", FIX / "split.ini", tmp_path) == 0
    rep = report(tmp_path)
    assert checks_by_name(rep)["lift_residual"]["passed"]
    lines = csv_lines(tmp_path)
    assert lines[0] == "t,x1,y1,v1,w1,lift_residual"
    assert len(lines) == 1502  # t1 = 1.5 at dt = 1e-3


def test_subduce_values(tmp_path):
    assert run("subduce", FIX / "model.ini", tmp_path) == 0
    rep = report(tmp_path)
    # Lbar(0, 0.5) = v^2/2 - v^4/2 at v = 0.5
    assert abs(rep["values"]["Lbar_at_probe"] - 0.09375) < 1e-12
    assert rep["residuals"]["y_independence"] < 1e-12
    assert rep["residuals"]["symmetry"] < 1e-8


def test_subduce_writes_no_check(tmp_path):
    # subduce refuses a fibre-dependent restriction at the tolerance a
    # y_independence check would apply, so it writes none
    assert run("subduce", FIX / "model.ini", tmp_path / "ok") == 0
    assert report(tmp_path / "ok")["checks"] == []
    cfg = tmp_path / "ydep.ini"
    cfg.write_text("[bundle]\nbase_dim = 1\nfibre_dim = 1\n"
                   '[lagrangian]\nL = "0.5*v1^2 + 0.5*w1^2 - 0.5*y1^2"\n')
    assert run("subduce", cfg, tmp_path / "ydep") == 1
    rep = report(tmp_path / "ydep")
    assert rep["error"].startswith(
        "NotSubducible: restriction depends on the fibre point")
    assert rep["checks"] == []


def test_project_verify(tmp_path):
    assert run("project-verify", FIX / "model.ini", tmp_path) == 0
    ch = checks_by_name(report(tmp_path))
    assert ch["base_deviation"]["passed"]
    assert ch["horizontality_drift"]["passed"]


def test_nh_simulate(tmp_path):
    assert run("nh-simulate", FIX / "nh.ini", tmp_path) == 0
    rep = report(tmp_path)
    ch = checks_by_name(rep)
    assert "constraint_residual" not in ch
    assert ch["constraint_rate_residual"]["passed"]
    assert rep["residuals"]["energy_drift"] < 1e-9
    lines = csv_lines(tmp_path)
    assert lines[0] == "t,x1,x2,y1,v1,v2,w1,energy"


def _with_simulation(tmp_path, config, line):
    """A copy of config with one more [simulation] line."""
    text = config.read_text().replace("[simulation]\n",
                                      f"[simulation]\n{line}\n")
    cfg = tmp_path / config.name
    cfg.write_text(text)
    return cfg


def test_nh_simulate_starts_at_t0(tmp_path):
    cfg = _with_simulation(tmp_path, CONFIGS / "knife_edge.ini", "t0 = 0.5")
    assert run("nh-simulate", cfg, tmp_path / "out", "--t1", "0.6") == 0
    rows = csv_lines(tmp_path / "out")[1:]
    assert len(rows) == 101
    assert float(rows[0].split(",")[0]) == 0.5
    assert float(rows[-1].split(",")[0]) == 0.6


@pytest.mark.parametrize("command, config", [
    ("nh-simulate", "knife_edge.ini"), ("project-verify", "oscillator.ini"),
    ("el-simulate", "oscillator.ini")])
def test_t1_before_t0_exits_2(tmp_path, capsys, command, config):
    cfg = _with_simulation(tmp_path, CONFIGS / config, "t0 = 0.5")
    assert run(command, cfg, tmp_path / "out", "--t1", "0.2") == 2
    assert "config error: t1 must be >= t0" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, config, old, new", [
    ("el-simulate", "oscillator.ini", "ic = [0.0,", "ic = [{},"),
    ("lift-curve", "lift.ini", "y0 = [0.2]", "y0 = [{}]"),
    ("induce", "knife_edge.ini", "ic = [0.5,", "ic = [{},")],
    ids=["el-simulate", "lift-curve", "induce"])
def test_non_finite_initial_state_exits_2(tmp_path, capsys, command, config,
                                          old, new, value):
    text = (CONFIGS / config).read_text()
    assert old in text
    cfg = tmp_path / config
    cfg.write_text(text.replace(old, new.format(value)))
    key = "[curve] y0" if "y0" in old else "[simulation] ic"
    assert run(command, cfg, tmp_path / "out") == 2
    assert f"config error: {key}: entries must be finite" \
        in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_nh_rate_check_catches_a_wrong_ydot(tmp_path, monkeypatch):
    # an integrated dy/dt that is off the constraint shows in the rate
    # check
    rhs = nonholonomic.ConstrainedSystem.rhs

    def skewed(self, t, s):
        out = rhs(self, t, s)
        out[2] += 1e-4  # the y1 slot of (x1, x2, y1, v1, v2)
        return out

    monkeypatch.setattr(nonholonomic.ConstrainedSystem, "rhs", skewed)
    assert run("nh-simulate", FIX / "nh.ini", tmp_path, "--t1", "0.2") == 1
    ch = checks_by_name(report(tmp_path))
    assert not ch["constraint_rate_residual"]["passed"]
    assert abs(ch["constraint_rate_residual"]["residual"] - 1e-4) < 1e-6


def test_magnetic_simulate(tmp_path):
    assert run("magnetic-simulate", FIX / "mag.ini", tmp_path) == 0
    rep = report(tmp_path)
    assert rep["verdicts"]["decoupled"] is True
    final = rep["values"]["final_state"]
    assert abs(final[0] - np.cos(1.0)) < 1e-10
    assert final[2] == 0.3  # inert fibre block
    lines = csv_lines(tmp_path)
    assert lines[0] == "t,x1,v1,w1,p1"


def test_magnetic_simulate_coupled_model(tmp_path):
    # g, V, A_i, A_alpha, Upsilon and Kcurv all depend on x, so every term
    # of the v-equation is live; p = k w + A_alpha(x) with k = 1.5
    assert run("magnetic-simulate", FIX / "mag_coupled.ini", tmp_path) == 0
    rep = report(tmp_path)
    assert rep["verdicts"]["decoupled"] is False
    lines = csv_lines(tmp_path)
    assert lines[0] == "t,x1,x2,v1,v2,w1,p1"
    assert len(lines) == 1002
    for line in lines[1:]:
        _, x1, x2, _, _, w1, p1 = map(float, line.split(","))
        assert abs(p1 - (1.5 * w1 + 0.5 * x1 + 0.1 * x2 ** 2)) < 1e-12


def test_magnetic_simulate_compiles_each_field_once(tmp_path, monkeypatch):
    # the run and its decoupling check share one MagneticSystem, so the
    # reduced base Lagrangian is composed and compiled once
    labels = []
    compile_field = exprs.compile_field

    def counted(*args, **kwargs):
        labels.append(kwargs.get("label"))
        return compile_field(*args, **kwargs)

    for module in (exprs, config, lagrangian, reduction, splitting):
        monkeypatch.setattr(module, "compile_field", counted)
    assert run("magnetic-simulate", CONFIGS / "magnetic.ini", tmp_path) == 0
    assert labels.count("Lbar_magnetic") == 1
    # g, V, A_i, A_alpha, Upsilon and Kcurv, one field each, then Lbar
    assert len(labels) == 7


def test_a_second_run_in_one_process_generates_no_kernel(tmp_path):
    # each command compiles the model's expressions again; their tapes
    # are equal, so the kernels come from the first pass, with equal output
    commands = ("classify", "curvature", "lift-curve")
    outputs, misses = [], []
    for attempt in ("a", "b"):
        files = {}
        for command in commands:
            out = tmp_path / attempt / command
            assert run(command, FIX / "split.ini", out) == 0
            files.update({(command, p.name): p.read_bytes()
                          for p in sorted(out.iterdir())})
        outputs.append(files)
        misses.append(_kernels._generate.cache_info().misses)
    assert misses[1] == misses[0]
    assert ("lift-curve", "trajectory.csv") in outputs[0]
    assert outputs[0] == outputs[1]


def test_unreduce_command(tmp_path):
    assert run("unreduce", FIX / "unred.ini", tmp_path) == 0
    rep = report(tmp_path)
    ch = checks_by_name(rep)
    assert ch["horizontality_drift"]["passed"]
    assert abs(rep["values"]["final_state"][0] - np.sin(3.0)) < 1e-10


@pytest.mark.parametrize("config", [CONFIGS / "unreduce.ini",
                                    FIX / "unred.ini"])
def test_check_all_skips_induction_from_a_base_lagrangian(config, tmp_path):
    # L = 0.5*v1^2 - 0.5*x1^2 names no fibre velocity, so L_ww = 0 and it
    # induces no splitting; the explicit splitting and the action are
    # still checked
    assert run("check-all", config, tmp_path) == 0
    rep = report(tmp_path)
    assert [c["name"] for c in rep["checks"]] == ["invariance",
                                                  "principal_explicit"]
    assert all(c["residual"] == 0.0 for c in rep["checks"])
    assert rep["residuals"] == {"connection_test_explicit": 0.0}


def test_curvature_affine_splitting(tmp_path):
    assert run("curvature", FIX / "split.ini", tmp_path) == 0
    rep = report(tmp_path)
    assert rep["verdicts"]["affine"] is True
    assert rep["values"]["B_at_probe"] == [[[0.0]]]  # n = 1: antisymmetric


def test_curvature_nonaffine_reports_extension_dependence(tmp_path, capsys):
    # pointwise values of a genuinely velocity-nonlinear splitting depend
    # on how the contracted vectors are extended; that is a verification
    # failure, not a crash
    cfg = tmp_path / "gen.ini"
    cfg.write_text("[bundle]\nbase_dim = 1\nfibre_dim = 1\n"
                   '[splitting]\nh1 = "v1^2"\n')
    out = tmp_path / "out"
    assert run("curvature", cfg, out) == 1
    rep = report(out)
    assert rep["status"] == "verification-failed"
    assert rep["error"].startswith("NotWellDefined")
    assert rep["verdicts"]["affine"] is False
    assert "extension" in capsys.readouterr().err


def test_curvature_on_a_slit_splitting_is_not_well_defined(tmp_path, capsys):
    # a Finsler splitting is not affine, and the constant extensions of
    # the pointwise curvature have base bracket [X, Y] = 0, inside its slit
    cfg = tmp_path / "finsler.ini"
    cfg.write_text("[bundle]\nbase_dim = 2\nfibre_dim = 1\n"
                   '[splitting]\nh1 = "sqrt(v1^2 + v2^2)"\n')
    out = tmp_path / "out"
    assert run("curvature", cfg, out) == 1
    rep = report(out)
    assert rep["status"] == "verification-failed"
    assert rep["verdicts"]["affine"] is False
    assert rep["error"].startswith("NotWellDefined")
    assert "slit" in rep["error"]
    assert "verification failed" in capsys.readouterr().err


def test_check_all_green(tmp_path):
    assert run("check-all", FIX / "model.ini", tmp_path) == 0
    rep = report(tmp_path)
    assert rep["status"] == "ok"
    names = {c["name"] for c in rep["checks"]}
    assert {"symmetry_condition", "tangency", "y_independence"} <= names


def test_check_all_probes_the_induced_splitting_once(tmp_path, monkeypatch):
    # with homogeneity = 2 the Euler residual reads the splitting whose
    # branches check-all has probed already
    probed = []
    probe = lagrangian._probe_branches

    def counted(spec):
        probed.append(spec)
        return probe(spec)

    monkeypatch.setattr(lagrangian, "_probe_branches", counted)
    assert run("check-all", FIX / "homog.ini", tmp_path) == 0
    ch = checks_by_name(report(tmp_path))
    assert ch["euler_residual_induced"]["passed"]
    assert len(probed) == 1


def test_check_all_euler_residual_solves_once_per_sample(tmp_path,
                                                        monkeypatch):
    # the Euler residual reads values and gradients of the induced
    # coefficient only, so it takes no differenced Hessian: one
    # continuation solve per sample (20) and coefficient (m = 1)
    solves = []
    inside = []
    solve = lagrangian.InducedSplitting.solve_detail
    check = cli.homogeneity_of_induced

    def counted_solve(self, *args):
        if inside:
            solves.append(args)
        return solve(self, *args)

    def counted_check(*args, **kwargs):
        inside.append(True)
        try:
            return check(*args, **kwargs)
        finally:
            inside.clear()

    monkeypatch.setattr(lagrangian.InducedSplitting, "solve_detail",
                        counted_solve)
    monkeypatch.setattr(cli, "homogeneity_of_induced", counted_check)
    assert run("check-all", FIX / "homog.ini", tmp_path) == 0
    ch = checks_by_name(report(tmp_path))
    assert ch["euler_residual_induced"]["passed"]
    assert len(solves) == 20


def test_check_all_flags_asymmetric_lagrangian(tmp_path, capsys):
    assert run("check-all", FIX / "asym.ini", tmp_path) == 1
    rep = report(tmp_path)
    assert rep["status"] == "verification-failed"
    failing = {c["name"] for c in rep["checks"] if not c["passed"]}
    assert "symmetry_condition" in failing
    assert "y_independence" in failing
    assert "failed checks" in capsys.readouterr().err


def test_branch_ambiguity_is_a_numerical_failure(tmp_path, capsys):
    assert run("induce", FIX / "branch.ini", tmp_path) == 3
    rep = report(tmp_path)
    assert rep["status"] == "numerical-failure"
    assert rep["error"].startswith("BranchAmbiguity")
    assert "numerical failure" in capsys.readouterr().err
    # L has no w at all: L_ww = 0, so the continuation tangent falls back
    # to zero and the probe finds a second root, not a singular matrix
    assert run("induce", CONFIGS / "unreduce.ini", tmp_path / "u") == 3
    assert report(tmp_path / "u")["error"] == (
        "BranchAmbiguity: second root at distance 5.000e-01 from the "
        "tracked branch near x=[-0.23478827073657804], "
        "v=[0.36503055895078473]")


def test_a_failed_homogeneity_hypothesis_prints_its_point(tmp_path, capsys):
    # the point is the repr of the drawn float list, every digit kept
    cfg = tmp_path / "cubic.ini"
    cfg.write_text("[bundle]\nbase_dim = 1\nfibre_dim = 1\n"
                   '[lagrangian]\nL = "0.5*v1^2 + 0.5*w1^2 + w1*v1^2"\n'
                   "homogeneity = 2\n")
    assert run("check-all", cfg, tmp_path) == 1
    text = ("Delta(L) - 2L = 2.030e-01 at z=[0.5479120971119267, "
            "-0.12224312049589536, 0.7171958398227649, 0.3947360581187278]; "
            "Lagrangian is not 2-homogeneous in the velocities")
    assert report(tmp_path)["error"] == f"HypothesisFailed: {text}"
    assert f"verification failed: {text}" in capsys.readouterr().err


def test_branch_probe_reaches_past_a_wide_slit(tmp_path):
    # with slit radius 1 the probe box is [-2, 2], so it holds admissible
    # points; a probe box of [-0.5, 0.5] would lie inside the slit ball
    cfg = tmp_path / "wide_slit.ini"
    cfg.write_text("[bundle]\nbase_dim = 1\nfibre_dim = 1\nslit_eps = 1.0\n"
                   "[lagrangian]\n"
                   'L = "0.5*w1^2 - w1*abs(v1) + 0.5*v1^2"\n'
                   "[simulation]\nbox = 2.0\nic = [0, 0, 1.5]\n")
    out = tmp_path / "out"
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "fibresplit.cli", "induce", "--config",
         str(cfg), "--out-dir", str(out)],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rep = report(out)
    assert rep["status"] == "ok"
    assert rep["values"]["h_at_probe"] == [1.5]


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[bundle]\nbase_dim = 1\nfibre_dim = 1\n"
                   "[splitting]\nh1 = x1*v1\n")
    assert run("classify", bad, tmp_path / "o1") == 2
    assert "config error" in capsys.readouterr().err
    # structurally valid file, but the command needs a missing section
    assert run("induce", FIX / "split.ini", tmp_path / "o2") == 2
    assert "[lagrangian]" in capsys.readouterr().err
    # simulate commands require a full-length ic
    noic = tmp_path / "noic.ini"
    noic.write_text("[bundle]\nbase_dim = 1\nfibre_dim = 1\n"
                    '[lagrangian]\nL = "0.5*v1^2 + 0.5*w1^2"\n')
    assert run("el-simulate", noic, tmp_path / "o3") == 2
    assert "ic" in capsys.readouterr().err


def test_asymmetric_base_metric_exits_2(tmp_path, capsys):
    cfg = tmp_path / "asym_g.ini"
    cfg.write_text("[bundle]\nbase_dim = 2\nfibre_dim = 1\n"
                   '[magnetic]\ng = [["1", "0.5"], ["0", "1"]]\n'
                   'V = "x1"\nA_alpha = ["2"]\n'
                   "[simulation]\nic = [0.1, 0.2, 0.3, 0.4, 0.5]\n")
    for command in ("magnetic-simulate", "check-all"):
        assert run(command, cfg, tmp_path / command) == 2
        assert "config error: base metric g must be symmetric" \
            in capsys.readouterr().err
        assert not (tmp_path / command / "report.json").exists()


@pytest.mark.parametrize("command",
                         ["induce", "subduce", "project-verify", "curvature"])
def test_a_short_probe_ic_exits_2(tmp_path, capsys, command):
    # the probe is (x, y, v): 4 entries on a (1, 2) chart; the default ray
    # serves only a config with no ic at all
    cfg = tmp_path / "short.ini"
    cfg.write_text("[bundle]\nbase_dim = 1\nfibre_dim = 2\n"
                   '[splitting]\nh1 = "0.5*v1"\nh2 = "0"\n'
                   '[lagrangian]\nL = "0.5*v1^2 + 0.5*w1^2 + 0.5*w2^2"\n'
                   "[simulation]\nic = [0.1]\n")
    assert run(command, cfg, tmp_path / "out") == 2
    assert (f"config error: [simulation] ic must have at least 4 entries "
            f"(x, y, v) for {command}") in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_an_unusable_out_dir_exits_2(tmp_path, capsys, out):
    (tmp_path / "afile").write_text("")
    assert run("classify", FIX / "split.ini", tmp_path / out) == 2
    assert "config error: " in capsys.readouterr().err


@pytest.mark.parametrize("command, config, name", [
    ("classify", FIX / "split.ini", "report.json"),
    ("el-simulate", CONFIGS / "oscillator.ini", "trajectory.csv")],
    ids=["report", "csv"])
def test_an_unwritable_output_file_exits_2(tmp_path, capsys, command, config,
                                           name):
    # the run succeeds, but its output file is taken by a directory
    (tmp_path / name).mkdir()
    assert run(command, config, tmp_path, "--t1", "0.01") == 2
    assert "config error: " in capsys.readouterr().err


@pytest.mark.parametrize("command, m, model, message", [
    ("magnetic-simulate", 1, "[magnetic]\nk = [[nan]]\n",
     "fibre metric k must be finite"),
    ("magnetic-simulate", 1, "[magnetic]\nC = [[[inf]]]\n",
     "structure constants must be finite"),
    ("check-all", 1, '[action]\nK = [["1"]]\nC = [[[nan]]]\n',
     "structure constants must be finite"),
    ("check-all", 1, '[action]\nK = [["1"]]\nC = [[[-inf]]]\n',
     "structure constants must be finite"),
    ("check-all", 2, '[action]\nK = [["1", "0"], ["0", "1"]]\n'
     "C = [[[0.0, 1.0], [-1.0]], [[0.0, 0.0], [0.0, 0.0]]]\n",
     "structure constants must be (2, 2, 2)"),
], ids=["k-nan", "magnetic-C-inf", "action-C-nan", "action-C-inf",
        "action-C-ragged"])
def test_unusable_model_data_exits_2(tmp_path, capsys, command, m, model,
                                     message):
    cfg = tmp_path / "model.ini"
    cfg.write_text(f"[bundle]\nbase_dim = 1\nfibre_dim = {m}\n{model}"
                   "[simulation]\nic = [0.1, 0.2, 0.3]\n")
    assert run(command, cfg, tmp_path / "out") == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


_IC = "ic = [0.0, 0.0, 0.5, -0.25]"


@pytest.mark.parametrize("command, setting, extra, key", [
    ("induce", "", ("--samples", "0"), "samples"),
    ("classify", "samples = -3", (), "samples"),
    ("classify", "box = 0", (), "box"),
    ("induce", "box = -1", (), "box"),
    ("classify", "box = inf", (), "box"),
    ("classify", "box = nan", (), "box"),
    ("el-simulate", f"{_IC}\nt0 = -inf", (), "t0"),
    ("el-simulate", f"{_IC}\nt1 = nan", (), "t1"),
    ("el-simulate", f"{_IC}\ndt = inf", (), "dt"),
    ("el-simulate", _IC, ("--t1", "inf"), "t1"),
    ("el-simulate", _IC, ("--dt", "inf"), "dt"),
    ("el-simulate", _IC, ("--t1", "nan"), "t1"),
    ("el-simulate", _IC, ("--t1", "1e300"), "t1"),
    ("el-simulate", _IC, ("--seed", "-1"), "seed"),
    ("induce", "seed = -1", (), "seed"),
], ids=["samples-override-0", "samples-negative", "box-zero", "box-negative",
        "box-inf", "box-nan", "t0-inf", "t1-nan", "dt-inf", "t1-override-inf",
        "dt-override-inf", "t1-override-nan", "t1-override-1e300",
        "seed-override-negative", "seed-negative"])
def test_sampling_settings_are_validated(tmp_path, capsys, command, setting,
                                         extra, key):
    cfg = tmp_path / "sampling.ini"
    cfg.write_text("[bundle]\nbase_dim = 1\nfibre_dim = 1\n"
                   '[splitting]\nh1 = "0.7*v1"\n'
                   '[lagrangian]\nL = "0.5*v1^2 + 0.5*w1^2"\n'
                   f"[simulation]\n{setting}\n")
    assert run(command, cfg, tmp_path / "out", *extra) == 2
    assert f"config error: [simulation] {key} must be" \
        in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("value", ["1e-3", "nan", "0", "-1e-9", "inf"])
@pytest.mark.parametrize("flag", ["--tol-structural", "--tol-dynamic"])
def test_tolerances_are_validated(tmp_path, capsys, flag, value):
    # the tolerances are constants: any value of either flag, loose or
    # invalid, is an unknown argument
    with pytest.raises(SystemExit) as exc:
        run("check-all", FIX / "model.ini", tmp_path / "out",
            f"{flag}={value}")
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}={value}" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("section, key", [
    ("bundle", "base_dim"), ("bundle", "fibre_dim"),
    ("simulation", "seed"), ("simulation", "samples")])
def test_non_finite_integer_settings_exit_2(tmp_path, capsys, section, key,
                                            value):
    settings = {"bundle": {"base_dim": "1", "fibre_dim": "1"},
                "simulation": {}}
    settings[section][key] = value
    cfg = tmp_path / "ints.ini"
    cfg.write_text("".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n"
                                                   for k, v in kv.items())
                           for sec, kv in settings.items())
                   + '[splitting]\nh1 = "0.7*v1"\n')
    assert run("classify", cfg, tmp_path / "out") == 2
    assert f"config error: [{section}] {key}: expected an integer" \
        in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("slit", ["nan", "inf"])
def test_non_finite_slit_eps_exits_2(tmp_path, capsys, slit):
    # kinked fields write the slit radius into their kernel source
    cfg = tmp_path / "slit.ini"
    cfg.write_text("[bundle]\nbase_dim = 1\nfibre_dim = 1\n"
                   f"slit_eps = {slit}\n"
                   '[splitting]\nh1 = "abs(v1)"\n'
                   '[lagrangian]\n'
                   'L = "0.5*v1^2 + 0.5*w1^2 + 0.1*abs(v1) - 0.5*x1^2"\n'
                   "[simulation]\nic = [0.1, 0.0, 0.5, 0.0]\n")
    for command in ("el-simulate", "classify"):
        assert run(command, cfg, tmp_path / command) == 2
        assert "config error: slit_eps must be positive" \
            in capsys.readouterr().err
        assert not (tmp_path / command / "report.json").exists()


@pytest.mark.parametrize("command, bundle, simulation", [
    ("classify", "", "box = 1e308"),
    ("induce", "slit_eps = 1e308", ""),   # the branch probe's box: 2 slit_eps
    (None, "", ""),
], ids=["classify-box", "induce-slit", "sample_max"])
def test_a_box_too_wide_to_draw_from_exits_2(tmp_path, capsys, command,
                                              bundle, simulation):
    if command is None:
        with pytest.raises(ValueError, match="too wide to draw from"):
            numerics.sample_max(lambda z: 0.0, 1, 0, 1, box=1e308)
        return
    cfg = tmp_path / "wide.ini"
    cfg.write_text(f"[bundle]\nbase_dim = 1\nfibre_dim = 1\n{bundle}\n"
                   '[splitting]\nh1 = "0.7*v1"\n'
                   '[lagrangian]\nL = "0.5*v1^2 + 0.5*w1^2"\n'
                   f"[simulation]\n{simulation}\n")
    assert run(command, cfg, tmp_path / "out") == 2
    assert "config error: sampling box" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("value", ['"2"', "true", "[2]", "3"])
def test_homogeneity_other_than_2_exits_2(tmp_path, capsys, value):
    cfg = tmp_path / "homog.ini"
    cfg.write_text((FIX / "homog.ini").read_text().replace(
        "homogeneity = 2", f"homogeneity = {value}"))
    assert run("check-all", cfg, tmp_path / "out") == 2
    assert "config error: [lagrangian] homogeneity: " \
        in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_cli_overrides_reach_the_report(tmp_path):
    assert run("induce", FIX / "model.ini", tmp_path,
               "--seed", "11", "--samples", "25") == 0
    rep = report(tmp_path)
    assert rep["seed"] == 11 and rep["samples"] == 25


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate", "--config", "x.ini"])


_OVERFLOW_INI = """[bundle]
base_dim = 1
fibre_dim = 1

[splitting]
h1 = "{h}"

[curve]
x1 = "sin(t)"
y0 = [0.2]

[simulation]
t1 = 1.5
dt = 0.001
"""


@pytest.mark.parametrize("command, h, error", [
    ("lift-curve", "exp(800*v1^2)", "field 'exp(800*v1^2)': exp overflow"),
    # sampled checks skip samples outside the domain; here every one
    # overflows
    ("curvature", "v1^2*(x1 + 1000)^400", "no admissible sample points"),
    ("classify", "exp(800 + v1^2)", "no admissible sample points"),
])
def test_float_overflow_is_a_numerical_failure(tmp_path, capsys, command, h,
                                               error):
    cfg = tmp_path / "overflow.ini"
    cfg.write_text(_OVERFLOW_INI.format(h=h))
    assert run(command, cfg, tmp_path / "out") == 3
    rep = report(tmp_path / "out")
    assert rep["status"] == "numerical-failure"
    assert rep["error"] == f"DomainError: {error}"
    assert "numerical failure" in capsys.readouterr().err


def test_classify_skips_overflowing_samples(tmp_path, monkeypatch):
    def classify_report(h, out):
        cfg = tmp_path / f"{out}.ini"
        cfg.write_text(_OVERFLOW_INI.format(h=h))
        assert run("classify", cfg, tmp_path / out) == 0
        return report(tmp_path / out)

    margin = splitting._OVERFLOW_MARGIN
    rep = classify_report("exp(800*v1^2)", "out")
    assert rep["values"]["skipped_samples"] > 0
    assert rep["verdicts"]["classification"] == "General"
    # draws next to the overflow edge are redrawn, not reported
    assert max(rep["residuals"].values()) <= margin
    classify_report("x1*v1^2 + y1", "ordinary")
    # without the margin, the edge reaches the report; an ordinary
    # splitting's report does not change
    monkeypatch.setattr(splitting, "_OVERFLOW_MARGIN", float("inf"))
    edge = classify_report("exp(800*v1^2)", "edge")
    assert max(edge["residuals"].values()) > margin
    classify_report("x1*v1^2 + y1", "unbounded")
    assert (tmp_path / "unbounded" / "report.json").read_bytes() == \
        (tmp_path / "ordinary" / "report.json").read_bytes()


def test_curvature_skips_overflowing_samples(tmp_path, capsys):
    # exp(800*v1^2) overflows only for |v1| > 0.94, so the affine check
    # runs on the rest of the box and finds the splitting not affine
    cfg = tmp_path / "overflow.ini"
    cfg.write_text(_OVERFLOW_INI.format(h="exp(800*v1^2)"))
    assert run("curvature", cfg, tmp_path / "out") == 1
    rep = report(tmp_path / "out")
    assert rep["verdicts"]["affine"] is False
    assert rep["status"] == "verification-failed"
    assert rep["error"].startswith("NotWellDefined")
    assert "verification failed" in capsys.readouterr().err


def test_project_verify_subduces_on_the_simulation_box(tmp_path):
    # L - val_ref = y1 - y_ref, so the fibre dependence subduce reports is
    # at most 2 box
    cfg = tmp_path / "box.ini"
    cfg.write_text("[bundle]\nbase_dim = 1\nfibre_dim = 1\n"
                   '[lagrangian]\nL = "0.5*v1^2 + 0.5*w1^2 + y1"\n'
                   "[simulation]\nbox = 0.25\nt1 = 0.2\n")
    assert run("project-verify", cfg, tmp_path / "out") == 1
    err = report(tmp_path / "out")["error"]
    prefix = "NotSubducible: restriction depends on the fibre point: "
    assert err.startswith(prefix)
    assert float(err[len(prefix):]) <= 0.5


def test_simulation_box_bounds_the_sampled_points(tmp_path):
    # v . dh/dv - h = -x1 for this splitting, so the connection test reads
    # max |x1| over the sampled points
    cfg = tmp_path / "box.ini"
    cfg.write_text("[bundle]\nbase_dim = 1\nfibre_dim = 1\n"
                   '[splitting]\nh1 = "0.7*v1 + x1"\n'
                   '[action]\nK = [["1"]]\n'
                   "[simulation]\nbox = 0.5\n")
    assert run("check-all", cfg, tmp_path / "out") == 0
    resid = report(tmp_path / "out")["residuals"]["connection_test_explicit"]
    assert 0.4 < resid <= 0.5


def test_readme_lists_every_public_name():
    text = (CONFIGS.parent / "README.md").read_text()
    section = text.split("\n## Public Python names\n", 1)[1]
    section = section.split("\n#", 1)[0]
    assert set(re.findall(r"`(\w+)`", section)) == set(fibresplit.__all__)
