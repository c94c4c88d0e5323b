"""Command-line surface: config in, report.json and trajectory CSV out.

Every command is a thin composition of library operations; this module
only parses arguments, builds objects from the config, runs the checks the
command asserts, and serializes results.  Exit codes: 0 all asserted
residuals in tolerance, 1 a verification failed, 2 config error, 3
numerical failure.
"""

import argparse
import json
import math
import os
import sys

from .config import load_config
from .errors import (ArityError, BranchAmbiguity, DimensionMismatch,
                     DomainError, ExprSyntaxError, FlowEscape,
                     HypothesisFailed, NoConvergence, NonFiniteState,
                     NotAffine, NotPrincipal, NotSubducible, NotWellDefined,
                     ParseError, SingularHessian, SingularMatrix,
                     UnknownIdentifier)
from .exprs import variables
from .lagrangian import (euler_lagrange_sode, homogeneity_of_induced,
                         induced_splitting, integrate_sode,
                         projection_verify, subduce,
                         symmetry_condition_check, tangency_check)
from .nonholonomic import integrate_constrained
from .numerics import Generator, dot, max_gap
from .reduction import (MagneticSystem, connection_test_domega,
                        decoupling_check, integrate_magnetic,
                        invariance_check, principal_check, unreduce)
from .splitting import (affine_curvature_coefficients, affine_decompose,
                        classify, curvature_pointwise, horizontal_lift_curve,
                        rate_residual)

COMMANDS = ("classify", "lift-curve", "induce", "subduce", "project-verify",
            "el-simulate", "nh-simulate", "magnetic-simulate", "curvature",
            "unreduce", "check-all")

_CONFIG_ERRORS = (ParseError, ExprSyntaxError, UnknownIdentifier, ArityError,
                  DimensionMismatch, ValueError)
_VERIFY_ERRORS = (NotSubducible, NotWellDefined, NotPrincipal, NotAffine,
                  HypothesisFailed)
_NUMERIC_ERRORS = (NoConvergence, SingularMatrix, SingularHessian,
                   NonFiniteState, FlowEscape, BranchAmbiguity, DomainError)

# the two tolerances every report records: TOL_STRUCTURAL bounds the
# symmetry, tangency and invariance identities, TOL_DYNAMIC the residuals
# along integrated trajectories
TOL_STRUCTURAL = 1e-9
TOL_DYNAMIC = 1e-6


def _json_clean(obj):
    """obj with string keys, lists for tuples and None for a non-finite
    float."""
    if isinstance(obj, dict):
        return {str(k): _json_clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_clean(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_report(out_dir, report):
    path = os.path.join(out_dir, "report.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_clean(report), fh, sort_keys=True, indent=2,
                  allow_nan=False)
        fh.write("\n")
    return path


def _write_csv(out_dir, header, rows):
    path = os.path.join(out_dir, "trajectory.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return path


def _state_header(chart, diags=()):
    cols = (["t"] + list(chart.x_names) + list(chart.y_names)
            + list(chart.v_names) + list(chart.w_names))
    return cols + list(diags)


def _trajectory_rows(rec, diag_names=()):
    return [[t] + state + [rec.diagnostics[name][i] for name in diag_names]
            for i, (t, state) in enumerate(zip(rec.t, rec.states))]


class _Run:
    """Accumulates checks and values for one command invocation;
    `sampling` holds the keywords of every sampled check."""

    def __init__(self, cmd, cfg, seed, samples, box):
        self.sampling = {"samples": samples, "seed": seed, "box": box}
        self.report = {
            "command": cmd,
            "config_sha256": cfg.sha256,
            "seed": seed,
            "samples": samples,
            "tolerances": {"structural": TOL_STRUCTURAL,
                           "dynamic": TOL_DYNAMIC},
            "checks": [],
            "residuals": {},
            "verdicts": {},
            "values": {},
        }
        self.csv = None

    def fail(self, exc, status):
        """Record exc as the run's outcome; no trajectory is written."""
        self.report["error"] = f"{type(exc).__name__}: {exc}"
        self.report["status"] = status
        self.csv = None

    def check(self, name, residual, tol):
        passed = bool(residual < tol)
        self.report["checks"].append(
            {"name": name, "residual": float(residual),
             "tolerance": float(tol), "passed": passed})
        return passed

    def failed(self):
        return [c["name"] for c in self.report["checks"] if not c["passed"]]


def _ic(run, sim, size, layout="", exact=True, required=True):
    """The [simulation] ic of the run's command: size entries (at least
    size unless exact), or None when the config gives none and the command
    does not require one."""
    ic = sim["ic"]
    if ic is None and not required:
        return None
    if ic is None or len(ic) < size or (exact and len(ic) > size):
        need = size if exact else f"at least {size}"
        raise ParseError(f"[simulation] ic must have {need} entries{layout} "
                         f"for {run.report['command']}")
    return ic


def _probe_point(run, sim, chart):
    """(x, y, v) for pointwise reports: the ic prefix, or a default ray
    when the config gives no ic."""
    n, m = chart.n, chart.m
    ic = _ic(run, sim, 2 * n + m, " (x, y, v)", exact=False, required=False)
    if ic is None:
        return [0.0] * n, [0.0] * m, [0.5] * n
    return ic[:n], ic[n:n + m], ic[n + m:2 * n + m]


def _energy(L, z):
    k = L.chart.n + L.chart.m
    value, grad, _ = L.field.jet_lists(z)
    return dot(grad[k:], z[k:]) - value


def _cmd_classify(run, cfg, chart, sim, args):
    spec = cfg.splitting(chart)
    rep = classify(spec, **run.sampling)
    run.report["verdicts"]["classification"] = rep.verdict
    run.report["residuals"].update(rep.residuals)
    run.report["values"]["skipped_samples"] = rep.skipped
    run.report["values"]["smooth_at_zero"] = spec.smooth_at_zero


def _cmd_lift_curve(run, cfg, chart, sim, args):
    spec = cfg.splitting(chart)
    base_curve, y0 = cfg.curve(chart)
    rec = horizontal_lift_curve(spec, base_curve, y0, sim["t0"], sim["t1"],
                                sim["dt"])
    resid = float(max(rec.diagnostics["lift_residual"]))
    run.check("lift_residual", resid, TOL_DYNAMIC)
    run.report["values"]["final_state"] = rec.final
    run.csv = (_state_header(chart, ["lift_residual"]),
               _trajectory_rows(rec, ["lift_residual"]))


def _cmd_induce(run, cfg, chart, sim, args):
    x, y, v = _probe_point(run, sim, chart)
    L = cfg.lagrangian(chart)
    h = induced_splitting(L)
    w, iters = h.solve_detail(x, y, v)
    run.report["values"]["h_at_probe"] = w
    run.report["values"]["probe"] = x + y + v
    run.report["values"]["newton_iterations"] = iters


def _cmd_subduce(run, cfg, chart, sim, args):
    x, y, v = _probe_point(run, sim, chart)
    L = cfg.lagrangian(chart)
    h = cfg.splitting(chart) if cfg.has("splitting") \
        else induced_splitting(L)
    sub = subduce(L, h, **run.sampling)
    run.report["residuals"]["y_independence"] = sub.y_independence
    run.report["values"]["y_ref"] = sub.y_ref
    run.report["values"]["Lbar_at_probe"] = sub.Lbar.value(x + v)
    sym = symmetry_condition_check(L, h, **run.sampling)
    run.report["residuals"]["symmetry"] = sym.max_residual


def _cmd_project_verify(run, cfg, chart, sim, args):
    x, y, v = _probe_point(run, sim, chart)
    L = cfg.lagrangian(chart)
    h = cfg.splitting(chart) if cfg.has("splitting") \
        else induced_splitting(L)
    rep = projection_verify(L, h, (x, v), y, sim["t1"] - sim["t0"],
                            sim["dt"], **run.sampling)
    run.check("base_deviation", rep.max_base_deviation, TOL_DYNAMIC)
    run.check("horizontality_drift", rep.horizontality_drift, TOL_DYNAMIC)
    run.report["residuals"]["el_residual_reduced"] = rep.el_residual_reduced
    run.report["values"]["min_lbar_det"] = rep.min_lbar_det


def _cmd_el_simulate(run, cfg, chart, sim, args):
    L = cfg.lagrangian(chart)
    sode = euler_lagrange_sode(L.field)
    ic = _ic(run, sim, 2 * (chart.n + chart.m))
    rec = integrate_sode(sode, ic, sim["t0"], sim["t1"], sim["dt"],
                         diagnostic=lambda t, z: {"energy": _energy(L, z)})
    E = rec.diagnostics["energy"]
    run.report["residuals"]["energy_drift"] = max(abs(e - E[0]) for e in E)
    run.report["values"]["final_state"] = rec.final
    run.csv = (_state_header(chart, ["energy"]),
               _trajectory_rows(rec, ["energy"]))


def _cmd_nh_simulate(run, cfg, chart, sim, args):
    L = cfg.lagrangian(chart)
    c = cfg.constraints(chart)
    n, m = chart.n, chart.m
    ic = _ic(run, sim, 2 * n + m, " (x, y, v)")
    rec = integrate_constrained(L, c, ic, sim["t0"], sim["t1"], sim["dt"])
    ws = [c.h_values(s[:n], s[n:n + m], s[n + m:]) for s in rec.states]
    rate = rate_residual(rec.t, [s[n:n + m] for s in rec.states], ws)
    run.check("constraint_rate_residual", max(rate), TOL_DYNAMIC)
    E = rec.diagnostics["energy"]
    run.report["residuals"]["energy_drift"] = max(abs(e - E[0]) for e in E)
    rows = [[t] + s + w + [e] for t, s, w, e in
            zip(rec.t, rec.states, ws, rec.diagnostics["energy"])]
    run.report["values"]["final_state"] = rec.final
    run.csv = (_state_header(chart, ["energy"]), rows)


def _cmd_magnetic_simulate(run, cfg, chart, sim, args):
    model = cfg.magnetic()
    system = MagneticSystem(model)
    n, m = model.n, model.m
    ic = _ic(run, sim, 2 * n + m, " (x, v, w)")
    rec = integrate_magnetic(system, ic, sim["t0"], sim["t1"], sim["dt"])
    dec = decoupling_check(system, **run.sampling)
    run.report["verdicts"]["decoupled"] = dec.verdict
    run.report["residuals"]["decoupling_condition"] = dec.condition_residual
    run.report["residuals"]["subsystem_dependence"] = dec.subsystem_residual
    run.report["residuals"]["base_el_mismatch"] = dec.base_el_residual
    run.report["values"]["quadratic_diagnostic_max"] = dec.quadratic_max
    run.report["values"]["final_state"] = rec.final
    pcols = [f"p{a+1}" for a in range(m)]
    header = (["t"] + [f"x{i+1}" for i in range(n)]
              + [f"v{i+1}" for i in range(n)]
              + [f"w{a+1}" for a in range(m)] + pcols)
    run.csv = (header, _trajectory_rows(rec, pcols))


def _cmd_curvature(run, cfg, chart, sim, args):
    x, y, v = _probe_point(run, sim, chart)
    spec = cfg.splitting(chart)
    try:
        data = affine_decompose(spec, min(sim["samples"], 100), sim["seed"],
                                sim["box"])
        B, A0d = affine_curvature_coefficients(data, x, y)
        run.report["verdicts"]["affine"] = True
        run.report["values"]["B_at_probe"] = B
        run.report["values"]["A0_derivative_at_probe"] = A0d
        run.report["residuals"]["affine_reconstruction"] = \
            data.reconstruction_residual
    except NotAffine:
        run.report["verdicts"]["affine"] = False
        n = chart.n
        pairs = []
        rng = Generator(run.report["seed"])
        for _ in range(3):
            u1 = rng.uniform(-1.0, 1.0, n)
            u2 = rng.uniform(-1.0, 1.0, n)
            val = curvature_pointwise(spec, u1, u2, (x, y))
            pairs.append({"u": u1, "v": u2, "R": val.w})
        run.report["values"]["pointwise_curvature"] = pairs


def _cmd_unreduce(run, cfg, chart, sim, args):
    gamma_bar = euler_lagrange_sode(cfg.base_lagrangian(chart))
    h = cfg.splitting(chart)
    action = cfg.action(chart)
    G = unreduce(gamma_bar, h, action, **run.sampling)
    n, m = chart.n, chart.m
    ic = _ic(run, sim, 2 * (n + m), required=False)
    if ic is not None:
        rec = integrate_sode(G, ic, sim["t0"], sim["t1"], sim["dt"])
        drift = 0.0
        for row in rec.states:
            hv = h.h_values(row[:n], row[n:n + m], row[n + m:2 * n + m])
            drift = max(drift, max_gap(row[2 * n + m:], hv))
        run.report["residuals"]["horizontality_drift"] = drift
        w0 = h.h_values(ic[:n], ic[n:n + m], ic[n + m:2 * n + m])
        if max_gap(ic[2 * n + m:], w0) < 1e-12:
            run.check("horizontality_drift", drift, TOL_DYNAMIC)
        run.report["values"]["final_state"] = rec.final
        run.csv = (_state_header(chart), _trajectory_rows(rec))


def _cmd_check_all(run, cfg, chart, sim, args):
    h_explicit = cfg.splitting(chart) if cfg.has("splitting") else None
    if h_explicit is not None:
        rep = classify(h_explicit, **run.sampling)
        run.report["verdicts"]["classification"] = rep.verdict

    L = cfg.lagrangian(chart) if cfg.has("lagrangian") else None
    h_ind = None
    # a Lagrangian of (x, v) alone is the base model that unreduce reads;
    # its L_ww vanishes, so it induces no splitting
    if L is not None and variables(L.field.ast) & set(chart.w_names):
        h_ind = induced_splitting(L)
        sym = symmetry_condition_check(L, h_ind, **run.sampling)
        run.check("symmetry_condition", sym.max_residual, TOL_STRUCTURAL)
        tan = tangency_check(L, h_ind, **run.sampling)
        run.check("tangency", tan.max_residual, TOL_STRUCTURAL)
        try:
            sub = subduce(L, h_ind, **run.sampling)
            run.check("y_independence", sub.y_independence, 1e-6)
        except NotSubducible as exc:
            run.report["checks"].append(
                {"name": "y_independence", "residual": None,
                 "tolerance": 1e-6, "passed": False, "error": str(exc)})
        if L.homogeneity_flag == 2.0:
            hom = homogeneity_of_induced(L, h_ind, **run.sampling)
            run.check("euler_residual_induced", hom.max_residual, 1e-7)

    if cfg.has("action"):
        action = cfg.action(chart)
        if L is not None:
            inv = invariance_check(L, action, **run.sampling)
            run.check("invariance", inv.max_residual, TOL_STRUCTURAL)
        for label, h in (("explicit", h_explicit), ("induced", h_ind)):
            if h is None:
                continue
            pr = principal_check(h, action, **run.sampling)
            run.check(f"principal_{label}", pr.max_residual, 1e-7)
            ct = connection_test_domega(h, action, **run.sampling)
            run.report["residuals"][f"connection_test_{label}"] = \
                ct.max_residual

    if cfg.has("constraints"):
        rep = classify(cfg.constraints(chart), **run.sampling)
        run.report["verdicts"]["constraint_classification"] = rep.verdict

    if cfg.has("magnetic"):
        dec = decoupling_check(MagneticSystem(cfg.magnetic()),
                               **run.sampling)
        run.report["verdicts"]["decoupled"] = dec.verdict
        run.report["residuals"]["decoupling_condition"] = \
            dec.condition_residual
        run.report["residuals"]["subsystem_dependence"] = \
            dec.subsystem_residual
        run.report["values"]["quadratic_diagnostic_max"] = dec.quadratic_max


_HANDLERS = {
    "classify": _cmd_classify,
    "lift-curve": _cmd_lift_curve,
    "induce": _cmd_induce,
    "subduce": _cmd_subduce,
    "project-verify": _cmd_project_verify,
    "el-simulate": _cmd_el_simulate,
    "nh-simulate": _cmd_nh_simulate,
    "magnetic-simulate": _cmd_magnetic_simulate,
    "curvature": _cmd_curvature,
    "unreduce": _cmd_unreduce,
    "check-all": _cmd_check_all,
}


def _parse_args(argv):
    p = argparse.ArgumentParser(
        prog="fibresplit",
        description="Nonlinear splittings toolkit: classify and lift "
                    "splittings, induce them from Lagrangians, reduce, "
                    "unreduce, and simulate.")
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", required=True, help="INI model file")
    p.add_argument("--out-dir", default=".", help="report/CSV directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--t1", type=float, default=None)
    return p.parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    try:
        cfg = load_config(args.config)
        chart = cfg.chart()
        sim = cfg.simulation({key: getattr(args, key)
                              for key in ("seed", "samples", "dt", "t1")
                              if getattr(args, key) is not None})
        os.makedirs(args.out_dir, exist_ok=True)
    except _CONFIG_ERRORS + (OSError,) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    run = _Run(args.command, cfg, sim["seed"], sim["samples"], sim["box"])
    code, message = 0, None
    try:
        _HANDLERS[args.command](run, cfg, chart, sim, args)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _VERIFY_ERRORS as exc:
        run.fail(exc, "verification-failed")
        code, message = 1, f"verification failed: {exc}"
    except _NUMERIC_ERRORS as exc:
        run.fail(exc, "numerical-failure")
        code, message = 3, f"numerical failure: {exc}"
    else:
        failed = run.failed()
        run.report["status"] = "ok" if not failed else "verification-failed"
        if failed:
            code, message = 1, "failed checks: " + ", ".join(failed)

    try:
        if run.csv is not None:
            header, rows = run.csv
            run.report["csv"] = "trajectory.csv"
            _write_csv(args.out_dir, header, rows)
        _write_report(args.out_dir, run.report)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if message is not None:
        print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
