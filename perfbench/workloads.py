"""Seeded models for the three workloads, and the checks on their outputs.

Every model comes from a family with a closed-form answer, so each output
can be compared with a value the benchmark computes on its own.  The seed
draws only coefficients and initial conditions; the structure of a round
(models, chart sizes, commands, spans, sample counts) is fixed per
workload, so a round costs about the same on every seed.

A workload is a list of `Model`s and a list of `Invocation`s.  One round
runs every invocation once through `fibresplit.cli.main`.
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

CLOSED_TOL = 1e-8       # closed form against report values
DYNAMIC_TOL = 1e-6      # the CLI's default dynamic tolerance


@dataclass
class Model:
    name: str
    ini: str
    builders: tuple              # config builders the model's commands use
    h_exact: object = None       # (x, y, v) -> w, for induced splittings
    info: dict = field(default_factory=dict)


@dataclass
class Invocation:
    model: Model
    command: str
    args: tuple
    check: object                # (report, out_dir) -> list of problems

    @property
    def label(self):
        return f"{self.model.name}:{self.command}"


def _num(rng, lo, hi):
    """A coefficient written with four decimals, so config and closed form
    use the same float."""
    return round(float(rng.uniform(lo, hi)), 4)


def _lit(c):
    return f"({float(c)!r})"


def _ini(sections):
    out = []
    for name, body in sections:
        out.append(f"[{name}]")
        for key, value in body.items():
            out.append(f"{key} = {value}")
        out.append("")
    return "\n".join(out)


def _q(s):
    return json.dumps(s)


def _vec(vals):
    return "[" + ", ".join(repr(float(v)) for v in vals) + "]"


def _read_csv(out_dir):
    with open(os.path.join(out_dir, "trajectory.csv"), encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(c) for c in line.split(",")] for line in fh if line.strip()]
    return header, np.array(rows)


def _col(header, data, name):
    return data[:, header.index(name)]


def rel_error(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.abs(a - b).max() / (1.0 + np.abs(b).max())) if b.size else 0.0


def _expect_ok(report):
    problems = []
    if report.get("status") != "ok":
        problems.append(f"status {report.get('status')!r}: "
                        f"{report.get('error', '')}")
    bad = [c["name"] for c in report.get("checks", []) if not c["passed"]]
    if bad:
        problems.append("failed checks " + ", ".join(bad))
    return problems


def _close(problems, what, got, want, tol=CLOSED_TOL):
    if got is None:
        problems.append(f"{what}: missing")
        return
    err = rel_error(got, want)
    if not err <= tol:
        problems.append(f"{what}: relative error {err:.3e} > {tol:.0e}")


def _stencil5(t, y):
    """Fourth-order central difference of y on a uniform grid, interior."""
    dt = t[1] - t[0]
    return (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * dt)


# ---------------------------------------------------------------- families

def oscillator_model(rng, name, samples):
    """L = v^2/2 + w^2/2 + c w v^2 - k x^2/2, so dL/dw = 0 gives w = -c v^2.

    Small initial velocities keep the velocity Hessian (det 1 - 6 c^2 v^2
    on the splitting) away from zero along the run.
    """
    c = _num(rng, 0.5, 1.0)
    k = _num(rng, 0.5, 1.5)
    x0 = _num(rng, -0.2, 0.2)
    y0 = _num(rng, -0.5, 0.5)
    v0 = _num(rng, 0.1, 0.2)
    ic = [x0, y0, v0, -c * v0 * v0]
    ini = _ini([
        ("bundle", {"base_dim": 1, "fibre_dim": 1}),
        ("lagrangian", {"L": _q(f"0.5*v1^2 + 0.5*w1^2 + {_lit(c)}*w1*v1^2"
                                f" - {_lit(0.5 * k)}*x1^2")}),
        ("simulation", {"dt": 0.001, "ic": _vec(ic),
                        "seed": int(rng.integers(1, 10**6)),
                        "samples": samples}),
    ])

    def h_exact(x, y, v):
        return np.array([-c * v[0] ** 2])

    def lbar(x, v):
        return 0.5 * v[0] ** 2 - 0.5 * c * c * v[0] ** 4 - 0.5 * k * x[0] ** 2

    def energy(x, w, v):
        return 0.5 * v ** 2 + 0.5 * w ** 2 + 2.0 * c * w * v ** 2 + 0.5 * k * x ** 2

    return Model(name, ini, ("lagrangian",), h_exact,
                 {"n": 1, "m": 1, "ic": ic, "lbar": lbar, "energy": energy})


def _affine_terms(rng, n, m):
    """h_a = sum_i P_ai(x) v_i + beta_a x1 with P_ai(x) = sum_j C[a,i,j] x_j."""
    C = np.array([[[_num(rng, -0.6, 0.6) for _ in range(n)] for _ in range(n)]
                  for _ in range(m)])
    beta = np.array([_num(rng, 0.2, 0.5) for _ in range(m)])
    srcs = []
    for a in range(m):
        terms = []
        for i in range(n):
            p = " + ".join(f"{_lit(C[a, i, j])}*x{j+1}" for j in range(n))
            terms.append(f"({p})*v{i+1}")
        terms.append(f"{_lit(beta[a])}*x1")
        srcs.append(" + ".join(terms))

    def h_exact(x, y, v):
        return np.einsum("aij,j,i->a", C, x, v) + beta * x[0]

    return C, beta, srcs, h_exact


def quadratic_model(rng, name, n, m, samples, explicit=False, curve=False):
    """L = |v|^2/2 + |w - h(x, v)|^2/2 - |x|^2/2 with h affine in v, so the
    induced splitting is h itself.  With `explicit` the same h is also
    given as a [splitting]; with `curve` a polynomial base curve is added
    whose horizontal lift has a closed form."""
    C, beta, srcs, h_exact = _affine_terms(rng, n, m)
    vs = " + ".join(f"v{i+1}^2" for i in range(n))
    xs = " + ".join(f"x{i+1}^2" for i in range(n))
    ws = " + ".join(f"(w{a+1} - ({srcs[a]}))^2" for a in range(m))
    x0 = np.array([_num(rng, -0.5, 0.5) for _ in range(n)])
    y0 = np.array([_num(rng, -0.5, 0.5) for _ in range(m)])
    v0 = np.array([_num(rng, -0.5, 0.5) for _ in range(n)])
    ic = list(x0) + list(y0) + list(v0) + list(h_exact(x0, y0, v0))
    sections = [
        ("bundle", {"base_dim": n, "fibre_dim": m}),
        ("lagrangian", {"L": _q(f"0.5*({vs}) + 0.5*({ws}) - 0.5*({xs})")}),
    ]
    builders = ["lagrangian"]
    info = {"n": n, "m": m, "ic": ic, "C": C, "beta": beta,
            "lbar": lambda x, v: 0.5 * float(v @ v) - 0.5 * float(x @ x)}
    if explicit:
        sections.append(("splitting", {f"h{a+1}": _q(srcs[a])
                                       for a in range(m)}))
        builders.append("splitting")
    if curve:
        s = np.array([_num(rng, 0.3, 0.8) for _ in range(n)])
        r = np.array([_num(rng, -0.4, 0.4) for _ in range(n)])
        body = {f"x{i+1}": _q(f"{_lit(s[i])}*t + {_lit(r[i])}*t^2")
                for i in range(n)}
        body["y0"] = _vec(y0)
        sections.append(("curve", body))
        builders.append("curve")
        info.update(s=s, r=r, y0=y0)
    sections.append(("simulation", {"dt": 0.001, "ic": _vec(ic),
                                    "seed": int(rng.integers(1, 10**6)),
                                    "samples": samples}))
    return Model(name, _ini(sections), tuple(builders), h_exact, info)


def knife_edge_model(rng, name):
    """Free particle dragging a fibre coordinate: dy/dt = c x1 dx2/dt."""
    a = _num(rng, 0.8, 1.2)
    b = _num(rng, 0.8, 1.2)
    c = _num(rng, 0.5, 1.5)
    ic = [_num(rng, 0.2, 0.6), _num(rng, -0.3, 0.3), _num(rng, -0.3, 0.3),
          _num(rng, 0.1, 0.4), _num(rng, 0.2, 0.6)]
    ini = _ini([
        ("bundle", {"base_dim": 2, "fibre_dim": 1}),
        ("lagrangian", {"L": _q(f"0.5*({_lit(a)}*v1^2 + {_lit(b)}*v2^2"
                                f" + w1^2)")}),
        ("constraints", {"A": f'[["0", "{_lit(-c)}*x1"]]', "A0": '["0"]'}),
        ("simulation", {"dt": 0.001, "ic": _vec(ic)}),
    ])
    return Model(name, ini, ("lagrangian", "constraints"),
                 info={"c": c})


def magnetic_model(rng, name, samples):
    """Oscillator base with a fibre momentum p = w + c x: V = a x^2/2 and
    A_alpha = c x.  p and E = (v^2 + a x^2 + w^2)/2 are conserved, and the
    decoupling condition evaluates to dA_alpha/dx = c everywhere."""
    a = _num(rng, 0.5, 1.5)
    c = _num(rng, 0.2, 0.8)
    ic = [_num(rng, -1.0, 1.0), _num(rng, -0.5, 0.5), _num(rng, -0.5, 0.5)]
    ini = _ini([
        ("bundle", {"base_dim": 1, "fibre_dim": 1}),
        ("magnetic", {"g": '[["1"]]', "k": "[[1.0]]",
                      "V": _q(f"{_lit(0.5 * a)}*x1^2"),
                      "A_alpha": f'["{_lit(c)}*x1"]'}),
        ("simulation", {"dt": 0.001, "ic": _vec(ic),
                        "seed": int(rng.integers(1, 10**6)),
                        "samples": samples}),
    ])
    return Model(name, ini, ("magnetic",), info={"a": a, "c": c, "ic": ic})


def unreduce_model(rng, name, samples):
    """Base oscillator x'' = -k x lifted through h = a v with K = 1."""
    k = _num(rng, 0.5, 1.5)
    a = _num(rng, 0.3, 0.9)
    x0, y0, v0 = _num(rng, -0.5, 0.5), _num(rng, -0.5, 0.5), _num(rng, 0.5, 1.0)
    ic = [x0, y0, v0, a * v0]
    ini = _ini([
        ("bundle", {"base_dim": 1, "fibre_dim": 1}),
        ("lagrangian", {"L": _q(f"0.5*v1^2 - {_lit(0.5 * k)}*x1^2")}),
        ("splitting", {"h1": _q(f"{_lit(a)}*v1")}),
        ("action", {"K": '[["1"]]'}),
        ("simulation", {"dt": 0.001, "ic": _vec(ic),
                        "seed": int(rng.integers(1, 10**6)),
                        "samples": samples}),
    ])
    return Model(name, ini, ("base_lagrangian", "splitting", "action"),
                 info={"k": k, "a": a, "ic": ic})


def lift_model(rng, name):
    """h = c x v + d along x = sin(t): y = y0 + c sin(t)^2 / 2 + d t."""
    c = _num(rng, 0.5, 1.5)
    d = _num(rng, -0.5, 0.5)
    y0 = _num(rng, -0.5, 0.5)
    ini = _ini([
        ("bundle", {"base_dim": 1, "fibre_dim": 1}),
        ("splitting", {"h1": _q(f"{_lit(c)}*x1*v1 + {_lit(d)}")}),
        ("curve", {"x1": _q("sin(t)"), "y0": _vec([y0])}),
        ("simulation", {"dt": 0.001}),
    ])
    return Model(name, ini, ("splitting", "curve"),
                 info={"c": c, "d": d, "y0": y0})


# ------------------------------------------------------------------ checks

def check_ok(report, out_dir):
    return _expect_ok(report)


def check_induce(model):
    def check(report, out_dir):
        p = _expect_ok(report)
        n, m = model.info["n"], model.info["m"]
        ic = np.array(model.info["ic"])
        x, y, v = ic[:n], ic[n:n + m], ic[n + m:2 * n + m]
        _close(p, "h_at_probe", report["values"].get("h_at_probe"),
               model.h_exact(x, y, v))
        return p
    return check


def check_subduce(model):
    def check(report, out_dir):
        p = _expect_ok(report)
        n, m = model.info["n"], model.info["m"]
        ic = np.array(model.info["ic"])
        _close(p, "Lbar_at_probe", report["values"].get("Lbar_at_probe"),
               model.info["lbar"](ic[:n], ic[n + m:2 * n + m]))
        return p
    return check


def check_nh(model):
    """Measured constraint: 5-point central difference of the recorded y
    against A0 - A v = c x1 v2."""
    def check(report, out_dir):
        p = _expect_ok(report)
        h, d = _read_csv(out_dir)
        t = _col(h, d, "t")
        # the grid is uniform except possibly for a shorter last step
        if np.abs(np.diff(t) - (t[1] - t[0])).max() > 1e-12:
            t, d = t[:-1], d[:-1]
        ydot = _stencil5(t, _col(h, d, "y1"))
        want = model.info["c"] * _col(h, d, "x1")[2:-2] * _col(h, d, "v2")[2:-2]
        err = float(np.abs(ydot - want).max())
        if not err < DYNAMIC_TOL:
            p.append(f"dy/dt vs A0 - A v: {err:.3e} >= {DYNAMIC_TOL:.0e}")
        return p
    return check


def check_el(model):
    """Closed-form energy conserved, and the state stays on w = -c v^2."""
    def check(report, out_dir):
        p = _expect_ok(report)
        h, d = _read_csv(out_dir)
        x, v, w = _col(h, d, "x1"), _col(h, d, "v1"), _col(h, d, "w1")
        E = model.info["energy"](x, w, v)
        _close(p, "energy", E, np.full_like(E, E[0]))
        _close(p, "w on the induced splitting", w,
               [model.h_exact(None, None, [vi])[0] for vi in v])
        return p
    return check


def check_magnetic(model):
    def check(report, out_dir):
        p = _expect_ok(report)
        a, c = model.info["a"], model.info["c"]
        h, d = _read_csv(out_dir)
        x, v, w = _col(h, d, "x1"), _col(h, d, "v1"), _col(h, d, "w1")
        p1 = _col(h, d, "p1")
        _close(p, "p1 against w + c x", p1, w + c * x, 1e-12)
        _close(p, "p1 conserved", p1, np.full_like(p1, p1[0]))
        E = 0.5 * (v * v + a * x * x + w * w)
        _close(p, "energy", E, np.full_like(E, E[0]))
        _close(p, "decoupling_condition",
               report["residuals"].get("decoupling_condition"), c, 1e-12)
        if report["verdicts"].get("decoupled") is not False:
            p.append("decoupled verdict should be false (dA_alpha/dx = c)")
        return p
    return check


def check_unreduce(model):
    def check(report, out_dir):
        p = _expect_ok(report)
        k, a = model.info["k"], model.info["a"]
        x0, y0, v0, _ = model.info["ic"]
        h, d = _read_csv(out_dir)
        t = _col(h, d, "t")
        om = math.sqrt(k)
        x = x0 * np.cos(om * t) + v0 / om * np.sin(om * t)
        v = -x0 * om * np.sin(om * t) + v0 * np.cos(om * t)
        _close(p, "x(t)", _col(h, d, "x1"), x)
        _close(p, "v(t)", _col(h, d, "v1"), v)
        _close(p, "y(t)", _col(h, d, "y1"), y0 + a * (x - x0))
        _close(p, "w(t)", _col(h, d, "w1"), a * v)
        return p
    return check


def check_lift(model):
    def check(report, out_dir):
        p = _expect_ok(report)
        c, dd, y0 = model.info["c"], model.info["d"], model.info["y0"]
        h, d = _read_csv(out_dir)
        t = _col(h, d, "t")
        _close(p, "y(t)", _col(h, d, "y1"),
               y0 + 0.5 * c * np.sin(t) ** 2 + dd * t)
        return p
    return check


def check_lift_poly(model):
    """x_i = s_i t + r_i t^2: the lift of h = P(x) v + beta x1 integrates
    to a quartic, on which RK4 (Simpson in t) is exact up to rounding."""
    def check(report, out_dir):
        p = _expect_ok(report)
        C, beta = model.info["C"], model.info["beta"]
        s, r, y0 = model.info["s"], model.info["r"], model.info["y0"]
        h, d = _read_csv(out_dir)
        t = _col(h, d, "t")
        # int_0^t x_j(u) x_i'(u) du for x_j = s_j u + r_j u^2
        I = (np.einsum("j,i->ij", s, s)[..., None] * (t ** 2 / 2)
             + (2 * np.einsum("j,i->ij", s, r)
                + np.einsum("j,i->ij", r, s))[..., None] * (t ** 3 / 3)
             + np.einsum("j,i->ij", r, r)[..., None] * (t ** 4 / 2))
        x1int = s[0] * t ** 2 / 2 + r[0] * t ** 3 / 3
        for a in range(model.info["m"]):
            ya = y0[a] + np.einsum("ij,ijt->t", C[a], I) + beta[a] * x1int
            _close(p, f"y{a+1}(t)", _col(h, d, f"y{a+1}"), ya)
        return p
    return check


def check_classify(report, out_dir):
    p = _expect_ok(report)
    verdict = report["verdicts"].get("classification")
    if verdict != "Affine":
        p.append(f"classification {verdict!r}, expected 'Affine'")
    return p


def check_curvature(model):
    """B[a,i,j] = C[a,j,i] - C[a,i,j] and A0d[a,i] = beta_a delta_i1."""
    def check(report, out_dir):
        p = _expect_ok(report)
        C, beta = model.info["C"], model.info["beta"]
        n, m = model.info["n"], model.info["m"]
        if report["verdicts"].get("affine") is not True:
            p.append("affine verdict should be true")
            return p
        A0d = np.zeros((m, n))
        A0d[:, 0] = beta
        _close(p, "B_at_probe", report["values"].get("B_at_probe"),
               np.transpose(C, (0, 2, 1)) - C)
        _close(p, "A0_derivative_at_probe",
               report["values"].get("A0_derivative_at_probe"), A0d)
        return p
    return check


# --------------------------------------------------------------- workloads

def induced(rng):
    """Induced splittings of the oscillator family (n=m=1) and of the
    quadratic family at (n, m) = (2, 1): induce, subduce, check-all and a
    shortened project-verify for each.  An explicit affine splitting at
    (n, m) = (3, 2) adds classify and curvature, the sampling layers with
    finite-difference Hessians, on arity-8 tapes."""
    models = [oscillator_model(rng, "osc", samples=12),
              quadratic_model(rng, "quad", 2, 1, samples=6)]
    inv = []
    for mdl in models:
        inv += [Invocation(mdl, "induce", (), check_induce(mdl)),
                Invocation(mdl, "subduce", (), check_subduce(mdl)),
                Invocation(mdl, "check-all", (), check_ok),
                Invocation(mdl, "project-verify", ("--t1", "0.01"),
                           check_ok)]
    split = quadratic_model(rng, "split", 3, 2, samples=3, explicit=True)
    inv += [Invocation(split, "classify", ("--samples", "12"), check_classify),
            Invocation(split, "curvature", (), check_curvature(split))]
    return models + [split], inv


def trajectories(rng):
    """Fixed-step RK4 on explicit right-hand sides: no Newton solves."""
    knife = knife_edge_model(rng, "knife")
    osc = oscillator_model(rng, "osc", samples=4)
    mag = magnetic_model(rng, "mag", samples=8)
    unr = unreduce_model(rng, "unred", samples=8)
    lift = lift_model(rng, "lift")
    inv = [Invocation(knife, "nh-simulate", ("--t1", "0.3"), check_nh(knife)),
           Invocation(osc, "el-simulate", ("--t1", "0.6"), check_el(osc)),
           Invocation(mag, "magnetic-simulate", ("--t1", "0.6"),
                      check_magnetic(mag)),
           Invocation(unr, "unreduce", ("--t1", "0.6"), check_unreduce(unr)),
           Invocation(lift, "lift-curve", ("--t1", "1.0"), check_lift(lift))]
    return [knife, osc, mag, unr, lift], inv


SWEEP_SIZES = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2))


def sweep(rng):
    """Many small models, chart sizes (1,1) to (3,2): tape arity 3 to 10."""
    models = []
    inv = []
    for n, m in SWEEP_SIZES:
        mdl = quadratic_model(rng, f"q{n}{m}", n, m, samples=3,
                              explicit=True, curve=True)
        models.append(mdl)
        inv += [Invocation(mdl, "classify", ("--samples", "12"),
                           check_classify),
                Invocation(mdl, "curvature", (), check_curvature(mdl)),
                Invocation(mdl, "induce", (), check_induce(mdl)),
                Invocation(mdl, "lift-curve", ("--t1", "0.05"),
                           check_lift_poly(mdl))]
    return models, inv


WORKLOADS = {"induced": induced, "trajectories": trajectories, "sweep": sweep}
