"""End-to-end acceptance gates for the whole package.

Each test is one numbered gate.  On completion it prints a single
"criterion NN: PASS - label" line (run pytest with -s to see them all);
a failing gate prints FAIL and re-raises.
"""

import functools
import json

import numpy as np
import pytest
from derivative_check import fd_check

from fibresplit import cli
from fibresplit.bundle import (BundleChart, TangentPointM, VectorField,
                               canonical_flip, liouville_fields, tangent_map,
                               vertical_endomorphism)
from fibresplit.errors import DomainError, HypothesisFailed
from fibresplit.exprs import Bin, Call, Num, Var, VarContext, compile_field, \
    parse, to_string
from fibresplit.lagrangian import (LagrangianSpec, euler_lagrange_sode,
                                   homogeneity_of_induced, induced_splitting,
                                   integrate_sode, liouville_derivative,
                                   projection_verify, subduce,
                                   symmetry_condition_check, tangency_check)
from fibresplit.nonholonomic import integrate_constrained
from fibresplit.numerics import rk4_integrate
from fibresplit.reduction import (ActionSpec, MagneticModel, MagneticSystem,
                                  connection_test_domega, decoupling_check,
                                  integrate_magnetic, momentum_map,
                                  principal_check, reduced_base_lagrangian,
                                  unreduce, vilms_of_sode, xi_field)
from fibresplit.splitting import (AffineSplittingData, SplittingSpec,
                                  curvature_rbar, horizontal_lift_curve,
                                  project_horizontal, project_vertical,
                                  pv_component_fields, rate_residual,
                                  rbar_zero,
                                  vilms_complete_lift_check,
                                  vilms_vertical_projector)

F1 = "0.5*v1^2 + 0.5*w1^2 + w1*v1^2"
F2 = "0.5*v1^2 + 0.5*w1^2 + w1^3/6 + w1*v1^2"
F3 = "0.5*v1^2 + 0.5*(w1 - sqrt(v1^2))^2"

CH11 = BundleChart(1, 1)


def gate(num, label):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d}: FAIL - {label}")
                raise
            print(f"criterion {num:02d}: PASS - {label}")
        return inner
    return wrap


def lag(src, chart=CH11, **kw):
    return LagrangianSpec.from_expression(chart, src, **kw)


def split(chart, sources, **kw):
    return SplittingSpec.from_expressions(chart, sources, **kw)


def base_field(ch, *src):
    ctx = VarContext([("base", ch.x_names)])
    return VectorField(ch, [compile_field(parse(s), ctx, label=s)
                            for s in src])


def second_tangent(ch, r):
    from fibresplit.bundle import SecondTangentPoint
    n, m = ch.n, ch.m
    k = n + m
    return SecondTangentPoint(ch, r[:n], r[n:k], r[k:k + n], r[k + n:2 * k],
                              r[2 * k:2 * k + n], r[2 * k + n:3 * k],
                              r[3 * k:3 * k + n], r[3 * k + n:])


def trivial_action(chart=CH11):
    return ActionSpec.from_expressions(
        chart, [["1" if i == j else "0" for j in range(chart.m)]
                for i in range(chart.m)])


@gate(1, "projector identities on five splittings, 200 points each")
def test_criterion_01_projector_identities():
    fixtures = [
        (CH11, ["x1*v1 + 0.3"]),
        (CH11, ["2*v1 + 3"]),
        (CH11, ["v1^2"]),
        (CH11, ["exp(y1)*v1^3"]),
        (BundleChart(2, 2), ["x1*v2 + y1*v1^2", "sin(x2)*v1 - 0.4*v2"]),
    ]
    for chart, sources in fixtures:
        spec = split(chart, sources)
        n, m = chart.n, chart.m
        rng = np.random.default_rng(42)
        for _ in range(200):
            z = rng.uniform(-1.0, 1.0, 2 * (n + m))
            t = TangentPointM(chart, z[:n], z[n:n + m],
                              z[n + m:2 * n + m], z[2 * n + m:])
            ph = project_horizontal(spec, t)
            pv = project_vertical(spec, t)
            ph2 = project_horizontal(spec, ph)
            assert np.array_equal(ph2.v, ph.v)
            assert np.array_equal(ph2.w, ph.w)
            assert not any(pv.v)
            assert np.array_equal(pv.w, np.array(t.w) - ph.w)
            drift = spec.h_values(t.x, t.y, np.zeros(n))
            assert np.abs(np.array(project_horizontal(spec, pv).w)
                          - drift).max() <= 1e-12
            assert np.abs(project_vertical(spec, ph).w).max() <= 1e-12


@gate(2, "doubled vertical projector agrees with the flip route")
def test_criterion_02_vilms_projector():
    rng = np.random.default_rng(21)
    for src in ("x1*v1", "y1*v1^2 + sin(x1)*v1"):
        spec = split(CH11, [src])
        pv_fields = pv_component_fields(spec)
        for _ in range(50):
            r = rng.uniform(-1.0, 1.0, 8)
            via_flip = canonical_flip(tangent_map(pv_fields, canonical_flip(
                second_tangent(CH11, r))))
            direct = vilms_vertical_projector(spec, second_tangent(CH11, r))
            assert np.abs(np.array(direct.as_array())
                          - via_flip.as_array()).max() < 1e-9
        for _ in range(10):
            at = TangentPointM(CH11, *rng.uniform(-1.0, 1.0, (4, 1)))
            rep = vilms_complete_lift_check(spec, 0, at)
            assert rep.complete_residual < 1e-9


@gate(3, "classification truth table at seed 42, 200 samples")
def test_criterion_03_classification():
    cases = [("x1*v1", "Ehresmann"), ("2*v1 + 3", "Affine"),
             ("sqrt(v1^2)", "Homogeneous"), ("v1^2", "General")]
    from fibresplit.splitting import classify
    for src, want in cases:
        rep = classify(split(CH11, [src]), samples=200, seed=42)
        assert rep.verdict == want, f"{src}: {rep.verdict}"
        if want == "Homogeneous":
            assert rep.residuals["euler_residual"] < 1e-8


@gate(4, "horizontal lift matches the closed-form solution")
def test_criterion_04_lift_closed_form():
    spec = split(CH11, ["x1*y1*v1"])
    rec = horizontal_lift_curve(
        spec, lambda t: (np.array([t]), np.array([1.0])),
        [1.0], 0.0, 1.0, 1e-3)
    assert abs(rec.final[1] - np.exp(0.5)) < 1e-6


@gate(5, "1-homogeneous lifts are reparametrization invariant")
def test_criterion_05_reparametrization():
    spec = split(CH11, ["sqrt(v1^2)*y1"])
    rec1 = horizontal_lift_curve(
        spec, lambda t: (np.array([t]), np.array([1.0])),
        [0.3], 0.0, 2.0, 1e-3)
    theta = lambda s: s ** 3 + s
    rec2 = horizontal_lift_curve(
        spec, lambda s: (np.array([theta(s)]),
                         np.array([3.0 * s * s + 1.0])),
        [0.3], 0.0, 1.0, 1e-3)
    resampled = np.interp(theta(np.array(rec2.t)), rec1.t,
                          np.array(rec1.states)[:, 1])
    assert np.abs(np.array(rec2.states)[:, 1] - resampled).max() < 1e-5


@gate(6, "induced splittings satisfy the defining relation")
def test_criterion_06_induced_defining_relation():
    for src, box in ((F1, 1.0), (F2, 0.5), (F3, 1.0)):
        L = lag(src)
        h = induced_splitting(L)
        rng = np.random.default_rng(6)
        used = 0
        while used < 200:
            x, y = rng.uniform(-1.0, 1.0, 2)
            v = rng.uniform(-box, box)
            if not h.admissible([v]):
                continue
            used += 1
            w, iters = h.solve_detail([x], [y], [v])
            assert iters <= 3
            g = L.field.jet(np.array([x, y, v, w[0]])).gradient
            assert abs(g[3]) < 1e-9


@gate(7, "subduction yields the reduced model and projects solutions")
def test_criterion_07_subduction():
    L = lag(F1)
    h = induced_splitting(L)
    res = subduce(L, h)
    rng = np.random.default_rng(7)
    for _ in range(100):
        x, v = rng.uniform(-1.0, 1.0, 2)
        want = 0.5 * v * v - 0.5 * v ** 4
        assert abs(res.Lbar.value(np.array([x, v])) - want) < 1e-9
    rep = projection_verify(L, h, (np.array([0.0]), np.array([0.2])),
                            np.array([0.0]), 5.0, 1e-3)
    assert rep.max_base_deviation < 1e-6
    assert rep.horizontality_drift < 1e-6


@gate(8, "symmetry and tangency conditions gate subduction")
def test_criterion_08_symmetry_tangency():
    Lp = lag(F1)
    hp = induced_splitting(Lp)
    assert symmetry_condition_check(Lp, hp).max_residual < 1e-8
    assert tangency_check(Lp, hp).max_residual < 1e-8
    Lf = lag("0.5*v1^2 + 0.5*w1^2 + y1*v1")
    assert tangency_check(Lf, induced_splitting(Lf)).max_residual >= 0.05


@gate(9, "momentum, frame compatibility, and the dilation kernel test")
def test_criterion_09_momentum_and_principal():
    act = trivial_action()
    L = lag(F1)
    h = induced_splitting(L)
    rng = np.random.default_rng(9)
    for _ in range(50):
        x, y, v = rng.uniform(-1.0, 1.0, 3)
        w = h.h_values([x], [y], [v])
        pt = TangentPointM(CH11, [x], [y], [v], w)
        assert np.abs(momentum_map(L, act, pt)).max() < 1e-9
    assert principal_check(h, act).max_residual < 1e-7
    assert principal_check(split(CH11, ["y1*v1"]), act).max_residual >= 0.1
    assert connection_test_domega(split(CH11, ["x1*v1"]),
                                  act).max_residual < 1e-9
    assert connection_test_domega(split(CH11, ["v1^2"]),
                                  act).max_residual >= 0.1


@gate(10, "unreduction is a horizontal submersion with the right lifts")
def test_criterion_10_unreduce():
    act = trivial_action()
    h = split(CH11, ["0.7*v1"])
    ctx = VarContext([("base", ["x1"]), ("base_velocity", ["v1"])])
    Lbar = compile_field(parse("0.5*v1^2 - 0.5*x1^2"), ctx)
    gbar = euler_lagrange_sode(Lbar)
    G = unreduce(gbar, h, act)
    rng = np.random.default_rng(10)
    for _ in range(50):
        z = rng.uniform(-1.0, 1.0, 4)
        z2 = z.copy()
        z2[1] = rng.uniform(-1.0, 1.0)   # fibre point
        z2[3] = rng.uniform(-1.0, 1.0)   # fibre velocity
        assert G.force(z[:2], z[2:])[0] == G.force(z2[:2], z2[2:])[0]
    rec = integrate_sode(G, [1.0, 0.0, 0.0, 0.0], 0.0, 10.0, 1e-3)
    states = np.array(rec.states)
    drift = np.abs(states[:, 3] - 0.7 * states[:, 2]).max()
    assert drift < 1e-7
    for _ in range(50):
        pt = TangentPointM(CH11, *rng.uniform(-1.0, 1.0, (4, 1)))
        s_xi = vertical_endomorphism(xi_field(h, act, pt))
        dv = liouville_fields(h.h_values, pt, "vertical")
        assert np.abs(np.array(s_xi.as_array())
                      - dv.as_array()).max() < 1e-9
        s_g = vertical_endomorphism(vilms_of_sode(gbar, h, pt))
        dh = liouville_fields(h.h_values, pt, "horizontal")
        assert np.abs(np.array(s_g.as_array())
                      - dh.as_array()).max() < 1e-9


@gate(11, "curvature coefficients and the affine-drift contraction")
def test_criterion_11_curvature():
    ch = BundleChart(2, 1)
    spec = split(ch, ["x1*v2"])
    e1 = base_field(ch, "1", "0")
    e2 = base_field(ch, "0", "1")
    pt = (np.array([0.7, -0.3]), np.array([0.2]))
    r12 = curvature_rbar(spec, e1, e2, pt)
    assert abs(r12.w[0] - 1.0) < 1e-10
    assert abs(curvature_rbar(spec, e2, e1, pt).w[0] + 1.0) < 1e-10

    data = AffineSplittingData.from_expressions(ch, [["x2", "-x1"]],
                                                ["x1*x2"])
    at = TangentPointM(ch, [0.4, -0.6], [0.2], [0.7, 0.3], [0.0])
    z1 = base_field(ch, "x1", "1")
    z2 = base_field(ch, "2", "x2^2")
    zsum = base_field(ch, "x1 + 2", "1 + x2^2")
    lhs = np.array(rbar_zero(data, zsum, at).w)
    rhs = np.array(rbar_zero(data, z1, at).w) + rbar_zero(data, z2, at).w
    assert np.abs(lhs - rhs).max() < 1e-9
    const = AffineSplittingData.from_expressions(ch, [["1", "2"]], ["0.3"])
    assert np.abs(rbar_zero(const, z1, at).w).max() < 1e-12


@gate(12, "constrained dynamics conserve the constraint and energy")
def test_criterion_12_nonholonomic(rolling_record):
    _, c, _, rec = rolling_record
    ws = [c.h_values(s[:2], s[2:3], s[3:]) for s in rec.states]
    assert max(rate_residual(rec.t, [s[2:3] for s in rec.states], ws)) \
        < 1e-10
    E = np.asarray(rec.diagnostics["energy"])
    assert np.abs(E - E[0]).max() < 1e-6

    L2 = lag("0.5*v1^2 + 0.5*w1^2 - 2.5*x1^2")
    c2 = AffineSplittingData.from_expressions(CH11, [["2"]], ["0"])
    rec2 = integrate_constrained(L2, c2, [1.0, 0.0, 0.0], 0.0, 1.0, 1e-3)
    assert abs(rec2.final[0] - np.cos(1.0)) < 1e-6


@gate(13, "decoupling verdicts separate the base subsystem")
def test_criterion_13_magnetic_decoupling():
    good = MagneticModel.from_expressions(1, 1, V="0.5*x1^2",
                                          A_fibre=["2"])
    rep = decoupling_check(MagneticSystem(good))
    assert rep.verdict
    mag = integrate_magnetic(MagneticSystem(good), [1.0, 0.0, 0.4],
                             0.0, 10.0, 1e-3)
    base = integrate_sode(euler_lagrange_sode(reduced_base_lagrangian(good)),
                          [1.0, 0.0], 0.0, 10.0, 1e-3)
    assert np.abs(np.array(mag.states)[:, 0]
                  - np.array(base.states)[:, 0]).max() < 1e-6

    bad = MagneticModel.from_expressions(1, 1, A_fibre=["x1"])
    rep2 = decoupling_check(MagneticSystem(bad))
    assert not rep2.verdict
    assert abs(rep2.condition_residual - 1.0) < 1e-9
    assert rep2.subsystem_residual > 0.05


@gate(14, "2-homogeneous Lagrangians induce 1-homogeneous splittings")
def test_criterion_14_homogeneity():
    L = lag(F3, homogeneity_flag=2.0)
    rng = np.random.default_rng(14)
    used = 0
    while used < 100:
        z = rng.uniform(-1.0, 1.0, 4)
        if abs(z[2]) < 1e-2:
            continue
        used += 1
        assert abs(liouville_derivative(L, z) - 2.0 * L.field.value(z)) < 1e-8
    assert homogeneity_of_induced(L, induced_splitting(L)).max_residual \
        < 1e-7
    L1 = lag(F1)
    h1 = induced_splitting(L1)
    with pytest.raises(HypothesisFailed):
        homogeneity_of_induced(L1, h1)


@gate(15, "infrastructure: jets, parser, integrator order, determinism")
def test_criterion_15_infrastructure(tmp_path):
    ctx = VarContext([("base", ["a", "b", "c"])])
    rng = np.random.default_rng(15)
    for src in ("sin(a)*exp(b) + c^3", "sqrt(a^2 + 1)/(2 + cos(b))",
                "log(2 + a^2)*tan(b/4)", "abs(a^2 + 0.5) + b*c"):
        f = compile_field(parse(src), ctx, label=src)
        for _ in range(5):
            rep = fd_check(f, rng.uniform(-0.8, 0.8, 3))
            assert rep.ok, src

    names = ["a", "b"]
    funcs = ["sin", "cos", "exp", "sqrt", "abs", "log", "tan"]

    def gen(depth):
        r = rng.uniform()
        if depth <= 0 or r < 0.25:
            if rng.uniform() < 0.5:
                return Num(round(float(rng.uniform(0, 5)), 3))
            return Var(names[rng.integers(len(names))])
        if r < 0.45:
            return Call(funcs[rng.integers(len(funcs))], (gen(depth - 1),))
        op = ["+", "-", "*", "/", "^"][rng.integers(5)]
        right = gen(depth - 1)
        if op == "^":
            right = Num(float(rng.integers(0, 4)))
        return Bin(op, gen(depth - 1), right)

    for _ in range(200):
        ast = gen(4)
        text = to_string(ast)
        assert parse(text) == ast, text

    def err(dt):
        rec = rk4_integrate(lambda t, y: y, 0.0, 1.0, np.array([1.0]), dt)
        return abs(rec.final[0] - np.e)

    factor = err(0.02) / err(0.01)
    assert 14.0 < factor < 18.0

    cfg = str(__file__).replace("test_acceptance.py", "fixtures/model.ini")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert cli.main(["induce", "--config", cfg,
                         "--out-dir", str(out)]) == 0
    b1 = (out1 / "report.json").read_bytes()
    assert b1 == (out2 / "report.json").read_bytes()
    assert json.loads(b1)["status"] == "ok"
