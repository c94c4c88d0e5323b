import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fibresplit import splitting
from fibresplit.bundle import (BundleChart, TangentPointM, VectorField,
                               canonical_flip, tangent_map)
from fibresplit.config import load_config
from fibresplit.errors import (DimensionMismatch, DomainError, NotAffine,
                               NotWellDefined)
from fibresplit.exprs import VarContext, compile_field, parse
from fibresplit.jets import TapeField
from fibresplit.numerics import dot
from fibresplit.splitting import (AffineSplittingData, SplittingSpec,
                                  affine_curvature_coefficients,
                                  affine_decompose, classify,
                                  curvature_pointwise, curvature_rbar,
                                  horizontal_lift_curve, lifted_field,
                                  project_horizontal, rate_residual,
                                  project_vertical, pv_component_fields,
                                  vilms_complete_lift_check, vilms_horizontal,
                                  vilms_lift, vilms_vertical_projector)

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def spec11(src):
    return SplittingSpec.from_expressions(BundleChart(1, 1), [src])


def base_field(ch, *src):
    ctx = VarContext([("base", ch.x_names)])
    return VectorField(ch, [compile_field(parse(s), ctx, label=s)
                            for s in src])


def test_from_expressions_infers_slit_restriction():
    assert spec11("x1*v1").smooth_at_zero
    assert not spec11("sqrt(v1^2)").smooth_at_zero


def test_admissibility_and_domain_error():
    s = spec11("sqrt(v1^2)")
    assert s.admissible(np.array([0.5]))
    assert not s.admissible(np.array([0.0]))
    with pytest.raises(DomainError):
        s.h_values([0.0], [0.0], [0.0])


def test_admissibility_at_the_slit():
    s = spec11("abs(v1)")
    eps = s.chart.slit_eps
    assert s.admissible([eps])
    assert not s.admissible([np.nextafter(eps, 0.0)])
    # |(3t, 4t)| = 5t exactly when t is a power of two
    t = 2.0 ** -10
    on, off = (SplittingSpec.from_expressions(BundleChart(2, 1, slit),
                                              ["abs(v1) + v2"])
               for slit in (5 * t, np.nextafter(5 * t, 1.0)))
    assert on.admissible([3 * t, 4 * t])
    assert not off.admissible([3 * t, 4 * t])


def test_coefficient_arity_guard():
    ch = BundleChart(1, 1)
    ctx = VarContext([("base", ["x1"])])
    bad = compile_field(parse("x1"), ctx)
    with pytest.raises(DimensionMismatch):
        SplittingSpec(ch, [bad])


def test_projector_identities_with_drift():
    # drifted fixture so h(x,y,0) is nonzero and the identities bite
    s = spec11("x1*v1 + 0.3")
    rng = np.random.default_rng(8)
    for _ in range(100):
        z = rng.uniform(-2.0, 2.0, 4)
        t = TangentPointM(s.chart, z[:1], z[1:2], z[2:3], z[3:])
        ph = project_horizontal(s, t)
        pv = project_vertical(s, t)
        # idempotence, exact
        assert np.array_equal(project_horizontal(s, ph).as_array(),
                              ph.as_array())
        # complement: the vertical block is the exact difference w - P_h(w).w
        # (same float subtraction on both sides, so bitwise equality holds)
        w, w_h, w_v = np.array(t.w), np.array(ph.w), np.array(pv.w)
        assert np.array_equal(w_v, w - w_h)
        assert np.abs((w_h + w_v) - w).max() < 1e-15 * (1 + abs(w[0]))
        # vertical then horizontal lands on the v=0 drift
        hz = s.h_values(t.x, t.y, np.zeros(1))
        assert np.abs(np.array(project_horizontal(s, pv).w) - hz).max() \
            < 1e-12
        # horizontal then vertical has no fibre velocity left
        assert np.abs(project_vertical(s, ph).w).max() < 1e-12


def test_project_horizontal_replaces_w_by_h():
    s = spec11("y1*v1^2")
    t = project_horizontal(s, TangentPointM(s.chart, [0.5], [2.0], [3.0],
                                            [99.0]))
    assert t.as_array() == [0.5, 2.0, 3.0, 18.0]


def test_classification_truth_table():
    assert classify(spec11("x1*v1")).verdict == "Ehresmann"
    assert classify(spec11("2*v1 + 3")).verdict == "Affine"
    rep = classify(spec11("sqrt(v1^2)"))
    assert rep.verdict == "Homogeneous"
    assert rep.residuals["euler_residual"] < 1e-8
    assert rep.residuals["linearity_residual"] is None
    assert classify(spec11("v1^2")).verdict == "General"


def test_classification_drift_and_bookkeeping():
    rep = classify(spec11("x1*v1 + 0.3"), samples=150, seed=5)
    assert rep.verdict == "Affine"
    assert abs(rep.residuals["drift_residual"] - 0.3) < 1e-12
    assert rep.sample_count == 150 and rep.seed == 5
    with pytest.raises(ValueError):
        classify(spec11("v1"), samples=0)


def test_lift_linear_in_fibre_gives_exponential():
    # dy/dt = t * y along x(t) = t
    ch = BundleChart(1, 1)
    s = SplittingSpec.from_expressions(ch, ["x1*y1*v1"])

    def curve(t):
        return np.array([t]), np.array([1.0])

    rec = horizontal_lift_curve(s, curve, np.array([1.0]), 0.0, 1.0, 1e-3)
    y1 = rec.final[1]
    assert abs(y1 - np.exp(0.5)) < 1e-6
    assert max(rec.diagnostics["lift_residual"]) < 1e-6


def test_lift_with_drift_free_linear_coefficient():
    # dy/dt = x*xdot = t along x(t) = t: y(1) = y0 + 1/2
    s = spec11("x1*v1")

    def curve(t):
        return np.array([t]), np.array([1.0])

    rec = horizontal_lift_curve(s, curve, np.array([1.0]), 0.0, 1.0, 1e-3)
    assert abs(rec.final[1] - 1.5) < 1e-9


def test_lift_rejects_velocity_on_slit():
    s = SplittingSpec.from_expressions(BundleChart(1, 1), ["sqrt(v1^2)*y1"])

    def curve(t):
        return np.array([t - 0.5 * t ** 2]), np.array([1.0 - t])

    with pytest.raises(DomainError):
        # xdot hits zero exactly at the t = 1.0 grid point
        horizontal_lift_curve(s, curve, np.array([1.0]), 0.0, 2.0, 0.1)


def test_stencil_derivative_exact_on_quartic():
    tw = np.array([0.0, 0.1, 0.2, 0.3, 0.35])  # uneven final gap
    yw = (tw ** 4 - 2 * tw ** 2 + tw).reshape(-1, 1)
    rates = (4 * tw ** 3 - 4 * tw + 1).reshape(-1, 1)
    assert max(rate_residual(tw, yw, rates)) < 1e-12


# The loop that splitting._stencil generates straight-line code for: the
# bit-for-bit reference of rate_residual.

def _reference_stencil_derivative(tw, yw, t):
    """Derivative at t of the Lagrange interpolant through (tw, yw) rows,
    as a list of floats."""
    k = len(tw)
    gaps = [t - s for s in tw]
    weights = []
    for a in range(k):
        denom = 1.0
        for l in range(k):
            if l != a:
                denom *= tw[a] - tw[l]
        num = 0.0
        for b in range(k):
            if b == a:
                continue
            term = 1.0
            for l in range(k):
                if l != a and l != b:
                    term *= gaps[l]
            num += term
        weights.append(num / denom)
    # each column summed from 0.0 in node order
    return [dot(col, weights) for col in zip(*yw)]


def _reference_rate_residual(ts, ys, rates):
    resid = [0.0] * len(ts)
    width = min(5, len(ts))
    for i in range(len(ts)):
        if width < 2:
            break
        j = min(max(i - width // 2, 0), len(ts) - width)
        dy = _reference_stencil_derivative(ts[j:j + width], ys[j:j + width],
                                           ts[i])
        resid[i] = max(abs(d - r) for d, r in zip(dy, rates[i]))
    return resid


def _grid(N, last, dt=1e-3):
    """The grid rk4_integrate records: N points dt apart from 0.2, the
    last step shortened to last * dt."""
    return [0.2 + i * dt for i in range(N - 1)] + [0.2 + (N - 2 + last) * dt]


def _hex(values):
    return [float.hex(v) for v in values]


@pytest.mark.parametrize("last", [1.0, 0.37])
def test_stencil_derivative_matches_the_loop_reference_bit_for_bit(last):
    # every width from 2 to 5 and every position of t among the nodes, on
    # rows in [-1, 1] and on rows off the finite range
    rng = np.random.default_rng(31)
    special = [-0.0, 0.0, 1.0, -1.0, math.nan, math.inf, -math.inf, 1e300,
               -1e300]
    draws = [lambda shape: rng.uniform(-1.0, 1.0, shape).tolist(),
             lambda shape: rng.choice(special, shape).tolist()]
    for N in [*range(1, 8), 301]:
        ts = _grid(N, last)
        for m, draw in itertools.product((1, 2, 3), draws):
            for _ in range(3 if N == 301 else 30):
                ys, rates = draw((N, m)), draw((N, m))
                got = rate_residual(ts, ys, rates)
                assert _hex(got) == _hex(_reference_rate_residual(ts, ys,
                                                                  rates))


def test_rate_residual_rejects_rows_of_another_length():
    # the reference's zip compared the shorter of dy and the rate row;
    # every row now unpacks to len(ys[0]) entries or raises ValueError
    ts = _grid(4, 1.0)
    ys = [[0.1 * i, 0.2 * i * i] for i in range(4)]
    rates = [[0.0, 0.0]] * 4
    first = _reference_rate_residual(ts, [y[:1] for y in ys],
                                     [r[:1] for r in rates])
    assert _reference_rate_residual(ts, ys, rates[:3] + [[0.0]])[3] \
        == first[3] > 0.0
    for bad_ys, bad_rates in [(ys, rates[:3] + [[0.0]]),
                              (ys, rates[:3] + [[0.0, 0.0, 0.0]]),
                              (ys[:1] + [[0.1]] + ys[2:], rates),
                              (ys[:3] + [[0.1, 0.2, 0.3]], rates)]:
        with pytest.raises(ValueError):
            rate_residual(ts, bad_ys, bad_rates)


def test_one_generated_stencil_per_shape():
    splitting._stencil.cache_clear()
    for _ in range(3):
        rate_residual(_grid(7, 1.0), [[0.0]] * 7, [[0.0]] * 7)
        rate_residual(_grid(3, 1.0), [[0.0, 0.0]] * 3, [[0.0, 0.0]] * 3)
    info = splitting._stencil.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 4, 2)
    assert splitting._stencil(5, 1) is splitting._stencil(5, 1)


def test_importing_the_cli_generates_no_step_and_no_stencil():
    program = ("import fibresplit.cli\n"
               "from fibresplit import numerics, splitting\n"
               "print(numerics._rk4_step.cache_info().currsize,"
               " splitting._stencil.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", program], capture_output=True,
                         text=True, timeout=60, check=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.stdout.split() == ["0", "0"]


def test_lift_curve_reads_its_base_curve_once_per_distinct_time():
    # configs/lift.ini with --t1 0.1: 100 steps of 0.001.  The stages at
    # t + dt/2 share a time, and a row often the last stage's: 401 reads
    # of 213 distinct times before the reads were shared
    cfg = load_config(CONFIGS / "lift.ini")
    chart = cfg.chart()
    spec = cfg.splitting(chart)
    sim = cfg.simulation({"t1": 0.1})
    base_curve, y0 = cfg.curve(chart)
    times = []

    def counted(t):
        times.append(t)
        return base_curve(t)

    rec = horizontal_lift_curve(spec, counted, y0, sim["t0"], sim["t1"],
                                sim["dt"])
    assert len(rec.t) == 101
    assert len(times) == len({(t, math.copysign(1.0, t)) for t in times}) \
        == 213


def test_lift_curve_evaluates_h_once_per_grid_point(monkeypatch):
    # 10 RK4 steps: 4 stages each, the first of them at the recorded row,
    # and 11 rows; 51 h_values calls before each row reused its first stage
    cfg = load_config(CONFIGS / "lift.ini")
    chart = cfg.chart()
    spec = cfg.splitting(chart)
    base_curve, y0 = cfg.curve(chart)
    rec = horizontal_lift_curve(spec, base_curve, y0, 0.0, 0.1, 0.01)
    calls = []
    h_values = spec.h_values

    def counted(*args):
        calls.append(args)
        return h_values(*args)

    monkeypatch.setattr(spec, "h_values", counted)
    again = horizontal_lift_curve(spec, base_curve, y0, 0.0, 0.1, 0.01)
    assert len(calls) == 41
    assert again.t == rec.t and again.states == rec.states
    assert again.diagnostics == rec.diagnostics


def test_lifted_field_blocks():
    ch = BundleChart(2, 1)
    s = SplittingSpec.from_expressions(ch, ["x1*v2 + y1*v1^2"])
    X = base_field(ch, "x2", "1")
    lf = lifted_field(s, X)
    q = np.array([0.5, -1.0, 2.0])  # (x1, x2, y1)
    vals = lf.values(q)
    assert np.allclose(vals[:2], [-1.0, 1.0])
    assert abs(vals[2] - (0.5 * 1.0 + 2.0 * 1.0)) < 1e-15


def test_vilms_vertical_projector_matches_flip_route():
    # direct coordinate formula vs flip . T(P_v) . flip, linear + nonlinear
    rng = np.random.default_rng(21)
    for src in ("x1*v1", "y1*v1^2 + sin(x1)*v1"):
        s = spec11(src)
        pv_fields = pv_component_fields(s)
        for _ in range(50):
            r = rng.uniform(-1.0, 1.0, 8)
            pt = canonical_flip(tangent_map(pv_fields, canonical_flip(
                _stp(s.chart, r))))
            direct = vilms_vertical_projector(s, _stp(s.chart, r))
            assert np.abs(np.array(direct.as_array())
                          - pt.as_array()).max() < 1e-9


def _stp(ch, r):
    from fibresplit.bundle import SecondTangentPoint
    n, m = ch.n, ch.m
    k = n + m
    return SecondTangentPoint(ch, r[:n], r[n:k], r[k:k + n], r[k + n:2 * k],
                              r[2 * k:2 * k + n], r[2 * k + n:3 * k],
                              r[3 * k:3 * k + n], r[3 * k + n:])


def test_vilms_complete_lift_identity():
    rng = np.random.default_rng(22)
    for src in ("x1*v1", "y1*v1^2 + sin(x1)*v1"):
        s = spec11(src)
        for _ in range(10):
            z = rng.uniform(-1.0, 1.0, 4)
            at = TangentPointM(s.chart, z[:1], z[1:2], z[2:3], z[3:])
            rep = vilms_complete_lift_check(s, 0, at)
            assert rep.complete_residual < 1e-9


def test_vilms_lift_is_a_splitting_on_the_doubled_chart():
    s = spec11("y1*v1^2")
    big = vilms_lift(s)
    assert big.chart.n == 2 and big.chart.m == 2
    # coefficients at (x, v; y, w; X, V) agree with the direct formula
    rng = np.random.default_rng(23)
    for _ in range(20):
        x, v, y, w, X, V = rng.uniform(-1.0, 1.0, 6)
        vals = big.h_values([x, v], [y, w], [X, V])
        at = TangentPointM(s.chart, [x], [y], [v], [w])
        direct = vilms_horizontal(s, at, [X], [V])
        assert abs(vals[0] - direct.Y[0]) < 1e-12
        assert abs(vals[1] - direct.W[0]) < 1e-12


def test_vilms_lift_w_rows_linear_in_velocities():
    # second derivatives of the W coefficients vanish in the (v, w, V) block
    s = spec11("y1*v1^2 + x1*v1")
    big = vilms_lift(s)
    w_jet = big.coefficients[1].jet([0.4, 0.3, 0.2, 0.1, 0.6, -0.2])
    # doubled-chart variable order: x, v, y, w, X, V
    lin_idx = [1, 3, 5]
    sub = np.reshape(w_jet.hessian, (6, 6))[np.ix_(lin_idx, lin_idx)]
    assert np.abs(sub).max() < 1e-8


def test_curvature_rbar_linear_fixture():
    # A = [0, -x1], A0 = 0: the x1-to-v2 coupling has unit bracket defect
    ch = BundleChart(2, 1)
    s = SplittingSpec.from_expressions(ch, ["x1*v2"])
    e1 = base_field(ch, "1", "0")
    e2 = base_field(ch, "0", "1")
    r = curvature_rbar(s, e1, e2, (np.array([0.7, -0.3]), np.array([0.2])))
    assert abs(r.w[0] - 1.0) < 1e-10
    assert not any(r.v)
    # antisymmetry in the two fields
    r2 = curvature_rbar(s, e2, e1, (np.array([0.7, -0.3]), np.array([0.2])))
    assert abs(r.w[0] + r2.w[0]) < 1e-10


def test_curvature_pointwise_additive_for_linear():
    # bilinearity needs the drift-free part; a constant A0 shifts every
    # evaluation by the same h(0) and breaks raw additivity
    ch = BundleChart(2, 1)
    s = SplittingSpec.from_expressions(ch, ["x1*v2 + x2*v1"])
    pt = (np.array([0.5, 0.1]), np.array([0.0]))
    rng = np.random.default_rng(24)
    for _ in range(5):
        u1, u2, v = rng.uniform(-1.0, 1.0, (3, 2))
        lhs = np.array(curvature_pointwise(s, u1 + u2, v, pt).w)
        rhs = np.array(curvature_pointwise(s, u1, v, pt).w) \
            + curvature_pointwise(s, u2, v, pt).w
        assert np.abs(lhs - rhs).max() < 1e-9


def test_rbar_zero_linear_in_zeta_and_zero_for_constant():
    from fibresplit.splitting import rbar_zero
    ch = BundleChart(2, 1)
    data = AffineSplittingData.from_expressions(
        ch, [["x2", "-x1"]], ["x1*x2"])
    pt = TangentPointM(ch, [0.4, -0.6], [0.2], [0.7, 0.3], [0.0])
    z1 = base_field(ch, "x1", "1")
    z2 = base_field(ch, "2", "x2^2")
    zsum = base_field(ch, "x1 + 2", "1 + x2^2")
    lhs = np.array(rbar_zero(data, zsum, pt).w)
    rhs = np.array(rbar_zero(data, z1, pt).w) + rbar_zero(data, z2, pt).w
    assert np.abs(lhs - rhs).max() < 1e-9
    const = AffineSplittingData.from_expressions(ch, [["1", "2"]], ["0.3"])
    assert np.abs(rbar_zero(const, z1, pt).w).max() < 1e-12


def test_curvature_pointwise_rejects_extension_dependence():
    ch = BundleChart(2, 1)
    s = SplittingSpec.from_expressions(ch, ["v1^2 + x1*v2"])
    with pytest.raises(NotWellDefined):
        curvature_pointwise(s, np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                            (np.array([0.3, 0.2]), np.array([0.1])))


def test_affine_decompose_recovers_coefficients():
    ch = BundleChart(2, 1)
    s = SplittingSpec.from_expressions(ch, ["sin(x1)*v1 - y1*v2 + x2"])
    data = affine_decompose(s)
    assert data.reconstruction_residual < 1e-10
    q = np.array([0.4, -0.2, 0.7])  # (x1, x2, y1)
    # h = -A v + A0
    assert abs(data.A[0][0].value(q) + np.sin(0.4)) < 1e-9
    assert abs(data.A[0][1].value(q) - 0.7) < 1e-9
    assert abs(data.A0[0].value(q) + 0.2) < 1e-12


def test_affine_decompose_rejects_nonlinear():
    with pytest.raises(NotAffine):
        affine_decompose(spec11("v1^2"))
    # defined only on the slit, so never at the v = 0 the read-off needs
    finsler = SplittingSpec.from_expressions(BundleChart(2, 1),
                                             ["sqrt(v1^2 + v2^2)"])
    with pytest.raises(NotAffine, match="not smooth at v = 0"):
        affine_decompose(finsler)


def test_affine_round_trip_and_curvature_coefficients():
    ch = BundleChart(2, 1)
    data = AffineSplittingData.from_expressions(
        ch, [["0", "-x1"]], ["0"])
    assert classify(data).verdict == "Ehresmann"
    B, A0d, A = map(np.array, affine_curvature_coefficients(
        data, np.array([0.7, -0.3]), np.array([0.2])))
    assert B.shape == (1, 2, 2) and A0d.shape == (1, 2)
    assert A.tolist() == [[0.0, -0.7]]
    assert abs(B[0, 0, 1] - 1.0) < 1e-10
    assert abs(B[0, 1, 0] + 1.0) < 1e-10
    assert np.abs(A0d).max() < 1e-10


def test_affine_decompose_returns_the_verified_splitting():
    ch = BundleChart(2, 1)
    spec = SplittingSpec.from_expressions(ch, ["sin(x1)*v1 - y1*v2 + x2"])
    data = affine_decompose(spec, samples=5)
    assert isinstance(data, SplittingSpec)
    assert data.coefficients == spec.coefficients
    for z in np.random.default_rng(27).uniform(-1.0, 1.0, (5, 5)).tolist():
        x, y, v = z[:2], z[2:3], z[3:]
        assert data.h_values(x, y, v) == spec.h_values(x, y, v)
        assert data.h_jet_lists(x, y, v) == spec.h_jet_lists(x, y, v)


def test_affine_from_expressions_composes_one_tape_per_component():
    ch = BundleChart(2, 1)
    data = AffineSplittingData.from_expressions(
        ch, [["x2", "-x1"]], ["x1*x2"])
    (h,) = data.coefficients
    assert isinstance(h, TapeField) and h.label == "h1_affine"
    x, y, v = [0.4, -0.6], [0.2], [0.7, 0.3]
    assert abs(h.value(x + y + v) - (-0.24 + 0.6 * 0.7 + 0.4 * 0.3)) < 1e-15
    assert classify(data).verdict == "Affine"
    assert classify(AffineSplittingData.from_expressions(
        ch, [["1", "2"]], ["0"])).verdict == "Ehresmann"
    with pytest.raises(DimensionMismatch, match=r"shape \(1,\)$"):
        AffineSplittingData.from_expressions(ch, [["1", "2"]], ["0", "1"])


def test_affine_curvature_zero_for_constant_coefficients():
    ch = BundleChart(2, 1)
    data = AffineSplittingData.from_expressions(
        ch, [["2", "-1"]], ["0.5"])
    B, A0d, _ = affine_curvature_coefficients(
        data, np.array([0.1, 0.2]), np.array([0.3]))
    assert np.abs(B).max() < 1e-12
    assert np.abs(A0d).max() < 1e-12
