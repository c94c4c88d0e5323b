from pathlib import Path

import numpy as np
import pytest

from fibresplit.bundle import (BundleChart, SecondTangentPoint, TangentPointM,
                               vertical_endomorphism, vertical_lift)
from fibresplit.config import load_config
from fibresplit.errors import (DimensionMismatch, DomainError, FlowEscape,
                               NotPrincipal, SingularMatrix)
from fibresplit.exprs import VarContext, compile_field
from fibresplit.lagrangian import (LagrangianSpec, SodeSpec,
                                   euler_lagrange_sode, induced_splitting,
                                   integrate_sode)
from fibresplit.reduction import (ActionSpec, DecouplingReport,
                                  MagneticModel, MagneticSystem, _flow_lift,
                                  connection_test_domega, decoupling_check,
                                  integrate_magnetic,
                                  invariance_check, magnetic_induced_splitting,
                                  momentum_map, omega,
                                  principal_check, reduced_base_lagrangian,
                                  unreduce, vilms_of_sode,
                                  vilms_principal_check, xi_field)
from fibresplit.splitting import (SplittingSpec, project_horizontal,
                                  project_vertical)

CH = BundleChart(1, 1)
CONFIGS = Path(__file__).parents[1] / "configs"


def trivial_action(chart=CH):
    return ActionSpec.from_expressions(
        chart, [["1" if i == j else "0" for j in range(chart.m)]
                for i in range(chart.m)])


def base_field(src):
    ctx = VarContext([("base", ["x1"]), ("base_velocity", ["v1"])])
    return compile_field(src, ctx, label=src)


def test_structure_constant_guards():
    with pytest.raises(DimensionMismatch):
        ActionSpec.from_expressions(CH, [["1"]], C=np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="antisymmetric"):
        ActionSpec.from_expressions(CH, [["1"]], C=np.ones((1, 1, 1)))
    # [e1,e2] = e2 and [e1,e3] = e1 break the Jacobi identity
    ch3 = BundleChart(1, 3)
    C = np.zeros((3, 3, 3))
    C[1, 0, 1], C[1, 1, 0] = 1.0, -1.0
    C[0, 0, 2], C[0, 2, 0] = 1.0, -1.0
    eye = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    with pytest.raises(ValueError, match="Jacobi"):
        ActionSpec.from_expressions(ch3, eye, C=C)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_model_data_is_named_before_symmetry(value):
    with pytest.raises(ValueError, match="structure constants must be finite"):
        ActionSpec.from_expressions(CH, [["1"]], C=[[[value]]])
    with pytest.raises(ValueError, match="structure constants must be finite"):
        MagneticModel.from_expressions(BundleChart(1, 1), C=[[[value]]])
    with pytest.raises(ValueError, match="fibre metric k must be finite"):
        MagneticModel.from_expressions(BundleChart(1, 1), k=[[value]])
    with pytest.raises(ValueError, match="fibre metric k must be finite"):
        MagneticModel.from_expressions(BundleChart(1, 2),
                                       k=[[1.0, 0.0], [value, 1.0]])


@pytest.mark.parametrize("C", [
    [[[0.0, 1.0], [-1.0]], [[0.0, 0.0], [0.0, 0.0]]],
    [[[0.0, [1.0]], [-1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    [[0.0, 1.0], [-1.0, 0.0]]], ids=["ragged", "deep", "shallow"])
def test_structure_constants_of_the_wrong_shape(C):
    eye = [["1", "0"], ["0", "1"]]
    with pytest.raises(DimensionMismatch,
                       match=r"structure constants must be \(2, 2, 2\)"):
        ActionSpec.from_expressions(BundleChart(1, 2), eye, C=C)
    with pytest.raises(DimensionMismatch,
                       match=r"structure constants must be \(2, 2, 2\)"):
        MagneticModel.from_expressions(BundleChart(1, 2), C=C)


def test_jacobi_residual_matches_the_array_formula():
    # the residual of the cyclic sum, computed with array contractions
    rng = np.random.default_rng(5)
    C = rng.uniform(-1.0, 1.0, (3, 3, 3))
    C = C - C.swapaxes(1, 2)
    P = np.tensordot(C, C, axes=(1, 0))  # P[e,a,b,c] = C^e_da C^d_bc
    jac = P + P.transpose(0, 3, 1, 2) + P.transpose(0, 2, 3, 1)
    eye = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    with pytest.raises(ValueError) as err:
        ActionSpec.from_expressions(BundleChart(1, 3), eye, C=C)
    assert str(err.value).endswith(f"(residual {np.abs(jac).max():.3e})")


def test_structure_constants_are_stored_as_float_lists():
    # so(3), given as an array: [e_a, e_b] = eps_abc e_c
    C = np.zeros((3, 3, 3))
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        C[c, a, b], C[c, b, a] = 1.0, -1.0
    action = ActionSpec.from_expressions(
        BundleChart(1, 3), [["1" if i == j else "0" for j in range(3)]
                            for i in range(3)], C=C)
    assert action.C == C.tolist()
    assert all(type(c) is float for plane in action.C for row in plane
               for c in row)


def test_generator_frame_must_be_invertible():
    with pytest.raises(SingularMatrix):
        ActionSpec.from_expressions(CH, [["0"]])
    # the frame is bounded like every solve with it, by kappa_1 <= 1e13,
    # not by the size of det K
    ch2 = BundleChart(1, 2)
    small = ActionSpec.from_expressions(ch2, [["1e-7", "0"], ["0", "1e-7"]])
    pt = TangentPointM(ch2, [0.1], [0.2, 0.3], [0.4], [0.5, 0.6])
    h = SplittingSpec.from_expressions(ch2, ["0", "0"])
    assert np.allclose(omega(h, small, pt), [5e6, 6e6], rtol=1e-14)
    with pytest.raises(SingularMatrix, match="degenerate"):
        ActionSpec.from_expressions(ch2, [["1e8", "0"], ["0", "1e-6"]])


@pytest.mark.parametrize("build, error, text", [
    (lambda: ActionSpec.from_expressions(CH, [["0"]]), SingularMatrix,
     "generator frame degenerate at sample point "
     "[0.25019093320933394, 0.794427601939151]"),
    (lambda: MagneticModel.from_expressions(BundleChart(1, 1), g=[["-1"]]),
     ValueError,
     "base metric not positive definite at x=[-0.7428595944616008]"),
    (lambda: MagneticModel.from_expressions(BundleChart(2, 1),
                                            g=[["1", "0.5"], ["0", "1"]]),
     ValueError, "base metric g must be symmetric (asymmetric at "
     "x=[-0.7428595944616008, -0.0014442751197700776])"),
])
def test_model_checks_print_the_drawn_point_as_a_list(build, error, text):
    # the message holds the repr of the float list drawn, every digit kept
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == text


def test_invariance_pass_and_fail():
    act = trivial_action()
    Lp = LagrangianSpec.from_expression(CH, "0.5*v1^2 + 0.5*w1^2 + w1*v1^2")
    assert invariance_check(Lp, act).max_residual == 0.0
    Lf = LagrangianSpec.from_expression(CH, "0.5*v1^2 + 0.5*w1^2 + y1*v1")
    assert invariance_check(Lf, act).max_residual > 0.5


def test_momentum_map_values():
    act = trivial_action()
    L = LagrangianSpec.from_expression(CH, "0.5*v1^2 + 0.5*w1^2")
    pt = TangentPointM(CH, [0.3], [0.1], [0.4], [1.7])
    assert abs(momentum_map(L, act, pt)[0] - 1.7) < 1e-14
    # on the image of the induced splitting the fibre momentum vanishes
    Lc = LagrangianSpec.from_expression(CH, "0.5*v1^2 + 0.5*w1^2 + w1*v1^2")
    h = induced_splitting(Lc)
    v = 0.6
    w = h.h_values([0.0], [0.0], [v])
    pt2 = TangentPointM(CH, [0.0], [0.0], [v], w)
    assert abs(momentum_map(Lc, act, pt2)[0]) < 1e-12


def test_principal_check_residuals():
    act = trivial_action()
    ok = SplittingSpec.from_expressions(CH, ["0.7*v1"])
    assert principal_check(ok, act).max_residual == 0.0
    induced = induced_splitting(
        LagrangianSpec.from_expression(CH, "0.5*v1^2 + 0.5*w1^2 + w1*v1^2"))
    assert principal_check(induced, act).max_residual < 1e-12
    bad = SplittingSpec.from_expressions(CH, ["y1*v1"])
    assert principal_check(bad, act).max_residual > 0.5


def test_omega_solves_frame_coordinates():
    act = ActionSpec.from_expressions(CH, [["2"]])
    h = SplittingSpec.from_expressions(CH, ["x1*v1"])
    pt = TangentPointM(CH, [0.5], [0.0], [1.0], [4.5])
    # w - h = 4.5 - 0.5, divided by the frame coefficient 2
    assert abs(omega(h, act, pt)[0] - 2.0) < 1e-14


def test_connection_test_flags_inhomogeneous_splittings():
    act = trivial_action()
    lin = SplittingSpec.from_expressions(CH, ["x1*v1"])
    assert connection_test_domega(lin, act).max_residual == 0.0
    quad = SplittingSpec.from_expressions(CH, ["v1^2"])
    rep = connection_test_domega(quad, act)
    assert 0.5 < rep.max_residual <= 1.0  # max sampled v^2 in a unit box


def test_xi_field_is_the_vertical_dilation():
    act = trivial_action()
    h = SplittingSpec.from_expressions(CH, ["x1*v1"])
    pt = TangentPointM(CH, [0.4], [-0.2], [0.9], [1.3])
    xi = xi_field(h, act, pt)
    s = vertical_endomorphism(xi)
    dv = vertical_lift(pt, project_vertical(h, pt))
    assert np.array_equal(s.as_array(), dv.as_array())
    # the fibre-acceleration block carries Kdot omega; constant frame: zero
    assert np.array_equal(xi.W, np.zeros(1))


def test_unreduce_oscillator_stays_horizontal():
    act = trivial_action()
    h = SplittingSpec.from_expressions(CH, ["0.7*v1"])
    gbar = euler_lagrange_sode(base_field("0.5*v1^2 - 0.5*x1^2"))
    sode = unreduce(gbar, h, act)
    rec = integrate_sode(sode, [1.0, 0.0, 0.0, 0.0], 0.0, 10.0, 1e-3)
    assert abs(rec.final[0] - np.cos(10.0)) < 1e-8
    states = np.array(rec.states)
    drift = np.abs(states[:, 3] - 0.7 * states[:, 2]).max()
    assert drift < 1e-12


def test_base_forces_take_lists_on_every_path():
    # unreduce and integrate_sode hand the base force the float lists q
    # and u, so a force written in list arithmetic runs through both
    seen = []

    def force(q, u):
        seen.append((type(q), type(u)))
        return [-e for e in q]

    gbar = SodeSpec(1, force)
    h = SplittingSpec.from_expressions(CH, ["0.7*v1"])
    sode = unreduce(gbar, h, trivial_action())
    assert np.allclose(sode.force([0.5, 0.0], [0.2, 0.14]), [-0.5, -0.35],
                       rtol=0.0, atol=1e-15)
    integrate_sode(sode, [1.0, 0.0, 0.0, 0.0], 0.0, 0.01, 1e-3)
    assert set(seen) == {(list, list)}
    seen.clear()
    rec = integrate_sode(gbar, [1.0, 0.0], 0.0, 1.0, 1e-3)
    assert set(seen) == {(list, list)}
    assert abs(rec.final[0] - np.cos(1.0)) < 1e-10


def test_frame_values_at_int_points_run_in_floats():
    # 10**400 as an exact int would pass the kernel's overflow check
    act = ActionSpec.from_expressions(CH, [["1 + y1^400"]])
    with pytest.raises(DomainError, match="powi overflow"):
        act.frame([0], [10])


@pytest.mark.parametrize("K, h_src", [
    ("1", "0.7*v1"),
    # compatible with the moving frame: h_y = v + h
    ("exp(x1 + y1)", "0.7*v1*exp(y1) - v1"),
], ids=["constant_frame", "moving_frame"])
def test_unreduced_force_is_the_vilms_lift_plus_xi(K, h_src):
    act = ActionSpec.from_expressions(CH, [[K]])
    h = SplittingSpec.from_expressions(CH, [h_src])
    gbar = euler_lagrange_sode(base_field("0.5*v1^2 - 0.5*x1^2"))
    G = unreduce(gbar, h, act)
    rng = np.random.default_rng(13)
    for _ in range(50):
        x, y, v, w = rng.uniform(-1.0, 1.0, 4).tolist()
        pt = TangentPointM(CH, [x], [y], [v], [w])
        want = [a + b for a, b in zip(vilms_of_sode(gbar, h, pt).W,
                                      xi_field(h, act, pt).W)]
        assert G.force([x, y], [v, w])[CH.n:] == want


def test_unreduced_force_takes_one_jet_of_each_frame_field(kernel_calls):
    # K and its derivative along (v, w) come from the same jet
    cfg = load_config(CONFIGS / "unreduce.ini")
    chart = cfg.chart()
    action = cfg.action(chart)
    G = unreduce(euler_lagrange_sode(cfg.base_lagrangian(chart)),
                 cfg.splitting(chart), action)
    calls = [kernel_calls(f) for row in action.K for f in row]
    ic = cfg.simulation()["ic"]
    G.force(ic[:chart.n + chart.m], ic[chart.n + chart.m:])
    assert calls == [{"jet": 1, "value": 0}]


def test_unreduce_rejects_incompatible_splitting():
    act = trivial_action()
    bad = SplittingSpec.from_expressions(CH, ["y1*v1"])
    gbar = euler_lagrange_sode(base_field("0.5*v1^2"))
    with pytest.raises(NotPrincipal):
        unreduce(gbar, bad, act)


def test_base_sode_oscillator():
    gbar = euler_lagrange_sode(base_field("0.5*v1^2 - 0.5*x1^2"))
    rec = integrate_sode(gbar, [1.0, 0.0], 0.0, 1.0, 1e-3)
    assert abs(rec.final[0] - np.cos(1.0)) < 1e-10
    odd = VarContext([("base", ["x1", "x2"]), ("base_velocity", ["v1"])])
    with pytest.raises(DimensionMismatch, match="odd"):
        euler_lagrange_sode(compile_field("0.5*v1^2", odd))
    # a base SODE of the wrong dimension cannot be unreduced
    h = SplittingSpec.from_expressions(CH, ["0.7*v1"])
    with pytest.raises(DimensionMismatch, match="dimension 2, expected 1"):
        unreduce(SodeSpec(2, lambda x, v: -x), h, trivial_action())


def test_vilms_of_sode_projects_to_horizontal_dilation():
    h = SplittingSpec.from_expressions(CH, ["x1*v1 + 0.1*v1^2"])
    gbar = euler_lagrange_sode(base_field("0.5*v1^2 - 0.5*x1^2"))
    pt = TangentPointM(CH, [0.4], [-0.2], [0.9], [1.3])
    lift = vilms_of_sode(gbar, h, pt)
    s = vertical_endomorphism(lift)
    dh = vertical_lift(pt, project_horizontal(h, pt))
    assert np.array_equal(s.as_array(), dh.as_array())
    # base acceleration block is the base force itself
    assert abs(lift.V[0] - gbar.force(pt.x, pt.v)[0]) < 1e-15


def test_vilms_principal_equivariance():
    act = trivial_action()
    sample = [(0, 0.3), (0, -0.2)]
    ok = SplittingSpec.from_expressions(CH, ["x1*v1"])
    rep = vilms_principal_check(ok, act, sample, state_samples=10)
    assert rep.max_residual < 1e-12
    bad = SplittingSpec.from_expressions(CH, ["y1*v1"])
    rep2 = vilms_principal_check(bad, act, sample, state_samples=10)
    assert rep2.max_residual > 0.05


def test_vilms_principal_nonconstant_frame():
    act = ActionSpec.from_expressions(CH, [["exp(y1)"]])
    h = SplittingSpec.from_expressions(CH, ["v1*exp(y1)"])
    assert principal_check(h, act, box=0.5).max_residual < 1e-12
    rep = vilms_principal_check(h, act, [(0, 0.2)], state_samples=8, box=0.5)
    assert rep.max_residual < 1e-9


def test_vilms_principal_detects_a_small_defect():
    # y-dependence of size 1e-7 breaks equivariance under the translation
    # frame; the lifted flow has no differencing noise to hide it under
    act = trivial_action()
    h = SplittingSpec.from_expressions(CH, ["x1*v1 + 1e-7*y1*v1"])
    rep = vilms_principal_check(h, act, [(0, 0.3), (0, -0.2)],
                                state_samples=10)
    assert rep.max_residual > 1e-9


@pytest.mark.parametrize("t, W, message", [
    (1.02, 0.1, "left the chart"),     # y' = y^2 from 1 blows up at t = 1
    (0.5, 1e308, "diverged"),          # the lifted block overflows
])
def test_flow_lift_escape(t, W, message):
    act = ActionSpec.from_expressions(CH, [["y1^2"]])
    s = SecondTangentPoint(CH, [0.0], [1.0], [0.3], [0.2], [0.1], [0.1],
                           [0.1], [W])
    with np.errstate(over="ignore"), pytest.raises(FlowEscape, match=message):
        _flow_lift(act, 0, t, s)


def test_flow_lift_escape_through_the_frame_domain():
    # y' = y^2 blows up at t = 1/y0: K's jet overflows mid-flow, which is
    # an escape, while a start point where it overflows is a domain error
    act = ActionSpec.from_expressions(CH, [["y1^2"]])
    s = SecondTangentPoint(CH, [0.0], [1.0], [0.3], [0.2], [0.1], [0.1],
                           [0.1], [0.1])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FlowEscape, match="diverged: .*powi overflow"):
        _flow_lift(act, 0, 1.05, s)
    far = SecondTangentPoint(CH, [0.0], [1e200], [0.3], [0.2], [0.1], [0.1],
                             [0.1], [0.1])
    with pytest.raises(DomainError, match="powi overflow"):
        _flow_lift(act, 0, 0.1, far)
    h = SplittingSpec.from_expressions(CH, ["x1*v1"])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FlowEscape, match="generator flow diverged"):
        vilms_principal_check(h, act, [(0, 2.0)], state_samples=10)


# ---------------------------------------------------------------------------
# magnetic quasi-velocity systems


def test_magnetic_model_guards():
    with pytest.raises(ValueError, match="symmetric"):
        MagneticModel.from_expressions(BundleChart(1, 2),
                                       k=[[1.0, 0.3], [0.0, 1.0]])
    with pytest.raises(SingularMatrix):
        MagneticModel.from_expressions(BundleChart(1, 1), k=[[0.0]])
    with pytest.raises(ValueError, match="positive definite"):
        MagneticModel.from_expressions(BundleChart(1, 1), g=[["-1"]])
    # [e1,e2] = e1 has no bi-invariant euclidean metric
    C = np.zeros((2, 2, 2))
    C[0, 0, 1], C[0, 1, 0] = 1.0, -1.0
    with pytest.raises(ValueError, match="bi-invariant"):
        MagneticModel.from_expressions(BundleChart(1, 2), C=C)


def test_magnetic_model_rejects_asymmetric_metric():
    # eigvalsh reads only the lower triangle, so this g passed the
    # positivity check; the dynamics used G and the reduced Lagrangian its
    # symmetric part (decoupling verdict True, EL mismatch 0.267)
    with pytest.raises(ValueError, match="base metric g must be symmetric"):
        MagneticModel.from_expressions(BundleChart(2, 1),
                                       g=[["1", "0.5"], ["0", "1"]],
                                       V="x1", A_fibre=["2"])
    sym = MagneticModel.from_expressions(BundleChart(2, 1),
                                         g=[["1", "0.25*x2"],
                                            ["0.25*x2", "1"]])
    assert decoupling_check(MagneticSystem(sym),
                            samples=5).base_el_residual < 1e-12


def test_magnetic_rhs_trivial_model():
    model = MagneticModel.from_expressions(BundleChart(1, 1))
    sys = MagneticSystem(model)
    rhs = sys.rhs(0.0, np.array([0.3, 0.5, 0.2]))
    assert np.array_equal(rhs, np.array([0.5, 0.0, 0.0]))


def test_magnetic_rhs_metric_term():
    model = MagneticModel.from_expressions(BundleChart(1, 1), g=[["exp(x1)"]])
    sys = MagneticSystem(model)
    for x, v in [(0.3, 0.7), (-0.5, 1.2)]:
        rhs = sys.rhs(0.0, np.array([x, v, 0.1]))
        assert abs(rhs[1] + 0.5 * v * v) < 1e-12  # geodesic: v' = -v^2/2


def test_magnetic_oscillator_and_momentum_transport():
    model = MagneticModel.from_expressions(BundleChart(1, 1), V="0.5*x1^2")
    sys = MagneticSystem(model)
    rec = integrate_magnetic(sys, [1.0, 0.0, 0.3], 0.0, 10.0, 1e-3)
    assert abs(rec.final[0] - np.cos(10.0)) < 1e-8
    # the fibre block is inert here: transported momentum is constant
    p = np.asarray(rec.diagnostics["p1"])
    assert np.abs(p - 0.3).max() == 0.0
    assert np.abs(np.array(rec.states)[:, 2] - 0.3).max() == 0.0


def test_magnetic_induced_splitting_constant():
    model = MagneticModel.from_expressions(BundleChart(1, 1), k=[[2.0]],
                                           A_fibre=["6"])
    h = magnetic_induced_splitting(model)
    assert abs(h([0.4])[0] + 3.0) < 1e-14


def test_reduced_base_lagrangian_jets():
    model = MagneticModel.from_expressions(
        BundleChart(1, 1), g=[["exp(x1)"]], V="x1^3", A_base=["sin(x1)"])
    Lbar = reduced_base_lagrangian(model)
    x, v = 0.3, 0.7
    j = Lbar.jet(np.array([x, v]))
    ex, sx, cx = np.exp(x), np.sin(x), np.cos(x)
    assert abs(j.value - (0.5 * ex * v * v - x ** 3 + sx * v)) < 1e-12
    assert abs(j.gradient[0]
               - (0.5 * ex * v * v - 3 * x * x + cx * v)) < 1e-12
    assert abs(j.gradient[1] - (ex * v + sx)) < 1e-12
    assert abs(j.hessian[0]
               - (0.5 * ex * v * v - 6 * x - sx * v)) < 1e-12
    assert abs(j.hessian[1] - (ex * v + cx)) < 1e-12
    assert abs(j.hessian[3] - ex) < 1e-12
    with pytest.raises(DimensionMismatch):
        Lbar.jet(np.array([0.1]))


def test_decoupling_constant_interaction():
    model = MagneticModel.from_expressions(BundleChart(1, 1), A_fibre=["2"])
    rep = decoupling_check(MagneticSystem(model))
    assert isinstance(rep, DecouplingReport)
    assert rep.verdict
    assert rep.condition_residual == 0.0
    assert rep.subsystem_residual == 0.0
    assert rep.base_el_residual == 0.0
    assert rep.quadratic_max == 0.0


def test_decoupling_detects_position_dependent_interaction():
    model = MagneticModel.from_expressions(BundleChart(1, 1), A_fibre=["x1"])
    rep = decoupling_check(MagneticSystem(model))
    assert not rep.verdict
    assert abs(rep.condition_residual - 1.0) < 1e-9
    assert rep.subsystem_residual > 0.05  # w feeds back into the base block


def test_decoupling_verdict_is_only_the_linear_condition():
    # Upsilon cancels dA/dx in the linear condition, but quadratic coupling
    # remains; the verdict must not silently absorb those residuals.
    model = MagneticModel.from_expressions(
        BundleChart(1, 1), A_fibre=["exp(x1)"], upsilon=[[["-1"]]])
    rep = decoupling_check(MagneticSystem(model))
    assert rep.verdict
    assert rep.condition_residual == 0.0
    assert rep.subsystem_residual > 0.5
    assert rep.quadratic_max > 0.5
