import numpy as np
import pytest

from fibresplit import lagrangian
from fibresplit.bundle import BundleChart, TangentPointM
from fibresplit.errors import (BranchAmbiguity, DimensionMismatch,
                               DomainError, HypothesisFailed, NotSubducible,
                               SingularHessian)
from fibresplit.exprs import VarContext, compile_field, parse
from fibresplit.lagrangian import (LagrangianSpec, euler_lagrange_sode,
                                   fibre_regularity, homogeneity_of_induced,
                                   induced_splitting, integrate_sode,
                                   liouville_derivative, projection_verify,
                                   subduce, SubducedField,
                                   symmetry_condition_check, tangency_check)
from fibresplit.splitting import SplittingSpec

CH = BundleChart(1, 1)

# quadratic fibre coupling: dL/dw = w + v^2, so h = -v^2
F1 = "0.5*v1^2 + 0.5*w1^2 + w1*v1^2"
# cubic fibre term: dL/dw = w + w^2/2 + v^2, tracked root -1 + sqrt(1-2v^2)
F2 = "0.5*v1^2 + 0.5*w1^2 + w1^3/6 + w1*v1^2"
# kinked: dL/dw = w - |v|, so h = |v| on the slit
F3 = "0.5*v1^2 + 0.5*(w1 - sqrt(v1^2))^2"


def lag(src, **kw):
    return LagrangianSpec.from_expression(CH, src, **kw)


@pytest.fixture
def newton_calls(monkeypatch):
    """The arguments of every newton_solve call the continuation makes."""
    calls = []
    solve = lagrangian.newton_solve

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(lagrangian, "newton_solve", counted)
    return calls


def test_from_expression_flags():
    assert not lag(F1).nonsmooth
    assert lag(F3).nonsmooth
    assert lag(F1, homogeneity_flag=2.0).homogeneity_flag == 2.0
    base_only = compile_field(parse("x1"), VarContext([("base", ["x1"])]))
    with pytest.raises(DimensionMismatch):
        LagrangianSpec(CH, base_only)


def test_fibre_regularity_reports_w_block():
    # dL/dv dv is invertible here but the w-block is identically zero
    L = lag("0.5*v1^2 + v1*w1")
    rep = fibre_regularity(L, TangentPointM(CH, [0.0], [0.0], [1.0], [0.0]))
    assert abs(rep["det"]) < 1e-12
    L2 = lag(F1)
    rep2 = fibre_regularity(L2, TangentPointM(CH, [0.0], [0.0], [1.0], [0.0]))
    assert abs(rep2["det"] - 1.0) < 1e-12


def test_euler_lagrange_oscillator():
    L = lag("0.5*v1^2 + 0.5*w1^2 - 0.5*x1^2 - 0.5*y1^2")
    sode = euler_lagrange_sode(L.field)
    rec = integrate_sode(sode, [1.0, 0.5, 0.0, 0.0], 0.0, 1.0, 1e-3)
    assert abs(rec.final[0] - np.cos(1.0)) < 1e-10
    assert abs(rec.final[1] - 0.5 * np.cos(1.0)) < 1e-10


def test_singular_velocity_hessian_raises():
    L = lag("x1*v1 + y1*w1")
    sode = euler_lagrange_sode(L.field)
    with pytest.raises(SingularHessian):
        sode.force(np.array([0.1, 0.2]), np.array([0.3, 0.4]))


def test_induced_splitting_quadratic_fixture(newton_calls):
    h = induced_splitting(lag(F1))
    assert h.smooth_at_zero
    newton_calls.clear()
    w, iters = h.solve_detail([0.0], [0.0], [0.4])
    assert abs(w[0] + 0.16) < 1e-12
    assert iters == 1  # affine root problem
    assert len(newton_calls) == 1  # quadratic in w: one solve at s = 1
    assert abs(h.h_values([0.3], [0.7], [0.5])[0] + 0.25) < 1e-12


def test_induced_coefficient_value_is_a_float():
    c = induced_splitting(lag(F1)).coefficients[0]
    value = c.value([0.3, 0.7, 0.5])
    assert type(value) is float
    assert value == c.vg_lists([0.3, 0.7, 0.5])[0]


def test_quadratic_lagrangian_probe_skips_the_seeds(newton_calls):
    # dL/dw is affine in w with L_ww = 1: the 5 probe points' reference
    # roots are the only solves, where F2 also runs 10 seeds at each
    induced_splitting(lag(F1))
    assert len(newton_calls) == 5
    newton_calls.clear()
    induced_splitting(lag(F2))
    assert len(newton_calls) >= 5 * (1 + 10)


def test_ill_conditioned_quadratic_lagrangian_has_one_branch():
    # kappa_1(L_ww) ~ 4e11: Newton from a seed lands on the one root only
    # up to rounding, ~1e-5 off, which a seed probe took for a second root
    r1, r2 = "(w1 - x1*v1)", "(w2 - v1 - y1)"
    src = f"0.5*v1^2 + 0.5*({r1}^2 + 2*{r1}*{r2} + (1 + 1e-11)*{r2}^2)"
    L = LagrangianSpec.from_expression(BundleChart(1, 2), src)
    w = induced_splitting(L).h_values([0.3], [0.2, 0.1], [0.5])
    assert np.abs(np.subtract(w, [0.15, 0.7])).max() < 1e-4


def test_induced_splitting_cubic_fixture_and_iterations(newton_calls):
    h = induced_splitting(lag(F2))
    # the branch folds at v = 1/sqrt(2): from 0.5 on the full step is
    # rejected and halved, and at 0.69 the final corrector must still take
    # <= 3; the polished root is as accurate as the old 11-point grid's
    for v, halved in ((0.3, False), (0.5, True), (0.6, True), (0.69, True)):
        newton_calls.clear()
        w, iters = h.solve_detail([0.0], [0.0], [v])
        assert abs(w[0] - (-1.0 + np.sqrt(1.0 - 2.0 * v * v))) < 1e-14
        assert iters <= 3
        assert (len(newton_calls) > 2) == halved


def test_continuation_reuses_newtons_last_jet(monkeypatch):
    # F2 at v = 0.3 takes no halving: the root w = 0 at s = 0 costs one
    # jet and the corrector at s = 1 one per iteration plus its start;
    # _fibre_solve reads the jet that newton_solve took at each root
    L = lag(F2)
    h = induced_splitting(L)
    jets = []
    jet_lists = L.field.jet_lists

    def counted(z):
        jets.append(z)
        return jet_lists(z)

    monkeypatch.setattr(L.field, "jet_lists", counted)
    w, iters = h.solve_detail([0.0], [0.0], [0.3])
    assert abs(w[0] - (-1.0 + np.sqrt(1.0 - 2.0 * 0.09))) < 1e-14
    assert len(jets) == 1 + (1 + iters)


def test_continuation_halves_when_the_predictor_leaves_the_domain():
    # root w = 1 - exp(-v) inside w < 1; the tangent at s = 0 is v, so for
    # v >= 1 the full-step predictor w = v is outside the domain of log
    L = lag("(1 - w1)*log(1 - w1) + w1 - v1*w1")
    h = induced_splitting(L)
    for v in (0.5, 1.5, 3.0):
        w, iters = h.solve_detail([0.0], [0.0], [v])
        assert abs(w[0] - (1.0 - np.exp(-v))) < 1e-14
        assert iters <= 3


def test_induced_gradient_is_implicit_derivative():
    h = induced_splitting(lag(F2))
    v = 0.5
    jet = h.coefficients[0].jet([0.0, 0.0, v])
    want = -2.0 * v / np.sqrt(1.0 - 2.0 * v * v)
    assert abs(jet.gradient[2] - want) < 1e-10
    # hessian comes from differencing the exact gradient
    want_hess = -2.0 / np.sqrt(1 - 2 * v * v) \
        - 4.0 * v * v / (1 - 2 * v * v) ** 1.5
    assert abs(jet.hessian[2 * 3 + 2] - want_hess) < 1e-5


def test_induced_splitting_slit_fixture():
    L = lag(F3)
    h = induced_splitting(L)
    assert not h.smooth_at_zero
    assert abs(h.h_values([0.0], [0.0], [-0.7])[0] - 0.7) < 1e-12
    j = h.coefficients[0].jet([0.0, 0.0, -0.7])
    # positively 1-homogeneous: v . dh/dv = h
    assert abs(j.gradient[2] * (-0.7) - j.value) < 1e-10


# m = 2 quadratic family w = A(x) v + b(x): with r = w - A(x) v - b(x),
# L = 0.5|v|^2 + 0.5 r.M r for M = [[1, 0.3], [0.3, 1]], so dL/dw = M r
# vanishes exactly on r = 0
CH22 = BundleChart(2, 2)
QUAD22 = ("0.5*(v1^2 + v2^2) + 0.5*(r1^2 + r2^2) + 0.3*r1*r2"
          .replace("r1", "(w1 - x1*v1 - 0.5*v2 - sin(x2))")
          .replace("r2", "(w2 - cos(x1)*v2 + v1 - x1*x2)"))


def quad22_exact(x, v):
    return np.array([x[0] * v[0] + 0.5 * v[1] + np.sin(x[1]),
                     np.cos(x[0]) * v[1] - v[0] + x[0] * x[1]])


def test_induced_splitting_m2_one_solve_for_all_coefficients(newton_calls):
    h = induced_splitting(LagrangianSpec.from_expression(CH22, QUAD22))
    solves = []
    solve_detail = h.solve_detail

    def counted(*args):
        solves.append(args)
        return solve_detail(*args)

    h.solve_detail = counted
    rng = np.random.default_rng(33)
    for _ in range(10):
        x, y, v = (rng.uniform(-1.0, 1.0, 2) for _ in range(3))
        solves.clear()
        newton_calls.clear()
        w = h.h_values(x, y, v)
        assert len(solves) == 1
        assert len(newton_calls) == 1  # quadratic in w: one solve at s = 1
        assert np.abs(w - quad22_exact(x, v)).max() < 1e-12
        z = np.concatenate([x, y, v])
        per_coefficient = np.array([c.value(z) for c in h.coefficients])
        assert np.array_equal(w, per_coefficient)


# m = 2 with coupled fibre coordinates: h = L_ww^-1 (x1 v1, y1 v1)
CH12 = BundleChart(1, 2)
COUPLED12 = ("0.5*v1^2 + 0.5*(w1 - x1*v1)^2 + 0.5*(w2 - y1*v1)^2"
             " + 0.1*w1*w2")


def test_induced_h_vg_lists_solve_once_for_all_coefficients(monkeypatch):
    h = induced_splitting(LagrangianSpec.from_expression(CH12, COUPLED12))
    solves = []
    solve_detail = h.solve_detail

    def counted(*args):
        solves.append(args)
        return solve_detail(*args)

    h.solve_detail = counted
    rng = np.random.default_rng(12)
    for _ in range(10):
        x, y, v = (rng.uniform(-1.0, 1.0, k) for k in (1, 2, 1))
        solves.clear()
        vgs = h.h_vg_lists(x, y, v)
        assert len(solves) == 1
        z = [*x, *y, *v]
        per_coefficient = [c.vg_lists(z) for c in h.coefficients]
        assert len(solves) == 3
        assert repr(vgs) == repr(per_coefficient)  # bit for bit, -0.0 too
    # a non-finite gradient is rejected as each coefficient rejects it
    inf_dh = np.full((2, 5), np.inf)
    monkeypatch.setattr(lagrangian, "_fibre_solve", lambda jet, k: inf_dh)
    with pytest.raises(DomainError, match="non-finite"):
        h.h_vg_lists([0.1], [0.2, 0.3], [0.4])
    with pytest.raises(DomainError, match="non-finite"):
        h.coefficients[1].vg_lists([0.1, 0.2, 0.3, 0.4])


# the continuation tracks the root near w = 0 of w^2 - 0.6 w + v^2
BRANCH = "w1^3/3 - 0.3*w1^2 + v1^2*w1 + 0.5*v1^2"


@pytest.mark.parametrize("source, quadratic", [(F1, True), (BRANCH, False)],
                         ids=["quadratic", "continuation"])
def test_roots_are_lists_of_floats(source, quadratic):
    h = induced_splitting(lag(source), probe=False)
    assert h._affine is quadratic
    w, iters = h.solve_detail([0.1], [0.2], [0.1])
    assert type(w) is list and [type(e) for e in w] == [float]
    assert h.h_values([0.1], [0.2], [0.1]) == w
    explicit = SplittingSpec.from_expressions(CH, ["x1*v1"])
    hv = explicit.h_values(np.array([0.5]), [0.2], [0.4])
    assert type(hv) is list and [type(e) for e in hv] == [float]


def test_branch_ambiguity_detected_at_build():
    # dL/dw = w^2 - 0.6 w + v^2 has two roots separated by ~2 sqrt(0.09-v^2)
    L = lag(BRANCH)
    with pytest.raises(BranchAmbiguity):
        induced_splitting(L)
    # probing can be declined explicitly
    h = induced_splitting(L, probe=False)
    assert len(h.h_values([0.0], [0.0], [0.1])) == 1


def test_defining_relation_on_samples():
    L = lag(F2)
    h = induced_splitting(L)
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(200):
        x, y = rng.uniform(-1.0, 1.0, 2)
        v = rng.uniform(-0.5, 0.5)  # keep 1 - 2v^2 well positive
        w = h.h_values([x], [y], [v])
        g = L.field.jet(np.array([x, y, v, w[0]])).gradient
        worst = max(worst, abs(g[3]))
    assert worst < 1e-9


def test_subduce_refuses_a_splitting_off_the_defining_relation():
    L = lag(F1)
    wrong = SplittingSpec.from_expressions(CH, ["v1^2"])  # true h is -v^2
    with pytest.raises(NotSubducible, match="defining relation fails"):
        subduce(L, wrong, samples=20, seed=5)
    # dL/dw = w = 0.5 v1 on this h, while L . h never sees the fibre point
    L = lag("0.5*v1^2 + 0.5*w1^2")
    wrong = SplittingSpec.from_expressions(CH, ["0.5*v1"])
    with pytest.raises(NotSubducible, match="defining relation fails"):
        subduce(L, wrong)


def test_subduce_exact_quartic():
    L = lag(F1)
    h = induced_splitting(L)
    res = subduce(L, h)
    assert res.y_independence < 1e-12
    rng = np.random.default_rng(32)
    for _ in range(50):
        x, v = rng.uniform(-1.0, 1.0, 2)
        q = np.array([x, v])
        want = 0.5 * v * v - 0.5 * v ** 4
        assert abs(res.Lbar.value(q) - want) < 1e-12
        j = res.Lbar.jet(q)
        assert abs(j.gradient[1] - (v - 2 * v ** 3)) < 1e-10
        assert abs(j.hessian[1 * 2 + 1] - (1 - 6 * v * v)) < 1e-8


def test_subduce_rejects_y_dependence():
    L = lag("0.5*v1^2 + 0.5*w1^2 + y1*v1")
    with pytest.raises(NotSubducible):
        subduce(L, induced_splitting(L))


def test_symmetry_and_tangency_pass_fail_pair():
    Lp = lag(F1)
    hp = induced_splitting(Lp)
    assert symmetry_condition_check(Lp, hp).max_residual < 1e-10
    assert tangency_check(Lp, hp).max_residual < 1e-8

    Lf = lag("0.5*v1^2 + 0.5*w1^2 + y1*v1")
    hf = induced_splitting(Lf)
    sym = symmetry_condition_check(Lf, hf)
    tan = tangency_check(Lf, hf)
    assert sym.max_residual > 0.05
    assert tan.max_residual > 0.05


def test_projection_of_horizontal_solutions():
    L = lag(F1)
    h = induced_splitting(L)
    rep = projection_verify(L, h, (np.array([0.0]), np.array([0.2])),
                            np.array([0.0]), 5.0, 1e-3)
    assert rep.max_base_deviation < 1e-6
    assert rep.horizontality_drift < 1e-6
    assert rep.min_lbar_det > 0.5  # 1 - 6 v^2 stays regular at v ~ 0.2


@pytest.mark.parametrize("T", [0.01, 0.0])
def test_projection_verify_reads_h_once_at_the_start(T):
    # w0 = h(x0, y0, v0) starts the run on h, so row 0's drift gap is 0.0
    # without a second read; T = 0 records that one row alone
    L = lag("0.5*v1^2 + 0.5*(w1 - x1*v1)^2")
    h = SplittingSpec.from_expressions(CH, ["x1*v1"])
    h_values, at_start = h.h_values, []

    def counted(x, y, v):
        at_start.append([*x, *y, *v] == [0.3, 0.1, 0.5])
        return h_values(x, y, v)

    h.h_values = counted
    rep = projection_verify(L, h, ([0.3], [0.5]), [0.1], T, 0.005)
    assert at_start.count(True) == 1
    assert rep.horizontality_drift < 1e-12


def test_homogeneity_hypothesis_reads_L_once_per_sample(kernel_calls):
    # Delta(L) and L come from one jet; the explicit h never reads L
    L = lag("0.5*v1^2 + 0.5*(w1 - x1*v1)^2")
    h = SplittingSpec.from_expressions(CH, ["x1*v1"])
    calls = kernel_calls(L.field)
    homogeneity_of_induced(L, h, samples=5)
    assert calls == {"jet": 5, "value": 0}


def test_liouville_derivative_counts_velocity_degree():
    L2 = lag("0.5*v1^2 + 0.5*w1^2")
    z = np.array([0.3, -0.2, 0.7, 0.4])
    assert abs(liouville_derivative(L2, z) - 2 * L2.field.value(z)) < 1e-12
    L1 = lag("v1 + w1")
    assert abs(liouville_derivative(L1, z) - L1.field.value(z)) < 1e-12


def test_homogeneity_gate_and_euler_residual():
    L3 = lag(F3)
    ok = homogeneity_of_induced(L3, induced_splitting(L3))
    assert ok.max_residual < 1e-7
    L1 = lag(F1)  # cubic coupling breaks degree 2
    h1 = induced_splitting(L1)
    with pytest.raises(HypothesisFailed):
        homogeneity_of_induced(L1, h1)


def test_integrate_sode_state_length_guard():
    sode = euler_lagrange_sode(lag(F1).field)
    with pytest.raises(DimensionMismatch):
        integrate_sode(sode, [0.0, 0.0, 0.5], 0.0, 1.0, 0.1)


def test_subduced_jet_rejects_ill_conditioned_fibre_hessian():
    # cond(L_ww) = 1e14 and L_vw != 0: an unchecked solve returns a
    # Schur complement of size 1e14 instead of failing
    L = LagrangianSpec.from_expression(
        BundleChart(1, 2), "0.5*v1^2 + 0.5*w1^2 + 0.5e-14*w2^2 + v1*w2")

    class StubSplitting:
        def h_values(self, x, y, v):
            return np.zeros(2)

    Lbar = SubducedField(L, StubSplitting(), [0.0, 0.0])
    with pytest.raises(SingularHessian):
        Lbar.jet([0.1, 0.3])
