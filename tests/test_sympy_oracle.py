"""Tape jets against sympy: a derivative oracle independent of the kernel.

Random expressions come from a hypothesis strategy over the grammar of
gate 15's random ASTs, widened with negation, negative and fractional
powers and general powers.  sympy differentiates the unfolded AST; the
tape is compiled from the constant-folded one.  Points are exact binary
floats, so sympy evaluates the same point to 30 digits; non-integer
constants enter as 53-bit sympy Floats.

Composite fields (the magnetic reduced Lagrangian, the constrained
Lagrangian, compose()) are one tape built by substituting their parts'
ASTs; sympy composes the parts itself and differentiates the result.
"""

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fibresplit.bundle import BundleChart
from fibresplit.errors import DomainError
from fibresplit.exprs import (Bin, Call, Neg, Num, Var, VarContext,
                              compile_field, compose, fold_constants, parse,
                              variables)
from fibresplit.jets import SLIT_EPS_DEFAULT, seed_jets
from fibresplit.lagrangian import (LagrangianSpec, euler_lagrange_sode,
                                   induced_splitting, subduce)
from fibresplit.nonholonomic import (AffineConstraintSpec,
                                     ConstrainedLagrangianField,
                                     ConstrainedSystem)
from fibresplit.reduction import (ActionSpec, MagneticModel, MagneticSystem,
                                  reduced_base_lagrangian, unreduce)
from fibresplit.splitting import (SplittingSpec,
                                  affine_curvature_coefficients)

NAMES = ("a", "b")
CTX = VarContext([("base", list(NAMES))])
SYMS = sympy.symbols(NAMES, real=True)
FUNCS = ("sin", "cos", "exp", "sqrt", "abs", "log", "tan")
EPS = SLIT_EPS_DEFAULT
TOL = 1e-8

_SYMPY_FN = {"sin": sympy.sin, "cos": sympy.cos, "tan": sympy.tan,
             "exp": sympy.exp, "log": sympy.log, "sqrt": sympy.sqrt}


def _power(base, exponent):
    return Bin("^", base, Num(float(exponent)))


def _extend(children):
    return st.one_of(
        st.builds(lambda fn, u: Call(fn, (u,)), st.sampled_from(FUNCS),
                  children),
        st.builds(Neg, children),
        st.builds(Bin, st.sampled_from("+-*/"), children, children),
        st.builds(_power, children, st.integers(-3, 4)),
        st.builds(_power, children, st.sampled_from([0.5, 1.5, -0.5])),
        st.builds(lambda u, v: Bin("^", u, v), children, children),
    )


# gate 15's leaves: a constant in [0, 5] to 3 decimals, or a variable
asts = st.recursive(
    st.one_of(st.floats(0.0, 5.0).map(lambda v: Num(round(v, 3))),
              st.sampled_from(NAMES).map(Var)),
    _extend, max_leaves=8)

# coordinates away from 0, where negative powers of a variable cancel
# catastrophically; test_slit_edges goes right up to the origin
coords = st.floats(0.05, 2.0) | st.floats(-2.0, -0.05)


def to_sympy(node, at):
    """sympy expression of the AST, valid near the point `at`.

    abs(u) becomes +u or -u by the sign of u at the point: away from the
    slit that is the same function there, and it keeps sympy's derivatives
    of Abs (which assume u may be complex) out of the oracle.
    """
    if isinstance(node, Num):
        # a Float keeps sympy from factoring rational powers of constants
        v = node.value
        return sympy.Integer(int(v)) if v.is_integer() else sympy.Float(v)
    if isinstance(node, Var):
        return sympy.Symbol(node.name, real=True)
    if isinstance(node, Neg):
        return -to_sympy(node.arg, at)
    if isinstance(node, Call):
        u = to_sympy(node.args[0], at)
        if node.fn == "abs":
            return u if sympy.re(u.evalf(30, subs=at)) > 0 else -u
        return _SYMPY_FN[node.fn](u)
    left, right = to_sympy(node.left, at), to_sympy(node.right, at)
    return {"+": lambda: left + right, "-": lambda: left - right,
            "*": lambda: left * right, "/": lambda: left / right,
            "^": lambda: left ** right}[node.op]()


def sympy_jet(node, x, names=NAMES):
    """Value, gradient and Hessian at x, to 30 digits, of an AST or of a
    sympy expression in the variables `names`."""
    syms = [sympy.Symbol(name, real=True) for name in names]
    at = {s: sympy.Rational(v) for s, v in zip(syms, x)}
    expr = node if isinstance(node, sympy.Expr) else to_sympy(node, at)

    def num(e):
        return complex(e.evalf(30, subs=at))

    k = len(syms)
    grad = [sympy.diff(expr, s) for s in syms]
    hess = [[sympy.diff(grad[i], syms[j]) for j in range(k)]
            for i in range(k)]
    return (num(expr), np.array([num(g) for g in grad]),
            np.array([[num(h) for h in row] for row in hess]))


def assert_close(got, ref, what):
    ref = np.asarray(ref)
    assert np.all(np.abs(ref.imag) <= TOL), f"{what}: complex oracle {ref}"
    ref = ref.real
    scale = 1.0 + np.abs(ref).max()
    err = np.abs(np.asarray(got) - ref).max()
    assert err <= TOL * scale, f"{what}: {got} vs {ref}"


def check_against_sympy(node, x):
    f = compile_field(node, CTX)
    x = np.array(x)
    try:
        got = f.jet(x)
    except DomainError:
        # outside the domain: the Jet2 oracle must refuse the point too
        with pytest.raises(DomainError):
            f.evaluator(seed_jets(x))
        return False
    assert_jet_matches(got, sympy_jet(node, x))
    return True


def assert_jet_matches(got, ref):
    # tape jets mirror their upper triangle; jet2_compose symmetrizes
    k = len(got.gradient)
    hessian = np.reshape(got.hessian, (k, k))
    assert (hessian == hessian.T).all()
    value, grad, hess = ref
    assert_close(got.value, value, "value")
    assert_close(got.gradient, grad, "gradient")
    assert_close(hessian, hess, "hessian")


@settings(derandomize=True, max_examples=150, deadline=None,
          database=None)
@given(asts, st.tuples(coords, coords))
def test_random_expressions_match_sympy(node, x):
    check_against_sympy(node, x)


@pytest.mark.parametrize("src", [
    "abs(a)", "sqrt(a)", "abs(a - b)*b", "sqrt(a^2 - b)", "b*abs(a)^3"])
@pytest.mark.parametrize("offset", [0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_slit_edges(src, offset, sign):
    # the slit rejects |u| < eps and accepts |u| >= eps, exactly
    a = sign * EPS * offset
    node = parse(src)
    inner = {"abs(a)": a, "sqrt(a)": a, "abs(a - b)*b": a - 0.5,
             "sqrt(a^2 - b)": a * a - 0.5, "b*abs(a)^3": a}[src]
    evaluated = check_against_sympy(node, [a, 0.5])
    if "abs" in src:
        assert evaluated == (abs(inner) >= EPS)
    else:
        assert evaluated == (inner > 0.0)


@pytest.mark.parametrize("src", [
    "a^3 - b^4", "a^-1 + b^-3", "(a*b)^-2", "(a + b)^0 + a^1",
    "a^0.5 + b^1.5", "(1 + a^2)^-0.5", "(2 + sin(a))^b", "b^(1/3)"])
def test_integer_and_fractional_powers(src):
    for x in ([0.7, 1.3], [-0.4, 0.9], [1.7, 0.2]):
        check_against_sympy(parse(src), x)


@pytest.mark.parametrize("src", [
    "2^3^2*a", "sin(0.5)*a + exp(1)/b", "(3 - 3)*a + b", "-(2)^2*a^2",
    "log(2)^-1*b", "sqrt(4)^3 + a/(1 + 1)", "(0.5^-2)*a*b"])
def test_constant_folding_preserves_jets(src):
    node = parse(src)
    assert fold_constants(node) != node
    for x in ([0.7, 1.3], [-0.4, 0.9]):
        assert check_against_sympy(node, x)


def _sym(src):
    """sympy expression of abs-free source text."""
    return to_sympy(parse(src), {})


def _syms(prefix, k):
    return [sympy.Symbol(f"{prefix}{i+1}", real=True) for i in range(k)]


def test_reduced_base_lagrangian_matches_sympy():
    g = [["exp(x1)", "0.3*x2"], ["0.3*x2", "2 + sin(x1*x2)"]]
    V, A = "x1^3 - x2", ["sin(x1)", "x1*x2^2"]
    Lbar = reduced_base_lagrangian(MagneticModel.from_expressions(
        2, 1, g=g, V=V, A_base=A))
    v = _syms("v", 2)
    ref = (sum(_sym(g[i][j]) * v[i] * v[j] for i in range(2)
               for j in range(2)) / 2
           - _sym(V) + sum(_sym(A[i]) * v[i] for i in range(2)))
    for x in ([0.7, -0.4, 1.3, 0.9], [-0.5, 0.25, -1.1, 0.6]):
        assert_jet_matches(Lbar.jet(np.array(x)),
                           sympy_jet(ref, x, ("x1", "x2", "v1", "v2")))


def test_constrained_lagrangian_matches_sympy():
    chart = BundleChart(2, 2)
    src = "0.5*(v1^2 + v2^2 + w1^2) + w2^2*(1 + x1^2)/2 + y1*w1*v2 - cos(y2)"
    A = [["x1*y2", "sin(y1)"], ["0.5", "x2 - y1^2"]]
    A0 = ["exp(x2)*y2", "x1*y1"]
    Lc = ConstrainedLagrangianField(
        LagrangianSpec.from_expression(chart, src),
        AffineConstraintSpec.from_expressions(chart, A, A0))
    v, w = _syms("v", 2), _syms("w", 2)
    ref = _sym(src).subs({w[a]: _sym(A0[a]) - sum(
        _sym(A[a][i]) * v[i] for i in range(2)) for a in range(2)},
        simultaneous=True)
    names = ("x1", "x2", "y1", "y2", "v1", "v2")
    for s in ([0.7, -0.4, 0.3, 1.1, -0.9, 0.6],
              [-0.5, 0.25, -1.2, 0.4, 0.8, -1.3]):
        assert_jet_matches(Lc.jet(np.array(s)), sympy_jet(ref, s, names))


@settings(derandomize=True, max_examples=150, deadline=None,
          database=None)
@given(asts, st.tuples(coords, coords))
def test_recompiled_ast_reproduces_the_jet(node, x):
    f = compile_field(node, CTX)
    g = compile_field(f.ast, CTX)
    x = np.array(x)
    try:
        want = f.jet(x)
    except DomainError:
        with pytest.raises(DomainError):
            g.jet(x)
        return
    got = g.jet(x)
    assert got.value == want.value
    assert np.array_equal(got.gradient, want.gradient)
    assert np.array_equal(got.hessian, want.hessian)


@settings(derandomize=True, max_examples=150, deadline=None,
          database=None)
@given(asts, st.tuples(coords, coords))
def test_jet_lists_equal_the_jet_bit_for_bit(node, x):
    f = compile_field(node, CTX)
    try:
        want = f.jet(np.array(x))
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            f.jet_lists(list(x))
        assert str(got.value) == str(exc)
        return
    value, grad, hess = f.jet_lists(list(x))
    assert np.float64(value).tobytes() == np.float64(want.value).tobytes()
    assert np.array(grad).tobytes() == np.array(want.gradient).tobytes()
    assert np.array(hess).tobytes() == np.array(want.hessian).tobytes()


def test_named_constants_compose():
    # pi and a user constant become numbers in the AST, so the field
    # composes over a context that names neither
    ctx = VarContext([("base", list(NAMES))], {"kappa": 2.5})
    f = compile_field("kappa*sin(pi*a) + b/kappa", ctx)
    assert variables(f.ast) == {"a", "b"}
    F = compose("F*b + F^2", {"F": f}, CTX, "composite")
    a, b = SYMS
    inner = 2.5 * sympy.sin(sympy.pi * a) + b / 2.5
    for x in ([0.7, 1.3], [-0.4, 0.9]):
        assert_jet_matches(F.jet(np.array(x)),
                           sympy_jet(inner * b + inner ** 2, x))


# ---------------------------------------------------------------------------
# Right-hand sides against sympy.  Each one is derived from its principle
# with sympy, from the expressions the model is built of: the unknown
# accelerations are symbols, time derivatives are total derivatives along
# the state's rates, and the resulting equations, linear in the unknowns,
# are solved at seeded states.


def _eval(expr, at):
    return float(sympy.sympify(expr).evalf(30, subs=at))


def _ddt(expr, rates):
    """Total time derivative of expr along rates {symbol: rate}."""
    return sum(sympy.diff(expr, s) * r for s, r in rates.items())


def _solve_linear(eqs, unknowns, at):
    """The unknowns at which the equations, linear in them, vanish at the
    point `at`; 30-digit coefficients, solved in float."""
    zero = dict.fromkeys(unknowns, 0)
    M = [[_eval(sympy.diff(e, u), at) for u in unknowns] for e in eqs]
    r = [-_eval(e.subs(zero), at) for e in eqs]
    return np.linalg.solve(np.array(M), np.array(r))


def _states(seed, k, count=2, box=0.8):
    return np.random.default_rng(seed).uniform(-box, box, (count, k))


def _at(syms, z):
    return {s: sympy.Rational(float(c)) for s, c in zip(syms, z)}


def _grid(sources):
    """sympy expressions of a nested list of abs-free sources."""
    if isinstance(sources, str):
        return _sym(sources)
    return [_grid(s) for s in sources]


_EL_CASES = [
    (1, 1, "0.5*v1^2*(2 + sin(y1)) + 0.5*w1^2 + 0.3*x1*v1*w1 - cos(x1)*y1"),
    (2, 1, "0.5*(1 + x2^2)*v1^2 + 0.5*v2^2 + 0.5*w1^2*exp(0.2*x1)"
           " + 0.2*v1*w1*y1 + x1*v2 - y1^2*x2"),
    (3, 2, "0.5*(v1^2 + v2^2 + v3^2) + 0.25*v1*v2*sin(x3)"
           " + 0.5*(2 + cos(y1))*w1^2 + 0.5*w2^2 + 0.1*w1*w2*x1"
           " + 0.2*v3*w2*y2 + x2*v1 - y1*y2*x3 + w1*x1^2"),
]


@pytest.mark.parametrize("n, m, src", _EL_CASES,
                         ids=["1x1", "2x1", "3x2"])
def test_euler_lagrange_acceleration_matches_sympy(n, m, src):
    # d/dt dL/du - dL/dq = 0, solved for the acceleration
    L = LagrangianSpec.from_expression(BundleChart(n, m), src)
    force = euler_lagrange_sode(L.field).force
    q = _syms("x", n) + _syms("y", m)
    u = _syms("v", n) + _syms("w", m)
    acc = _syms("a", n + m)
    ell = _sym(src)
    rates = dict(zip(q + u, u + acc))
    eqs = [_ddt(sympy.diff(ell, ui), rates) - sympy.diff(ell, qi)
           for qi, ui in zip(q, u)]
    for z in _states(n + 10 * m, 2 * (n + m)):
        assert_close(force(z[:n + m], z[n + m:]),
                     _solve_linear(eqs, acc, _at(q + u, z)), "acceleration")


_LDA_CASES = [
    (1, 1, "0.5*v1^2 + 0.5*w1^2*(1 + 0.5*y1^2) + 0.3*w1*v1 - x1*y1",
     [["sin(y1) + 0.5*x1"]], ["x1*y1 + 0.2"]),
    (2, 1, "0.5*(v1^2 + v2^2 + w1^2) + 0.1*x1*w1*v2 - 0.5*y1^2",
     [["0.3*y1", "-x1"]], ["0.5*x2 + 0.2*y1^2"]),
    (3, 2, "0.5*(v1^2 + v2^2 + v3^2 + w1^2) + 0.5*w2^2*(1 + x1^2)"
           " + y1*w1*v2 - cos(y2) + 0.2*w2*v3",
     [["x1*y2", "sin(y1)", "0.5*x3"], ["0.5", "x2 - y1^2", "y2*x1"]],
     ["exp(x2)*y2", "x1*y1 + x3"]),
]


@pytest.mark.parametrize("n, m, src, A, A0", _LDA_CASES,
                         ids=["1x1", "2x1", "3x2"])
def test_lagrange_dalembert_rhs_matches_sympy(n, m, src, A, A0):
    # virtual displacements dy = -A dx: E_x(L) - A^T E_y(L) = 0 on
    # w = A0 - A v, with dw/dt the total derivative of the constraint
    chart = BundleChart(n, m)
    c = AffineConstraintSpec.from_expressions(chart, A, A0)
    system = ConstrainedSystem(
        LagrangianSpec.from_expression(chart, src), c)
    x, y, v, w = (_syms("x", n), _syms("y", m), _syms("v", n),
                  _syms("w", m))
    acc = _syms("a", n)
    As, A0s = _grid(A), _grid(A0)
    w_of = [A0s[a] - sum(As[a][i] * v[i] for i in range(n))
            for a in range(m)]
    on = dict(zip(w, w_of))
    ell = _sym(src)
    rates = dict(zip(x + y + v, v + w_of + acc))

    def euler(qi, ui):
        return (_ddt(sympy.diff(ell, ui).subs(on, simultaneous=True), rates)
                - sympy.diff(ell, qi).subs(on, simultaneous=True))

    Ey = [euler(y[a], w[a]) for a in range(m)]
    eqs = [euler(x[i], v[i]) - sum(As[a][i] * Ey[a] for a in range(m))
           for i in range(n)]
    B, A0d = affine_curvature_coefficients(c, [0.3] * n, [-0.4] * m)
    if n > 1:
        assert np.abs(B).max() > 0.1
    assert np.abs(A0d).max() > 0.1
    for s in _states(n + 10 * m, 2 * n + m):
        at = _at(x + y + v, s)
        rhs = system.rhs(0.0, s)
        assert np.array_equal(rhs[:n], s[n + m:])
        assert_close(rhs[n:n + m], [_eval(e, at) for e in w_of], "ydot")
        assert_close(rhs[n + m:], _solve_linear(eqs, acc, at), "vdot")


_MAGNETIC_CASES = [
    (2, 1, dict(g=[["1 + 0.5*x1^2", "0.2*x2"], ["0.2*x2", "2"]],
                V="x1*x2", A_base=["x2", "-x1^2"], A_fibre=["sin(x1)*x2"],
                upsilon=[[["0.3*x1"], ["x2"]]],
                Kcurv=[[["0", "x1 + 1"], ["-x1 - 1", "0"]]])),
    (3, 2, dict(g=[["2", "0.1*x3", "0"], ["0.1*x3", "1 + x1^2", "0"],
                   ["0", "0", "exp(x2)"]],
                k=[[2.0, 0.5], [0.5, 1.0]], V="x1^2 - x2*x3",
                A_base=["x3", "sin(x1)", "x1*x2"],
                A_fibre=["x1*x3", "cos(x2)"],
                upsilon=[[["x1", "0.5"], ["0", "x2"], ["x3", "0.2"]],
                         [["0.3", "x2*x3"], ["x1", "0"], ["1", "-x3"]]],
                Kcurv=[[["0", "x2", "1"], ["-x2", "0", "x1"],
                        ["-1", "-x1", "0"]],
                       [["0", "0.5", "x3"], ["-0.5", "0", "0"],
                        ["-x3", "0", "0"]]])),
    # so(3): nonzero structure constants, bi-invariant for k = 1
    (2, 3, dict(g=[["1 + x2^2", "0"], ["0", "1.5"]], V="cos(x1)",
                A_base=["x2", "0"], A_fibre=["x1", "x2^2", "x1*x2"],
                upsilon=[[["x1", "0", "0.5"], ["0", "x2", "0"]],
                         [["0.3", "x1*x2", "0"], ["x2", "0", "1"]],
                         [["0", "0", "x1"], ["0.2", "x1", "0"]]],
                Kcurv=[[["0", "x1"], ["-x1", "0"]],
                       [["0", "1"], ["-1", "0"]],
                       [["0", "x2"], ["-x2", "0"]]],
                C=[[[0, 0, 0], [0, 0, 1], [0, -1, 0]],
                   [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
                   [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]])),
]


@pytest.mark.parametrize("n, m, data", _MAGNETIC_CASES,
                         ids=["2x1", "3x2", "2x3-so3"])
def test_magnetic_rhs_matches_sympy(n, m, data):
    # Lagrange-Poincare equations of l = g v v/2 + k wb wb/2 - V + A v
    # + A_fibre wb with p = dl/dwb:
    #   d/dt dl/dv - dl/dx = (-Kcurv v + Upsilon wb)^T p
    #   dp/dt = (Upsilon^T v + C wb)^T p
    model = MagneticModel.from_expressions(n, m, **data)
    system = MagneticSystem(model)
    x, v, wb = _syms("x", n), _syms("v", n), _syms("wb", m)
    acc, wacc = _syms("a", n), _syms("b", m)
    g, U, Kc = _grid(data["g"]), _grid(data["upsilon"]), _grid(data["Kcurv"])
    k = np.eye(m) if "k" not in data else data["k"]
    C = np.zeros((m, m, m)) if "C" not in data else data["C"]
    ell = (sum(g[i][j] * v[i] * v[j] for i in range(n)
               for j in range(n)) / 2
           + sum(sympy.Float(k[a][b]) * wb[a] * wb[b] for a in range(m)
                 for b in range(m)) / 2
           - _sym(data["V"])
           + sum(_sym(s) * vi for s, vi in zip(data["A_base"], v))
           + sum(_sym(s) * wa for s, wa in zip(data["A_fibre"], wb)))
    p = [sympy.diff(ell, wa) for wa in wb]
    rates = dict(zip(x + v + wb, v + acc + wacc))
    eqs = [_ddt(sympy.diff(ell, v[i]), rates) - sympy.diff(ell, x[i])
           - sum(p[a] * (-sum(Kc[a][i][j] * v[j] for j in range(n))
                         + sum(U[a][i][b] * wb[b] for b in range(m)))
                 for a in range(m))
           for i in range(n)]
    eqs += [_ddt(p[a], rates)
            - sum(p[b] * (sum(U[b][i][a] * v[i] for i in range(n))
                          + sum(int(C[b][a][c]) * wb[c] for c in range(m)))
                  for b in range(m))
            for a in range(m)]
    for s in _states(n + 10 * m, 2 * n + m):
        rhs = system.rhs(0.0, s)
        assert np.array_equal(rhs[:n], s[n:2 * n])
        want = _solve_linear(eqs, acc + wacc, _at(x + v + wb, s))
        assert_close(rhs[n:2 * n], want[:n], "vdot")
        assert_close(rhs[2 * n:], want[n:], "wbdot")


_UNREDUCE_CASES = [
    (1, 1, "0.5*(1 + 0.5*x1^2)*v1^2 - cos(x1)", ["x1*v1 + y1*v1^2"],
     [["2 + sin(x1)*y1"]]),
    (2, 1, "0.5*(v1^2 + (2 + x1^2)*v2^2) + x2*v1",
     ["v1*y1 - x2*v2 + 0.1*v1^2"], [["1.5 + x1*y1"]]),
    (3, 2, "0.5*(v1^2 + v2^2 + v3^2) + 0.2*x1*v2*v3 - x3^2",
     ["y1*v1 + x2*v3", "v2*y2 - 0.5*v1^2*x3"],
     [["2 + y1*x1", "0.3*y2"], ["0.2*x3", "1.5 + sin(y2)"]]),
]


@pytest.mark.parametrize("n, m, Lbar, h, K", _UNREDUCE_CASES,
                         ids=["1x1", "2x1", "3x2"])
def test_unreduced_force_matches_sympy(n, m, Lbar, h, K):
    # the base moves by the EL field of Lbar; the fibre velocity keeps the
    # frame components K^-1 (w - h(x, y, v)) of its vertical part constant
    chart = BundleChart(n, m)
    x, y, v, w = (_syms("x", n), _syms("y", m), _syms("v", n),
                  _syms("w", m))
    base_ctx = VarContext([("base", chart.x_names),
                           ("base_velocity", chart.v_names)])
    G = unreduce(euler_lagrange_sode(compile_field(Lbar, base_ctx)),
                 SplittingSpec.from_expressions(chart, h),
                 ActionSpec.from_expressions(chart, K), check=False)
    acc, wacc = _syms("a", n), _syms("b", m)
    ell = _sym(Lbar)
    base_rates = dict(zip(x + v, v + acc))
    base_eqs = [_ddt(sympy.diff(ell, v[i]), base_rates)
                - sympy.diff(ell, x[i]) for i in range(n)]
    omega = sympy.Matrix(_grid(K)).inv() * sympy.Matrix(
        [w[a] - _sym(h[a]) for a in range(m)])
    for z in _states(n + 10 * m, 2 * (n + m)):
        at = _at(x + y + v + w, z)
        f = _solve_linear(base_eqs, acc, at)
        rates = dict(zip(x + y + v + w,
                         v + w + [sympy.Rational(float(c)) for c in f]
                         + wacc))
        wdot = _solve_linear([_ddt(o, rates) for o in omega], wacc, at)
        got = G.force(z[:n + m], z[n + m:])
        assert_close(got[:n], f, "base acceleration")
        assert_close(got[n:], wdot, "wdot")


_SUBDUCED_CASES = [
    # dL/dw = 0 pins w = -c v^2
    (1, "0.5*v1^2 + 0.5*w1^2 + 0.75*w1*v1^2 - 0.6*x1^2",
     "-0.75*v1^2"),
    # dL/dw = 0 pins w = x1 v1 + sin(x2) v2 + 0.3 x1
    (2, "0.5*(v1^2 + (1 + x2^2)*v2^2) - cos(x1)"
        " + 0.5*(w1 - x1*v1 - sin(x2)*v2 - 0.3*x1)^2",
     "x1*v1 + sin(x2)*v2 + 0.3*x1"),
]


@pytest.mark.parametrize("n, src, h", _SUBDUCED_CASES, ids=["1x1", "2x1"])
def test_subduced_acceleration_matches_sympy(n, src, h):
    # L restricted to its induced splitting w = h(x, v) drops to the
    # base; its EL acceleration is that of the subduced Lagrangian
    L = LagrangianSpec.from_expression(BundleChart(n, 1), src)
    Lbar = subduce(L, induced_splitting(L), samples=10).Lbar
    force = euler_lagrange_sode(Lbar).force
    x, v, acc = _syms("x", n), _syms("v", n), _syms("a", n)
    ell = _sym(src).subs(sympy.Symbol("w1", real=True), _sym(h))
    rates = dict(zip(x + v, v + acc))
    eqs = [_ddt(sympy.diff(ell, v[i]), rates) - sympy.diff(ell, x[i])
           for i in range(n)]
    for s in _states(n, 2 * n, box=0.3):
        assert_close(force(s[:n], s[n:]), _solve_linear(eqs, acc,
                                                        _at(x + v, s)),
                     "subduced acceleration")
