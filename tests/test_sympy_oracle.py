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
from fibresplit.lagrangian import LagrangianSpec
from fibresplit.nonholonomic import (AffineConstraintSpec,
                                     constrained_lagrangian)
from fibresplit.reduction import MagneticModel, reduced_base_lagrangian

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
    assert (got.hessian == got.hessian.T).all()
    value, grad, hess = ref
    assert_close(got.value, value, "value")
    assert_close(got.gradient, grad, "gradient")
    assert_close(got.hessian, hess, "hessian")


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
    Lc = constrained_lagrangian(
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
