import numpy as np
import pytest

from fibresplit import _kernels
from fibresplit.errors import (ArityError, DimensionMismatch, DomainError)
from fibresplit.exprs import VarContext, compile_field, parse
from fibresplit.jets import (Jet2, ScalarField, fd_check, jet2_compose,
                             seed_jets)

CTX3 = VarContext([("base", ["a", "b", "c"])])


def field(src):
    return compile_field(parse(src), CTX3, label=src)


def test_jet_variable_and_constant_seeds():
    j = Jet2.variable(2.5, 1, 3)
    assert j.value == 2.5
    assert list(j.gradient) == [0.0, 1.0, 0.0]
    assert not j.hessian.any()
    c = Jet2.constant(7.0, 3)
    assert c.value == 7.0 and not c.gradient.any()


def test_jet_product_rule():
    a, b, _ = seed_jets(np.array([3.0, 4.0, 0.0]))
    p = a * b
    assert p.value == 12.0
    assert list(p.gradient) == [4.0, 3.0, 0.0]
    assert p.hessian[0, 1] == 1.0 and p.hessian[1, 0] == 1.0


def test_jet_quotient_rule():
    a, b, _ = seed_jets(np.array([1.0, 2.0, 0.0]))
    q = a / b
    assert q.value == 0.5
    assert abs(q.gradient[0] - 0.5) < 1e-15
    assert abs(q.gradient[1] + 0.25) < 1e-15
    # d2/db2 (a/b) = 2a/b^3 = 0.25
    assert abs(q.hessian[1, 1] - 0.25) < 1e-15


def test_jet_integer_power_and_type_guard():
    a = Jet2.variable(2.0, 0, 1)
    p = a ** 3
    assert p.value == 8.0 and p.gradient[0] == 12.0 and p.hessian[0, 0] == 12.0
    with pytest.raises(TypeError):
        a ** 0.5


def test_jet_rejects_asymmetric_hessian():
    with pytest.raises(ValueError):
        Jet2(0.0, np.zeros(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_jet_rejects_nonfinite():
    with pytest.raises(DomainError):
        Jet2(np.inf, np.zeros(1), np.zeros((1, 1)))


@pytest.mark.parametrize("x, k", [(np.nan, 1), (np.inf, 3)])
def test_seed_jets_reject_nonfinite_points(x, k):
    with pytest.raises(DomainError, match="non-finite"):
        Jet2.variable(x, 0, k)


def test_trusted_jet_equals_checked_jet():
    f = field("a*sin(b) + c^2*a")
    x = np.array([0.3, -1.2, 0.7])
    val, grad, hess = f._generated()[0](x.tolist())
    got = f.jet(x)
    want = Jet2(val, np.array(grad), np.array(hess).reshape(3, 3))
    assert got.value == want.value
    assert np.array_equal(got.gradient, want.gradient)
    assert np.array_equal(got.hessian, want.hessian)
    for seed, var in zip(seed_jets(x), range(3)):
        ref = Jet2(x[var], np.eye(3)[var], np.zeros((3, 3)))
        assert seed.value == ref.value
        assert np.array_equal(seed.gradient, ref.gradient)
        assert np.array_equal(seed.hessian, ref.hessian)


def test_tape_jet_overflowing_derivative_raises():
    # the value 1e308 is finite; the gradient 2e308 overflows to inf
    # inside the kernel without raising, and the trusted constructor's
    # finiteness check catches it
    f = field("1e308*a^2")
    with pytest.raises(DomainError, match="non-finite"):
        f.jet(np.array([1.0, 0.0, 0.0]))
    assert f.value(np.array([1.0, 0.0, 0.0])) == 1e308


def test_compose_hessian_is_exactly_symmetric():
    rng = np.random.default_rng(5)
    outer = field("a*b*c + sin(a*c) + b^2/(1 + c^2)")
    inner = [field(src) for src in ("a*b + c", "sin(b)*c", "exp(a - c)")]
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, 3)
        h = outer.chain([f.jet(x) for f in inner]).hessian
        assert np.array_equal(h, h.T)


def test_jet_mixed_arity_rejected():
    with pytest.raises(DimensionMismatch):
        Jet2.variable(1.0, 0, 2) + Jet2.variable(1.0, 0, 3)


def test_compose_against_direct_evaluation():
    # F(u, v) = u*v composed with u = a^2, v = a + b
    F = Jet2.variable(4.0, 0, 2) * Jet2.variable(3.0, 1, 2)
    a, b, _ = seed_jets(np.array([2.0, 1.0, 0.0]))
    got = jet2_compose(F, [a * a, a + b])
    direct = field("a^2 * (a + b)").jet(np.array([2.0, 1.0, 0.0]))
    assert abs(got.value - direct.value) < 1e-14
    assert np.abs(got.gradient - direct.gradient).max() < 1e-14
    assert np.abs(got.hessian - direct.hessian).max() < 1e-13


def test_compose_arity_guard():
    F = Jet2.variable(1.0, 0, 2)
    with pytest.raises(ArityError):
        jet2_compose(F, [Jet2.constant(0.0, 1)])


_FUZZ_SOURCES = [
    "sin(a)*cos(b) + exp(0.3*c)",
    "a^3 - 2*a*b + c/(1 + b^2)",
    "log(2 + sin(a)) * sqrt(4 + b^2) + 0.2*c",
    "sqrt(1 + a^2 + b^2) - tan(0.5*c)",
    "exp(sin(a*b)) + cos(c)^2",
    "(a + 2*b - 0.5*c)^4 / (5 + a^2)",
    "abs(2 + a) + exp(-b^2) * log(3 + c)",
    "tan(0.4*a) + b^2*c^2 - 1/(2 + exp(a))",
]


def test_tape_jets_match_reference_algebra():
    # TapeField.jet runs the kernels; .evaluator reruns plain Jet2 algebra
    rng = np.random.default_rng(11)
    for src in _FUZZ_SOURCES:
        f = field(src)
        for _ in range(25):
            x = rng.uniform(-0.9, 0.9, 3)
            fast = f.jet(x)
            ref = f.evaluator(seed_jets(x))
            scale = 1.0 + abs(ref.value)
            assert abs(fast.value - ref.value) < 1e-12 * scale
            assert np.abs(fast.gradient - ref.gradient).max() < 1e-11 * scale
            assert np.abs(fast.hessian - ref.hessian).max() < 1e-10 * scale


# every tape op code, including each integer-power special case and the
# exp(b*log(a)) lowering of a fractional power
_OP_SOURCES = [
    "2*a + 3*b - c + 0.5",
    "a*b*c - (a - b)*(b + c)",
    "a/b + (a*c)/(2 + b^2) - 1/c",
    "-a + -(b*c)",
    "sin(a*b) + cos(b - c) + tan(0.3*c)",
    "exp(a*b) - log(2 + c^2)",
    "sqrt(1 + a^2 + b*c) + abs(a - 2*b)",
    "a^3 + b^-2 + c^0 + (a*b)^1 + (b + c)^2",
    "(1 + a^2)^1.5 + c^b",
]


def test_generated_kernel_matches_jet2_on_every_op():
    ops = set()
    rng = np.random.default_rng(12)
    for src in _OP_SOURCES:
        f = field(src)
        ops |= set(f.code[:, 0].tolist())
        for _ in range(10):
            x = rng.uniform(0.3, 0.9, 3) * rng.choice([-1.0, 1.0], 3)
            x[2] = abs(x[2])  # c^b needs a positive base
            got = f.jet(x)
            ref = f.evaluator(seed_jets(x))
            scale = 1.0 + abs(ref.value)
            assert abs(got.value - ref.value) <= 1e-13 * scale
            assert np.abs(got.gradient - ref.gradient).max() <= 1e-12 * scale
            assert np.abs(got.hessian - ref.hessian).max() <= 1e-11 * scale
            assert (got.hessian == got.hessian.T).all()
            assert f.value(x) == got.value
    assert ops == set(_kernels.OP_NAMES)


def test_generated_kernel_keeps_jet2_arithmetic_exactly():
    # with only correctly rounded operations (no libm transcendentals) the
    # generated code and the Jet2 recurrences must agree to the last bit
    rng = np.random.default_rng(14)
    iu = np.triu_indices(3)
    for src in ["a*b*c - (a - b)*(b + c)", "a/b + (a*c)/(2 + b^2) - 1/c",
                "-a + -(b*c)", "a^3 + b^-2 + c^0 + (a*b)^1 + (b + c)^2",
                "sqrt(1 + a^2 + b*c) + abs(a - 2*b)",
                "(a + 2*b - 0.5*c)^4 / (5 + a^2)",
                "(a^2 + b/c)*(b*c + a^3)*(a - c^2)",
                "(a/b + c^3)/(b^2 + a*c) - (a*b)^-3"]:
        f = field(src)
        for _ in range(20):
            x = rng.uniform(0.3, 0.9, 3)
            got = f.jet(x)
            ref = f.evaluator(seed_jets(x))
            assert got.value == ref.value
            assert (got.gradient == ref.gradient).all()
            assert (got.hessian[iu] == ref.hessian[iu]).all()


@pytest.mark.parametrize("src, x, msg", [
    ("1/a", [0.0, 1.0, 1.0], "division by zero"),
    ("log(a - b)", [1.0, 1.0, 0.0], "log of nonpositive value"),
    ("log(a)", [-3.0, 0.0, 0.0], "log of nonpositive value"),
    ("sqrt(a)", [0.0, 0.0, 0.0], "sqrt of nonpositive value"),
    ("abs(a - 0.5)", [0.5 + 1e-7, 0.0, 0.0],
     "abs argument inside slit radius 1e-06"),
    ("b + a^-2", [0.0, 1.0, 0.0], "zero base with negative exponent"),
    ("exp(800*a^2)", [1.0, 0.0, 0.0], "exp overflow"),
    ("a^400", [1000.0, 0.0, 0.0], "powi overflow"),
])
def test_generated_kernel_domain_errors(src, x, msg):
    f = field(src)
    x = np.array(x)
    for call in (f.jet, f.value):
        with pytest.raises(DomainError) as exc:
            call(x)
        assert str(exc.value) == f"field '{src}': {msg}"
    with pytest.raises(DomainError):
        f.evaluator(seed_jets(x))


def test_generated_kernel_is_lazy_and_kept():
    f = field("a*b + c")
    assert f._kernel is None
    f.value(np.zeros(3))
    kernel = f._kernel
    f.jet(np.ones(3))
    assert f._kernel is kernel


def test_fd_check_confirms_ad_jets():
    rng = np.random.default_rng(13)
    for src in _FUZZ_SOURCES:
        f = field(src)
        rep = fd_check(f, rng.uniform(-0.8, 0.8, 3))
        assert rep.ok, f"{src}: grad {rep.grad_error}, hess {rep.hess_error}"


def test_sqrt_and_abs_slit_domain():
    ctx = VarContext([("base", ["a"])])
    f = compile_field(parse("sqrt(a)"), ctx, slit_eps=1e-6)
    j = f.jet(np.array([4.0]))
    assert j.value == 2.0 and abs(j.gradient[0] - 0.25) < 1e-15
    with pytest.raises(DomainError):
        f.jet(np.array([-1.0]))
    g = compile_field(parse("abs(a)"), ctx, slit_eps=1e-6)
    assert g.jet(np.array([-2.0])).gradient[0] == -1.0
    with pytest.raises(DomainError):
        g.jet(np.array([1e-9]))  # inside the slit radius


def test_division_by_zero_raises():
    f = field("1/a")
    with pytest.raises(DomainError):
        f.jet(np.array([0.0, 1.0, 1.0]))
    with pytest.raises(DomainError):
        f.value(np.array([0.0, 1.0, 1.0]))


def test_log_of_nonpositive_raises():
    f = field("log(a)")
    with pytest.raises(DomainError):
        f.jet(np.array([-3.0, 0.0, 0.0]))


def test_scalar_field_shape_guard():
    f = field("a + b + c")
    with pytest.raises(DimensionMismatch):
        f.jet(np.array([1.0, 2.0]))


def test_scalar_field_chain_matches_substitution():
    outer = field("a*b + c^2")
    inner_src = ["sin(a)", "a*b", "b - c"]
    inners_f = [field(s) for s in inner_src]
    x = np.array([0.7, -0.4, 0.2])
    got = outer.chain([g.jet(x) for g in inners_f])
    direct = field("sin(a)*(a*b) + (b - c)^2").jet(x)
    assert abs(got.value - direct.value) < 1e-14
    assert np.abs(got.gradient - direct.gradient).max() < 1e-13
    assert np.abs(got.hessian - direct.hessian).max() < 1e-12
