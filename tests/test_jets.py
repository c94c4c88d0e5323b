import math

import numpy as np
import pytest
from derivative_check import fd_check

from fibresplit import _kernels
from fibresplit.errors import (ArityError, DimensionMismatch, DomainError)
from fibresplit.exprs import VarContext, compile_field, parse
from fibresplit.jets import Jet2, ScalarField, jet2_compose, seed_jets
from fibresplit.numerics import max_gap

CTX3 = VarContext([("base", ["a", "b", "c"])])


def field(src):
    return compile_field(parse(src), CTX3, label=src)


def test_jet_variable_and_constant_seeds():
    j = Jet2.variable(2.5, 1, 3)
    assert j.value == 2.5
    assert j.gradient == [0.0, 1.0, 0.0]
    assert j.hessian == [0.0] * 9
    c = Jet2.constant(7.0, 3)
    assert c.value == 7.0 and c.gradient == [0.0] * 3


def test_jet_product_rule():
    a, b, _ = seed_jets(np.array([3.0, 4.0, 0.0]))
    p = a * b
    assert p.value == 12.0
    assert p.gradient == [4.0, 3.0, 0.0]
    assert p.hessian[0 * 3 + 1] == 1.0 and p.hessian[1 * 3 + 0] == 1.0


def test_jet_quotient_rule():
    a, b, _ = seed_jets(np.array([1.0, 2.0, 0.0]))
    q = a / b
    assert q.value == 0.5
    assert abs(q.gradient[0] - 0.5) < 1e-15
    assert abs(q.gradient[1] + 0.25) < 1e-15
    # d2/db2 (a/b) = 2a/b^3 = 0.25
    assert abs(q.hessian[1 * 3 + 1] - 0.25) < 1e-15


def test_jet_integer_power_and_type_guard():
    a = Jet2.variable(2.0, 0, 1)
    p = a ** 3
    assert p.value == 8.0 and p.gradient == [12.0] and p.hessian == [12.0]
    with pytest.raises(TypeError):
        a ** 0.5


def test_jet_rejects_asymmetric_hessian():
    with pytest.raises(ValueError):
        Jet2(0.0, [0.0, 0.0], [0.0, 1.0, 0.0, 0.0])
    # symmetric to 1e-12 relative passes, and the entries are kept
    j = Jet2(0.0, [0.0, 0.0], [1.0, 1.0, 1.0 + 1e-13, 1.0])
    assert j.hessian == [1.0, 1.0, 1.0 + 1e-13, 1.0]


def test_jet_is_lists_in_row_order():
    j = Jet2(1, (2, 3), [4, 5, 5, 6])
    assert (j.value, j.gradient, j.hessian) == (1.0, [2.0, 3.0],
                                                [4.0, 5.0, 5.0, 6.0])
    assert {type(e) for e in [j.value, *j.gradient, *j.hessian]} == {float}
    assert j.arity == 2
    # a k x k nested Hessian, or one of the wrong length, is refused
    for hess in ([[4.0, 5.0], [5.0, 6.0]], [4.0, 5.0, 5.0]):
        with pytest.raises(DimensionMismatch):
            Jet2(1.0, [2.0, 3.0], hess)


def test_jet_rejects_nonfinite():
    with pytest.raises(DomainError):
        Jet2(np.inf, [0.0], [0.0])


@pytest.mark.parametrize("x, k", [(np.nan, 1), (np.inf, 3)])
def test_seed_jets_reject_nonfinite_points(x, k):
    with pytest.raises(DomainError, match="non-finite"):
        Jet2.variable(x, 0, k)


def test_trusted_jet_equals_checked_jet():
    f = field("a*sin(b) + c^2*a")
    x = np.array([0.3, -1.2, 0.7])
    val, grad, hess = f._generated()[0](x.tolist())
    got = f.jet(x)
    want = Jet2(val, grad, hess)
    assert (got.value, got.gradient, got.hessian) == \
        (want.value, want.gradient, want.hessian)
    for seed, var in zip(seed_jets(x), range(3)):
        ref = Jet2(x[var], np.eye(3)[var], np.zeros(9))
        assert (seed.value, seed.gradient, seed.hessian) == \
            (ref.value, ref.gradient, ref.hessian)


def test_tape_jet_overflowing_derivative_raises():
    # the value 1e308 is finite; the gradient 2e308 overflows to inf
    # inside the kernel without raising, and the trusted constructor's
    # finiteness check catches it
    f = field("1e308*a^2")
    for call in (f.jet, f.jet_lists):
        with pytest.raises(DomainError) as exc:
            call(np.array([1.0, 0.0, 0.0]))
        assert str(exc.value) == "jet has non-finite entries"
    assert f.value(np.array([1.0, 0.0, 0.0])) == 1e308


def test_compose_hessian_is_exactly_symmetric():
    rng = np.random.default_rng(5)
    outer = field("a*b*c + sin(a*c) + b^2/(1 + c^2)")
    inner = [field(src) for src in ("a*b + c", "sin(b)*c", "exp(a - c)")]
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, 3)
        h = np.reshape(outer.chain([f.jet(x) for f in inner]).hessian, (3, 3))
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
    assert max_gap(got.gradient, direct.gradient) < 1e-14
    assert max_gap(got.hessian, direct.hessian) < 1e-13


def _compose_reference(outer, inners):
    """The chain rule as plain loops: every sum from 0.0 in index order,
    (G^T F'') first and then times G, F'_a times each inner Hessian added
    in order, and the result averaged with its transpose, halved first."""
    K, k = outer.arity, inners[0].arity
    G = [jet.gradient for jet in inners]
    grad = []
    for i in range(k):
        s = 0.0
        for a in range(K):
            s += outer.gradient[a] * G[a][i]
        grad.append(s)
    gth = [[0.0] * K for _ in range(k)]
    for i in range(k):
        for b in range(K):
            for a in range(K):
                gth[i][b] += G[a][i] * outer.hessian[a * K + b]
    hess = [0.0] * (k * k)
    for i in range(k):
        for j in range(k):
            for b in range(K):
                hess[i * k + j] += gth[i][b] * G[b][j]
    for a, jet in enumerate(inners):
        hess = [h + outer.gradient[a] * e for h, e in zip(hess, jet.hessian)]
    half = [0.5 * h for h in hess]
    return grad, [half[i * k + j] + half[j * k + i]
                  for i in range(k) for j in range(k)]


def test_compose_sums_in_index_order_bit_for_bit():
    # zero gradient and Hessian entries (seeds, constants) are skipped by
    # jet2_compose; skipping them must not change a single bit
    rng = np.random.default_rng(15)
    outer = field("a*b*c + sin(a*c) + b^2/(1 + c^2)")
    inner = [field(src) for src in ("a*b + c", "sin(b)*c", "exp(a - c)")]
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, 3)
        for inners in ([f.jet(x) for f in inner],
                       [inner[0].jet(x), *seed_jets(x)[1:]],
                       [Jet2.constant(0.5, 3), *seed_jets(x)[:2]]):
            at = [j.value for j in inners]
            got = jet2_compose(outer.jet(at), inners)
            grad, hess = _compose_reference(outer.jet(at), inners)
            assert np.array(got.gradient).tobytes() == \
                np.array(grad).tobytes()
            assert np.array(got.hessian).tobytes() == \
                np.array(hess).tobytes()


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
            assert max_gap(fast.gradient, ref.gradient) < 1e-11 * scale
            assert max_gap(fast.hessian, ref.hessian) < 1e-10 * scale


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
        ops |= {row[0] for row in f.code}
        for _ in range(10):
            x = rng.uniform(0.3, 0.9, 3) * rng.choice([-1.0, 1.0], 3)
            x[2] = abs(x[2])  # c^b needs a positive base
            got = f.jet(x)
            ref = f.evaluator(seed_jets(x))
            scale = 1.0 + abs(ref.value)
            assert abs(got.value - ref.value) <= 1e-13 * scale
            assert max_gap(got.gradient, ref.gradient) <= 1e-12 * scale
            assert max_gap(got.hessian, ref.hessian) <= 1e-11 * scale
            hess = np.reshape(got.hessian, (3, 3))
            assert (hess == hess.T).all()
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
            assert got.gradient == ref.gradient
            assert (np.reshape(got.hessian, (3, 3))[iu]
                    == np.reshape(ref.hessian, (3, 3))[iu]).all()


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
    # a list of ints runs in floats: 10**400 as an exact int would pass
    # the kernel's overflow check
    ("a^400", [10, 0, 0], "powi overflow"),
])
def test_generated_kernel_domain_errors(src, x, msg):
    f = field(src)
    for call in (f.jet, f.jet_lists, f.value):
        for point in (np.array(x), x):
            with pytest.raises(DomainError) as exc:
                call(point)
            assert str(exc.value) == f"field '{src}': {msg}"
    with pytest.raises(DomainError):
        f.evaluator(seed_jets(np.array(x, dtype=float)))


def test_tape_value_is_the_kernels_float():
    f = field("a*b + exp(c)")
    for x in ([0.5, 2.0, 0.0], np.array([0.5, 2.0, 0.0]), [1, 1, 0]):
        value = f.value(x)
        assert type(value) is float
        assert value == f.jet_lists(x)[0] == 2.0


def test_generated_kernel_is_lazy_and_kept():
    f = field("a*b + c")
    assert f._kernel is None
    f.value(np.zeros(3))
    kernel = f._kernel
    f.jet(np.ones(3))
    assert f._kernel is kernel


def test_one_generated_kernel_per_tape():
    _kernels._generate.cache_clear()
    f, g = field("a*b + exp(c)"), field("a*b + exp(c)")
    assert f._generated() is g._generated()
    assert _kernels._generate.cache_info().misses == 1
    # a signed zero, a label or a slit radius is part of the source
    pos, neg = (compile_field(parse(src), CTX3, label="z")
                for src in ("0.0*a", "-0.0*a"))
    signs = [math.copysign(1.0, h.value([1.0, 0.0, 0.0])) for h in (pos, neg)]
    assert pos._generated() is not neg._generated() and signs == [1.0, -1.0]
    for label in ("p", "q"):
        with pytest.raises(DomainError,
                           match=f"^field '{label}': division by zero$"):
            compile_field(parse("1/a"), CTX3, label=label).value([0.0] * 3)
    wide, narrow = (compile_field(parse("abs(a)"),
                                  VarContext([("base", ["a", "b", "c"])],
                                             slit_eps=eps), label="s")
                    for eps in (1e-3, 1e-6))
    assert narrow.value([1e-4, 0.0, 0.0]) == 1e-4
    with pytest.raises(DomainError, match="inside slit radius 0.001$"):
        wide.value([1e-4, 0.0, 0.0])
    assert _kernels._generate.cache_info().misses == 7
    # the cache keeps at most its bound, least recently used out
    for i in range(_kernels.KERNEL_CACHE_SIZE + 10):
        _kernels.generate([[_kernels.OP_CONST, 1, 0, 0]], [float(i)], 1, 1,
                          1e-6, "c")
    info = _kernels._generate.cache_info()
    assert info.currsize == info.maxsize == _kernels.KERNEL_CACHE_SIZE


def test_fd_check_confirms_ad_jets():
    rng = np.random.default_rng(13)
    for src in _FUZZ_SOURCES:
        f = field(src)
        rep = fd_check(f, rng.uniform(-0.8, 0.8, 3))
        assert rep.ok, f"{src}: grad {rep.grad_error}, hess {rep.hess_error}"


def test_sqrt_and_abs_slit_domain():
    ctx = VarContext([("base", ["a"])], slit_eps=1e-6)
    f = compile_field(parse("sqrt(a)"), ctx)
    j = f.jet(np.array([4.0]))
    assert j.value == 2.0 and abs(j.gradient[0] - 0.25) < 1e-15
    with pytest.raises(DomainError):
        f.jet(np.array([-1.0]))
    g = compile_field(parse("abs(a)"), ctx)
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
    for call in (f.jet, f.jet_lists, f.value):
        for x in (np.array([1.0, 2.0]), [1.0, 2.0]):
            with pytest.raises(DimensionMismatch):
                call(x)


def test_default_jet_lists_read_the_jet():
    # fields that are not tapes give jet_lists through their own jet
    f = ScalarField(2, lambda jets: jets[0] * jets[1].sin(), label="f")
    x = np.array([0.7, -1.3])
    value, grad, hess = f.jet_lists(x)
    want = f.jet(x)
    assert type(value) is float
    assert (value, grad, hess) == (want.value, want.gradient, want.hessian)


def test_scalar_field_chain_matches_substitution():
    outer = field("a*b + c^2")
    inner_src = ["sin(a)", "a*b", "b - c"]
    inners_f = [field(s) for s in inner_src]
    x = np.array([0.7, -0.4, 0.2])
    got = outer.chain([g.jet(x) for g in inners_f])
    direct = field("sin(a)*(a*b) + (b - c)^2").jet(x)
    assert abs(got.value - direct.value) < 1e-14
    assert max_gap(got.gradient, direct.gradient) < 1e-13
    assert max_gap(got.hessian, direct.hessian) < 1e-12
