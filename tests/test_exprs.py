import math

import numpy as np
import pytest

from fibresplit.errors import (ArityError, DomainError, ExprSyntaxError,
                               UnknownIdentifier)
from fibresplit.exprs import (Bin, Call, Num, Var, VarContext, compile_field,
                              fold_constants, mentions_nonsmooth, parse,
                              polynomial_degree, substitute, to_string,
                              variables)

CTX = VarContext([("base", ["x1", "x2"]), ("fibre", ["y1"])])


def ev(src, x):
    return compile_field(parse(src), CTX, label=src).value(
        np.asarray(x, dtype=float))


def test_precedence_and_associativity():
    assert ev("2 + 3 * 4", [0, 0, 0]) == 14.0
    assert ev("2 * 3 ^ 2", [0, 0, 0]) == 18.0
    # ^ is right associative: 2^(3^2)
    assert ev("2 ^ 3 ^ 2", [0, 0, 0]) == 512.0
    # unary minus binds looser than ^: -3^2 = -(3^2)
    assert ev("-3 ^ 2", [0, 0, 0]) == -9.0
    assert ev("(-3) ^ 2", [0, 0, 0]) == 9.0
    assert ev("6 / 3 / 2", [0, 0, 0]) == 1.0
    assert ev("2 - 3 - 4", [0, 0, 0]) == -5.0


def test_variables_and_functions():
    assert ev("x1^2 + x2*y1", [2, 3, 4]) == 16.0
    assert abs(ev("sin(x1) + cos(x2)", [0.5, 0.25, 0])
               - (np.sin(0.5) + np.cos(0.25))) < 1e-15
    assert ev("abs(x1 - x2)", [1, 3, 0]) == 2.0


def test_scientific_notation_and_decimals():
    assert ev("1e-3 + 2.5E2 + .5", [0, 0, 0]) == 0.001 + 250.0 + 0.5


def test_syntax_error_carries_byte_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x1 + * 2")
    assert exc.value.offset == 5
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x1 + (2")
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x1 @ 2")
    assert exc.value.offset == 3


def test_trailing_input_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("1 + 2 3")


def test_unknown_function_and_identifier():
    with pytest.raises(UnknownIdentifier):
        parse("sinc(x1)")
    with pytest.raises(UnknownIdentifier):
        compile_field(parse("x1 + q7"), CTX, label="x1 + q7")


def test_function_arity_guard():
    with pytest.raises(ArityError):
        parse("sin(x1, x2)")


def test_ast_structure():
    node = parse("x1 + 2*y1")
    assert isinstance(node, Bin) and node.op == "+"
    assert isinstance(node.left, Var)
    assert isinstance(node.right, Bin) and node.right.op == "*"
    assert isinstance(parse("sin(x1)"), Call)
    assert isinstance(parse("3.5"), Num)


def test_round_trip_fuzz():
    # 200 random ASTs: parse(to_string(ast)) == ast, and the printed form
    # is a fixed point of another print/parse cycle
    rng = np.random.default_rng(99)
    names = ["x1", "x2", "y1"]
    funcs = ["sin", "cos", "exp", "sqrt", "abs"]

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
        again = parse(text)
        assert again == ast, text
        assert to_string(again) == text


def test_fold_constants():
    assert fold_constants(parse("1 + 2 * 3")) == Num(7.0)
    folded = fold_constants(parse("x1 + (2 + 3)"))
    assert folded == Bin("+", Var("x1"), Num(5.0))
    # folding never evaluates outside-domain constants
    node = parse("sqrt(x1) + 1/2")
    assert variables(fold_constants(node)) == {"x1"}
    # an overflowing constant call stays unfolded and fails when evaluated
    node = parse("exp(800) + x1")
    assert fold_constants(node) == node
    with pytest.raises(DomainError, match="exp overflow"):
        ev("exp(800) + x1", [0.0, 0.0, 0.0])


def test_substitute():
    node = substitute(parse("x1^2 + y1"), {"y1": parse("2*x2")})
    assert to_string(node) == to_string(parse("x1^2 + 2*x2"))
    x = np.array([3.0, 1.0, 99.0])
    assert compile_field(node, CTX).value(x) == 11.0


def test_mentions_nonsmooth():
    assert mentions_nonsmooth(parse("sqrt(x1^2)"))
    assert mentions_nonsmooth(parse("abs(x1) + 1"))
    assert not mentions_nonsmooth(parse("sin(x1) + x2^2"))


@pytest.mark.parametrize("src, degree", [
    ("3", 0),
    ("2^0.5 * exp(1) - pi", 0),
    ("w1^(1 + 1)", 2),  # the exponent folds to a literal
    ("x1*v1 + sin(x1)/x1", 0),  # names outside `names` are constants
    ("w1*v1^2", 1),
    ("(w1 - x1*v1)^2", 2),
    ("0.5*w1^2 - w1*w2 + w2", 2),
    ("-w1^2", 2),
    ("w1^3", 3),
    ("w1^0", 0),
    ("w1/2", 1),
    ("w1/x1", 1),
    ("abs(v1)*w1", 1),
    ("1/w1", math.inf),
    ("w1^-1", math.inf),
    ("w1^0.5", math.inf),
    ("x1^w1", math.inf),
    ("exp(w1)", math.inf),
    ("abs(w1)", math.inf),
    ("exp(w1)^2", math.inf),
])
def test_polynomial_degree(src, degree):
    node = fold_constants(parse(src))
    assert polynomial_degree(node, ["w1", "w2"]) == degree


def test_polynomial_degree_counts_only_the_named_variables():
    assert polynomial_degree(parse("w1*v1^2"), ["v1"]) == 2
    assert polynomial_degree(parse("exp(w1)*v1"), ["v1"]) == 1
    # unfolded, the exponent is not a literal
    assert polynomial_degree(parse("w1^(1 + 1)"), ["w1"]) == math.inf


def test_var_context_roles_and_flat():
    ctx = VarContext([("base", ["x1"]), ("base_velocity", ["v1"])],
                     constants={"c": 2.0})
    assert ctx.names == ["x1", "v1"]
    f = compile_field(parse("c * x1 * v1"), ctx)
    assert f.value(np.array([3.0, 4.0])) == 24.0


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        VarContext([("base", ["x1"]), ("fibre", ["x1"])])
