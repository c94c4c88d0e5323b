"""Expression language for coefficient fields.

Grammar (whitespace is insignificant, no implicit multiplication):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          right-associative
    atom   := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

so '^' binds tighter than unary minus ('-x^2' is -(x^2)) and '2^3^2' is
2^(3^2) = 512.  Numbers are decimal or scientific.  The callable names are
sin cos tan exp log sqrt abs, all unary.

parse() gives a structural AST; str() of an AST reparses to an equal AST.
compile_field() substitutes the context's named constants, folds constant
subtrees and lowers to an instruction tape (general '^' becomes
exp(b*log(a)); an integer constant exponent becomes a dedicated power op).
The TapeField keeps that folded AST as `ast`, so a composite of compiled
fields is one more tape: compose() substitutes their ASTs into a formula
and compiles the result.  Only expression-built fields compose this way;
other fields keep their own evaluators (bundle.DerivedField).  A field
takes its context's slit radius; compile_grid() checks a grid's shape.
"""

import math
from dataclasses import dataclass

from . import _kernels
from .errors import (ArityError, DimensionMismatch, ExprSyntaxError,
                     UnknownIdentifier)
from .jets import SLIT_EPS_DEFAULT, TapeField

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs")


class _Node:
    """An AST node; str() is to_string."""

    def __str__(self):
        return to_string(self)


@dataclass(frozen=True)
class Num(_Node):
    value: float


@dataclass(frozen=True)
class Var(_Node):
    name: str


@dataclass(frozen=True)
class Neg(_Node):
    arg: object


@dataclass(frozen=True)
class Bin(_Node):
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call(_Node):
    fn: str
    args: tuple


# precedence levels; '^' is right-associative, the rest left
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(node):
    if isinstance(node, (Num, Var, Call)):
        return _PREC["atom"]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return _PREC[node.op]


def to_string(node):
    if isinstance(node, Num):
        # repr keeps '2.0' a number token on reparse
        v = node.value
        if v < 0:
            return f"-{-v!r}"
        return repr(v)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({', '.join(to_string(a) for a in node.args)})"
    if isinstance(node, Neg):
        inner = to_string(node.arg)
        if _prec(node.arg) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    p = _PREC[node.op]
    ls = to_string(node.left)
    rs = to_string(node.right)
    if node.op == "^":
        # right-assoc: parenthesize a left child of equal precedence
        if _prec(node.left) <= p:
            ls = f"({ls})"
        if _prec(node.right) < p:
            rs = f"({rs})"
    else:
        if _prec(node.left) < p:
            ls = f"({ls})"
        if _prec(node.right) <= p:
            rs = f"({rs})"
    return f"{ls}{node.op}{rs}"


_NUM_START = set("0123456789.")
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")


def _tokenize(text):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c in "+-*/^(),":
            toks.append((c, c, i))
            i += 1
            continue
        if c in _NUM_START:
            j = i
            seen_digit = False
            while j < n and text[j].isdigit():
                j += 1
                seen_digit = True
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
                    seen_digit = True
            if not seen_digit:
                raise ExprSyntaxError("malformed number", i)
            if j < n and text[j] in "eE":
                j2 = j + 1
                if j2 < n and text[j2] in "+-":
                    j2 += 1
                if j2 < n and text[j2].isdigit():
                    while j2 < n and text[j2].isdigit():
                        j2 += 1
                    j = j2
                # otherwise the e starts an identifier, not an exponent
            toks.append(("num", text[i:j], i))
            i = j
            continue
        if c in _IDENT_START:
            j = i
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            toks.append(("ident", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    toks.append(("end", "", n))
    return toks


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind):
        tok = self.toks[self.pos]
        if tok[0] != kind:
            raise ExprSyntaxError(
                f"expected {kind!r}, found {tok[1] or 'end of input'!r}",
                tok[2])
        self.pos += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take(self.peek()[0])[0]
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.take(self.peek()[0])[0]
            node = Bin(op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.take("-")
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[0] == "^":
            self.take("^")
            node = Bin("^", node, self.unary())
        return node

    def atom(self):
        kind, text, off = self.peek()
        if kind == "num":
            self.take("num")
            return Num(float(text))
        if kind == "ident":
            self.take("ident")
            if self.peek()[0] == "(":
                if text not in FUNCTIONS:
                    raise UnknownIdentifier(f"unknown function '{text}'")
                self.take("(")
                args = [self.expr()]
                while self.peek()[0] == ",":
                    self.take(",")
                    args.append(self.expr())
                self.take(")")
                if len(args) != 1:
                    raise ArityError(
                        f"{text} takes 1 argument, got {len(args)}")
                return Call(text, tuple(args))
            return Var(text)
        if kind == "(":
            self.take("(")
            node = self.expr()
            self.take(")")
            return node
        raise ExprSyntaxError(
            f"expected a value, found {text or 'end of input'!r}", off)


def parse(text):
    """Parse expression text to an AST; structural equality is ==."""
    p = _Parser(text)
    node = p.expr()
    kind, tok, off = p.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {tok!r}", off)
    return node


def fold_constants(node):
    """Collapse constant subtrees; leaves anything that would error alone."""
    if isinstance(node, (Num, Var)):
        return node
    if isinstance(node, Neg):
        a = fold_constants(node.arg)
        if isinstance(a, Num):
            return Num(-a.value)
        return Neg(a)
    if isinstance(node, Call):
        a = fold_constants(node.args[0])
        if isinstance(a, Num):
            try:
                fn = getattr(math, node.fn) if node.fn != "abs" else abs
                return Num(float(fn(a.value)))
            except (ValueError, OverflowError):
                pass
        return Call(node.fn, (a,))
    l = fold_constants(node.left)
    r = fold_constants(node.right)
    if isinstance(l, Num) and isinstance(r, Num):
        try:
            if node.op == "+":
                return Num(l.value + r.value)
            if node.op == "-":
                return Num(l.value - r.value)
            if node.op == "*":
                return Num(l.value * r.value)
            if node.op == "/":
                if r.value != 0.0:
                    return Num(l.value / r.value)
            if node.op == "^":
                if float(r.value).is_integer():
                    return Num(float(l.value ** int(r.value)))
                if l.value > 0:
                    return Num(float(l.value ** r.value))
        except (ValueError, OverflowError, ZeroDivisionError):
            pass
    return Bin(node.op, l, r)


def substitute(node, mapping):
    """Replace Var nodes by name; values may be ASTs or numbers."""
    if isinstance(node, Var):
        rep = mapping.get(node.name)
        if rep is None:
            return node
        if isinstance(rep, (int, float)):
            return Num(float(rep))
        return rep
    if isinstance(node, Num):
        return node
    if isinstance(node, Neg):
        return Neg(substitute(node.arg, mapping))
    if isinstance(node, Call):
        return Call(node.fn, tuple(substitute(a, mapping) for a in node.args))
    return Bin(node.op, substitute(node.left, mapping),
               substitute(node.right, mapping))


def variables(node, acc=None):
    """Set of variable names appearing in the AST."""
    if acc is None:
        acc = set()
    if isinstance(node, Var):
        acc.add(node.name)
    elif isinstance(node, Neg):
        variables(node.arg, acc)
    elif isinstance(node, Call):
        for a in node.args:
            variables(a, acc)
    elif isinstance(node, Bin):
        variables(node.left, acc)
        variables(node.right, acc)
    return acc


def mentions_nonsmooth(node):
    """True if the AST contains abs or sqrt (kinks or branch creases)."""
    if isinstance(node, Call):
        return node.fn in ("abs", "sqrt") or mentions_nonsmooth(node.args[0])
    if isinstance(node, Neg):
        return mentions_nonsmooth(node.arg)
    if isinstance(node, Bin):
        return mentions_nonsmooth(node.left) or mentions_nonsmooth(node.right)
    return False


def polynomial_degree(node, names):
    """Degree of the AST as a polynomial in the named variables (other
    names count as constants), or inf where it is not one: where a named
    variable enters a function, a power other than a non-negative integer
    literal, or the denominator of a division."""
    if isinstance(node, Num):
        return 0
    if isinstance(node, Var):
        return int(node.name in names)
    if isinstance(node, Neg):
        return polynomial_degree(node.arg, names)
    if isinstance(node, Call):
        d = [polynomial_degree(a, names) for a in node.args]
        return math.inf if any(d) else 0
    l, r = (polynomial_degree(a, names) for a in (node.left, node.right))
    if node.op in ("+", "-"):
        return max(l, r)
    if node.op == "*" or node.op == "/" and r == 0:
        return l + r
    p = node.right.value if isinstance(node.right, Num) else -1.0
    if node.op == "^" and l < math.inf and p >= 0 and float(p).is_integer():
        return l * int(p)
    return math.inf if l or r else 0


class VarContext:
    """Ordered variable names grouped by role, named constants, slit radius.

    The flattened name order is the tape input order.  pi and e are always
    available as constants unless shadowed by an explicit constant.
    """

    def __init__(self, roles, constants=None, slit_eps=SLIT_EPS_DEFAULT):
        self.slit_eps = slit_eps
        self.roles = [(role, list(names)) for role, names in roles]
        self.names = [n for _, names in self.roles for n in names]
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names in context")
        self.constants = {"pi": math.pi, "e": math.e}
        if constants:
            self.constants.update(
                {k: float(v) for k, v in constants.items()})
        clash = set(self.names) & set(self.constants)
        if clash:
            raise ValueError(f"names used as both variable and constant: "
                             f"{sorted(clash)}")
        self._index = {n: i for i, n in enumerate(self.names)}

    @property
    def arity(self):
        return len(self.names)

    def index(self, name):
        """Tape input slot of a variable name."""
        if name in self._index:
            return self._index[name]
        raise UnknownIdentifier(f"unknown identifier '{name}'")

    def __repr__(self):
        return f"VarContext({self.roles!r})"


class _TapeBuilder:
    def __init__(self, ctx):
        self.ctx = ctx
        self.rows = []
        self.consts = []
        self.next_reg = ctx.arity

    def alloc(self, op, a=0, b=0):
        d = self.next_reg
        self.next_reg += 1
        self.rows.append([op, d, a, b])
        return d

    def const(self, value):
        idx = len(self.consts)
        self.consts.append(float(value))
        return self.alloc(_kernels.OP_CONST, idx)

    def walk(self, node):
        if isinstance(node, Num):
            return self.const(node.value)
        if isinstance(node, Var):
            return self.ctx.index(node.name)
        if isinstance(node, Neg):
            return self.alloc(_kernels.OP_NEG, self.walk(node.arg))
        if isinstance(node, Call):
            op = {"sin": _kernels.OP_SIN, "cos": _kernels.OP_COS,
                  "tan": _kernels.OP_TAN, "exp": _kernels.OP_EXP,
                  "log": _kernels.OP_LOG, "sqrt": _kernels.OP_SQRT,
                  "abs": _kernels.OP_ABS}[node.fn]
            return self.alloc(op, self.walk(node.args[0]))
        binop = {"+": _kernels.OP_ADD, "-": _kernels.OP_SUB,
                 "*": _kernels.OP_MUL, "/": _kernels.OP_DIV}.get(node.op)
        if binop is not None:
            a = self.walk(node.left)
            return self.alloc(binop, a, self.walk(node.right))
        # '^': integer constant exponent gets the dedicated op, anything
        # else lowers to exp(b*log(a)) with its domain restriction
        if isinstance(node.right, Num) and float(node.right.value).is_integer() \
                and abs(node.right.value) < 2 ** 31:
            a = self.walk(node.left)
            return self.alloc(_kernels.OP_POWI, a, int(node.right.value))
        a = self.walk(node.left)
        la = self.alloc(_kernels.OP_LOG, a)
        b = self.walk(node.right)
        prod = self.alloc(_kernels.OP_MUL, b, la)
        return self.alloc(_kernels.OP_EXP, prod)


def _algebra_evaluator(node, ctx):
    """Plain Jet2 recursion over the AST: the non-tape reference route."""
    from .jets import Jet2

    def run(node, jets):
        if isinstance(node, Num):
            return Jet2.constant(node.value, len(jets))
        if isinstance(node, Var):
            return jets[ctx.index(node.name)]
        if isinstance(node, Neg):
            return -run(node.arg, jets)
        if isinstance(node, Call):
            u = run(node.args[0], jets)
            if node.fn == "abs":
                return u.abs(ctx.slit_eps)
            return getattr(u, node.fn)()
        l = run(node.left, jets)
        r = run(node.right, jets)
        if node.op == "+":
            return l + r
        if node.op == "-":
            return l - r
        if node.op == "*":
            return l * r
        if node.op == "/":
            return l / r
        if isinstance(node.right, Num) and float(node.right.value).is_integer():
            return l ** int(node.right.value)
        return (r * l.log()).exp()

    return lambda jets: run(node, jets)


def compile_field(node, ctx, label=None):
    """Lower an AST (or source text) to a TapeField over the context.

    Named constants become numbers before folding, so the field's `ast`
    mentions only the context's variables and compiles again, alone or
    substituted into a larger formula, over any context naming them.
    """
    if isinstance(node, str):
        if label is None:
            label = node
        node = parse(node)
    if label is None:
        label = to_string(node)
    unknown = variables(node) - set(ctx.names) - set(ctx.constants)
    if unknown:
        raise UnknownIdentifier(
            f"unknown identifier '{sorted(unknown)[0]}' in '{label}'")
    folded = fold_constants(substitute(node, ctx.constants))
    builder = _TapeBuilder(ctx)
    out = builder.walk(folded)
    return TapeField(ctx.arity, builder.rows, builder.consts,
                     builder.next_reg, out, label, ctx.slit_eps,
                     _algebra_evaluator(folded, ctx), folded)


def compose(formula, fields, ctx, label):
    """One TapeField for a formula over compiled fields.

    formula is source text in ctx's variables plus the names in `fields`,
    each a field compiled from an expression; each such name is replaced
    by that field's `ast` before compiling, so the composite's jets come
    from a single tape.
    """
    mapping = {name: f.ast for name, f in fields.items()}
    return compile_field(substitute(parse(formula), mapping), ctx, label=label)


def compile_grid(sources, ctx, shape):
    """compile_field of each entry of a nested list of expressions, nested
    alike.  shape (each level's length) is checked whole before anything
    compiles: each level is a list of its length; a string is never a row."""
    def fits(node, dims):
        if not dims:
            return not isinstance(node, list)
        return isinstance(node, list) and len(node) == dims[0] and all(
            fits(sub, dims[1:]) for sub in node)

    def build(node, depth):
        if depth == len(shape):
            return compile_field(node, ctx)
        return [build(sub, depth + 1) for sub in node]

    if not fits(sources, shape):
        raise DimensionMismatch(f"expected nested lists of shape {shape}")
    return build(sources, 0)


def grid_values(grid, x):
    """The values at x of a nested list of fields, nested alike."""
    if isinstance(grid, list):
        return [grid_values(sub, x) for sub in grid]
    return grid.value(x)
