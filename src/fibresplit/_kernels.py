"""Tape kernels: each instruction tape is lowered once to straight-line Python.

A compiled expression is a flat instruction tape over registers.  Rows are
[op, dst, a, b]; the first k registers hold the input variables, each
instruction writes a fresh register (SSA), and the output register holds
the result.

generate() turns a tape into two plain-Python functions of a list of k
floats:

  jet(x)    -> (value, gradient as k floats, Hessian as k*k floats, row-major)
  value(x)  -> value

This is second-order forward mode with the sparsity resolved at generation
time (Griewank & Walther, Evaluating Derivatives, 2008, ch. 13).  Each
register carries only its structurally nonzero gradient entries and its
Hessian entries with i <= j; the lower triangle of the result mirrors the
upper one, so the Hessian is exactly symmetric.  Every entry is computed by
the recurrence the Jet2 algebra uses, with its terms in the same order, so
the structurally nonzero entries agree with a dense sweep bit for bit (up
to the sign of a zero).

A failing row raises the field's DomainError, "field '<label>': <what>",
from None.  The text is fixed at generation time from the row's op: a
float overflow in exp, in an integer power or in the derivative factors
of log and sqrt ("<op> overflow"), division by zero, log or sqrt of a
nonpositive value, abs inside the slit radius, zero base with a negative
exponent, and "operation '<op>' failed" for a trig function of an
infinite argument.

A kernel is generated once per process per distinct tape: generate()
keeps the last KERNEL_CACHE_SIZE (256) pairs of functions in an LRU cache
keyed by everything their source depends on (the rows, the constants by
repr, k, the output register, slit_eps by repr and the label), and the
functions hold no state, so fields compiled from equal tapes share them.
On a 10-input, 87-row tape, one kernel and its key retain 4-46 KiB
(tracemalloc), so a full cache of tapes that size holds under 12 MiB.
"""

import functools
import math

from .errors import DomainError

KERNEL_CACHE_SIZE = 256  # kernels kept per process, least recently used out

OP_CONST = 0
OP_ADD = 1
OP_SUB = 2
OP_MUL = 3
OP_DIV = 4
OP_NEG = 5
OP_SIN = 6
OP_COS = 7
OP_TAN = 8
OP_EXP = 9
OP_LOG = 10
OP_SQRT = 11
OP_ABS = 12
OP_POWI = 13

OP_NAMES = {
    OP_CONST: "const", OP_ADD: "+", OP_SUB: "-", OP_MUL: "*", OP_DIV: "/",
    OP_NEG: "neg", OP_SIN: "sin", OP_COS: "cos", OP_TAN: "tan",
    OP_EXP: "exp", OP_LOG: "log", OP_SQRT: "sqrt", OP_ABS: "abs",
    OP_POWI: "powi",
}

_UNARY_FN = {OP_SIN: "sin", OP_COS: "cos", OP_TAN: "tan", OP_EXP: "exp",
             OP_LOG: "log", OP_SQRT: "sqrt"}


def _mul(p, q):
    """Product of two entries, None if either is structurally zero; a seed
    1.0 multiplies exactly, so it is dropped."""
    if p is None or q is None:
        return None
    if p == "1.0":
        return q
    if q == "1.0":
        return p
    return f"{_atom(p)} * {_atom(q)}"


def _atom(e):
    return f"({e})" if " " in e else e


def _neg(e):
    if e == "1.0":
        return "-1.0"
    if e == "-1.0":
        return "1.0"
    return f"-{_atom(e)}"


class _Lowering:
    """One pass over the tape, writing the lines of both functions."""

    def __init__(self, k):
        self.dlines = []   # the current row's derivative lines
        self.body = []     # (value lines, derivative lines) per row
        self.n = 0
        self.val = [f"v{i}" for i in range(k)]
        self.grad = [{i: "1.0"} for i in range(k)]
        self.hess = [{} for _ in range(k)]

    def fresh(self):
        self.n += 1
        return f"d{self.n}"

    def entry(self, expr):
        """Bind a derivative term to a fresh local, unless it is a name."""
        if expr.isidentifier() or expr == "1.0":
            return expr
        name = self.fresh()
        self.dlines.append(f"{name} = {expr}")
        return name

    def sum_entry(self, terms, div=None):
        """Left-to-right sum of the present (sign, term) pairs, or None."""
        terms = [(s, t) for s, t in terms if t is not None]
        if not terms:
            return None
        s, t = terms[0]
        expr = t if s > 0 else _neg(t)
        for s, t in terms[1:]:
            expr += f" {'+' if s > 0 else '-'} {t}"
        if div is not None:
            expr = f"{_atom(expr)} / {div}"
        return self.entry(expr)

    def factors(self, fail, fp, fpp):
        """Bind f' and f'' where either may overflow, raising with the line
        fail; return their names."""
        names = self.fresh(), self.fresh()
        self.dlines += _guard([f"{names[0]} = {fp}", f"{names[1]} = {fpp}"],
                              "(OverflowError, ZeroDivisionError)", fail)
        return names

    @staticmethod
    def pairs(ga, gb):
        """Upper-triangle keys (i, j) reached by ga_i gb_j or gb_i ga_j."""
        return {(min(i, j), max(i, j)) for i in ga for j in gb}

    def chain(self, a, fp, fpp):
        """Entries of f(u) from f', f'' and u's entries (fpp None: f''=0)."""
        ga, ha = self.grad[a], self.hess[a]
        grad = {i: self.entry(_mul(fp, g)) for i, g in ga.items()}
        keys = set(ha) | (self.pairs(ga, ga) if fpp is not None else set())
        hess = {}
        for i, j in sorted(keys):
            outer = None
            if fpp is not None:
                outer = _mul(fpp, _mul(ga.get(i), ga.get(j)))
            hess[i, j] = self.sum_entry([(1, _mul(fp, ha.get((i, j)))),
                                         (1, outer)])
        return grad, hess


def _power_term(c, u, e):
    """c * u**e; u**0 == 1 and u**1 == u exactly, so those skip the pow."""
    if e == 0:
        return repr(float(c))
    return f"{c} * {u}" if e == 1 else f"{c} * {u} ** {e}"


def _guard(lines, exc, fail):
    return (["try:"] + [f"    {ln}" for ln in lines]
            + [f"except {exc}:", f"    {fail}"])


def _literal(text, namespace):
    """Source for the constant whose repr is text: that repr, or for inf
    and nan, which have no literal, a name bound to the value."""
    if text not in ("inf", "-inf", "nan"):
        return text
    name = f"_c{len(namespace)}"
    namespace[name] = float(text)
    return name


def generate(code, consts, k, out_reg, slit_eps, label):
    """Lower a tape (rows [op, dst, a, b] and a list of constants) to
    (jet, value), two functions of a list of k floats whose failures name
    the field by label.  Equal arguments give the same two functions:
    constants and slit_eps count by repr, so -0.0 and 0.0, or 1 and 1.0,
    never share a kernel."""
    return _generate(tuple(map(tuple, code)), tuple(map(repr, consts)), k,
                     out_reg, repr(slit_eps), label)


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _generate(code, consts, k, out_reg, slit_eps, label):
    """generate() keyed by what the source depends on: code a tuple of
    row tuples, and consts and slit_eps as their reprs."""
    low = _Lowering(k)
    namespace = {"_DomainError": DomainError, "sin": math.sin,
                 "cos": math.cos, "tan": math.tan, "exp": math.exp,
                 "log": math.log, "sqrt": math.sqrt}
    val, grad, hess = low.val, low.grad, low.hess

    def fail(op, overflow=False):
        """The line raising the field's DomainError when a row of op fails."""
        name = OP_NAMES.get(op, str(op))
        if overflow:
            what = f"{name} overflow"
        else:
            what = {OP_DIV: "division by zero",
                    OP_LOG: "log of nonpositive value",
                    OP_SQRT: "sqrt of nonpositive value",
                    OP_ABS: f"abs argument inside slit radius {slit_eps}",
                    OP_POWI: "zero base with negative exponent",
                    }.get(op, f"operation '{name}' failed")
        message = f"field '{label}': {what}"
        return f"raise _DomainError({message!r}) from None"

    for op, d, a, b in code:
        vl = []   # value and domain check lines, shared by both functions
        dl = low.dlines = []
        vd = f"v{d}"
        u, ga, ha = ((None, {}, {}) if op == OP_CONST
                     else (val[a], grad[a], hess[a]))
        g, h = {}, {}
        if op == OP_CONST:
            vl.append(f"{vd} = {_literal(consts[a], namespace)}")
        elif op in (OP_ADD, OP_SUB):
            sb = 1 if op == OP_ADD else -1
            vl.append(f"{vd} = {u} {'+' if sb > 0 else '-'} {val[b]}")
            gb, hb = grad[b], hess[b]
            g = {i: low.sum_entry([(1, ga.get(i)), (sb, gb.get(i))])
                 for i in sorted(set(ga) | set(gb))}
            h = {ij: low.sum_entry([(1, ha.get(ij)), (sb, hb.get(ij))])
                 for ij in sorted(set(ha) | set(hb))}
        elif op == OP_MUL:
            vb, gb, hb = val[b], grad[b], hess[b]
            vl.append(f"{vd} = {u} * {vb}")
            g = {i: low.sum_entry([(1, _mul(ga.get(i), vb)),
                                   (1, _mul(u, gb.get(i)))])
                 for i in sorted(set(ga) | set(gb))}
            for i, j in sorted(set(ha) | set(hb) | low.pairs(ga, gb)):
                h[i, j] = low.sum_entry([
                    (1, _mul(ha.get((i, j)), vb)),
                    (1, _mul(u, hb.get((i, j)))),
                    (1, _mul(ga.get(i), gb.get(j))),
                    (1, _mul(gb.get(i), ga.get(j)))])
        elif op == OP_DIV:
            vb, gb, hb = val[b], grad[b], hess[b]
            vl += [f"if {vb} == 0.0:", f"    {fail(op)}",
                   f"{vd} = {u} / {vb}"]
            g = {i: low.sum_entry([(1, ga.get(i)), (-1, _mul(vd, gb.get(i)))],
                                  div=vb)
                 for i in sorted(set(ga) | set(gb))}
            for i, j in sorted(set(ha) | set(hb) | low.pairs(g, gb)):
                h[i, j] = low.sum_entry([
                    (1, ha.get((i, j))),
                    (-1, _mul(g.get(i), gb.get(j))),
                    (-1, _mul(gb.get(i), g.get(j))),
                    (-1, _mul(vd, hb.get((i, j))))], div=vb)
        elif op == OP_NEG:
            vl.append(f"{vd} = -{u}")
            g = {i: low.entry(_neg(e)) for i, e in ga.items()}
            h = {ij: low.entry(_neg(e)) for ij, e in ha.items()}
        elif op == OP_POWI and b == 0:
            vl.append(f"{vd} = 1.0")
        elif op == OP_POWI and b == 1:
            vd, g, h = u, ga, ha
        elif op == OP_POWI:
            if b < 0:
                vl += [f"if {u} == 0.0:", f"    {fail(op)}"]
            vl += _guard([f"{vd} = {u} ** {b}"], "OverflowError",
                         fail(op, True))
            fp, fpp = low.factors(fail(op, True), _power_term(b, u, b - 1),
                                  _power_term(b * (b - 1), u, b - 2))
            g, h = low.chain(a, fp, fpp)
        elif op == OP_ABS:
            vl += [f"if abs({u}) < {slit_eps}:",
                   f"    {fail(op)}", f"{vd} = abs({u})"]
            if ga:
                sg = low.entry(f"1.0 if {u} > 0.0 else -1.0")
                g, h = low.chain(a, sg, None)
        elif op in _UNARY_FN:
            fn = _UNARY_FN[op]
            if op in (OP_LOG, OP_SQRT):
                vl += [f"if {u} <= 0.0:", f"    {fail(op)}",
                       f"{vd} = {fn}({u})"]
            elif op == OP_EXP:
                vl += _guard([f"{vd} = exp({u})"], "OverflowError",
                             fail(op, True))
            else:
                # a trig function of an infinite argument
                vl += _guard([f"{vd} = {fn}({u})"], "ValueError", fail(op))
            if op in (OP_LOG, OP_SQRT) and ga:
                # 1/u and 1/(u*u) overflow for a tiny positive u
                fp, fpp = low.factors(fail(op, True), *{
                    OP_LOG: (f"1.0 / {u}", f"-1.0 / ({u} * {u})"),
                    OP_SQRT: (f"0.5 / {vd}", f"-0.25 / ({vd} * {u})")}[op])
                g, h = low.chain(a, fp, fpp)
            elif ga:
                fp = low.entry({OP_SIN: f"cos({u})", OP_COS: f"-sin({u})",
                                OP_TAN: f"1.0 + {vd} * {vd}",
                                OP_EXP: vd}[op])
                fpp = low.entry({OP_SIN: f"-{vd}", OP_COS: f"-{vd}",
                                 OP_TAN: f"2.0 * {vd} * {fp}",
                                 OP_EXP: vd}[op])
                g, h = low.chain(a, fp, fpp)
        else:
            vl.append(fail(op))
        val.append(vd)
        grad.append(g)
        hess.append(h)
        low.body.append((vl, dl))

    vo, go, ho = val[out_reg], grad[out_reg], hess[out_reg]
    gout = ", ".join(go.get(i, "0.0") for i in range(k))
    hout = ", ".join(ho.get((min(i, j), max(i, j)), "0.0")
                     for i in range(k) for j in range(k))
    head = [f"{', '.join(val[:k])}, = x"] if k else []
    jet_body = head + [ln for vl, dl in low.body for ln in vl + dl]
    value_body = head + [ln for vl, _ in low.body for ln in vl]
    src = "\n".join(
        ["def jet(x):"] + [f"    {ln}" for ln in jet_body]
        + [f"    return {vo}, [{gout}], [{hout}]", "",
           "def value(x):"] + [f"    {ln}" for ln in value_body]
        + [f"    return {vo}"])
    exec(compile(src, "<tape>", "exec"), namespace)
    return namespace["jet"], namespace["value"]
