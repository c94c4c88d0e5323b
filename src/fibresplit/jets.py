"""Second-order forward-mode derivatives.

Jet2 carries (value, gradient, hessian) of a scalar function of k inputs
as a float, k floats and k*k floats in row order, and overloads
arithmetic so ordinary numeric code propagates both derivative orders.

ScalarField wraps an evaluator (list of Jet2 -> Jet2) with an arity and a
label.  TapeField is the compiled-expression variant: it evaluates through
straight-line code generated from its instruction tape (a list of rows);
that code raises the field's DomainError itself, and value() is its
Python float.  TapeField keeps the plain-algebra evaluator as the
independent oracle the tests check it against, and the folded AST it was
compiled from, so that fields built from expressions compose by
substitution into one tape (exprs.compose).  Fields that are not
expressions, such as induced coefficients, go through bundle.DerivedField
instead.

Every field also gives its jet as the lists of a Jet2, jet_lists(x) ->
(value, gradient, Hessian), and its first two entries alone as
vg_lists(x); a TapeField's are the kernel's own, checked, and its jet()
wraps them uncopied.  These are the way library code reads
derivatives; the constrained right-hand side (nonholonomic) too reads
its fields' jet_lists and forms the chain rule of jet2_compose in
generated straight-line code.  A Jet2 is built only by the public jet(),
by the algebra oracle and the evaluators of fields that are not
expressions, by bundle.DerivedField, and by the chain rule
(ScalarField.chain, and jet2_compose in the constrained Lagrangian's jet,
which the recorded constrained energy reads).
"""

import math
import sys

from . import _kernels
from .errors import ArityError, DimensionMismatch, DomainError
from .numerics import all_finite, as_floats

SLIT_EPS_DEFAULT = 1e-6
_EXP_MAX_ARG = math.log(sys.float_info.max)  # exp overflows above this


class Jet2:
    """Value, gradient and Hessian of a scalar at a point, in the layout of
    jet_lists: a float, k floats and k*k floats in row order.

    hessian must be symmetric (tolerance 1e-12 relative) and all entries
    finite; violations raise at construction so downstream code can trust
    every Jet2 it holds.
    """

    __slots__ = ("value", "gradient", "hessian")

    def __init__(self, value, gradient, hessian):
        value, gradient, hessian = (float(value), as_floats(gradient),
                                    as_floats(hessian))
        k = len(gradient)
        if len(hessian) != k * k:
            raise DimensionMismatch(
                f"jet of {k} gradient and {len(hessian)} Hessian entries")
        if not all_finite((value,), gradient, hessian):
            raise DomainError("jet has non-finite entries")
        transpose = [e for i in range(k) for e in hessian[i::k]]
        # an exactly symmetric hessian passes the tolerance test below
        if hessian != transpose:
            gap = max(abs(a - b) for a, b in zip(hessian, transpose))
            if gap > 1e-12 * (1.0 + max(map(abs, hessian))):
                raise ValueError("jet hessian is not symmetric")
        self.value, self.gradient, self.hessian = value, gradient, hessian

    @classmethod
    def _trusted(cls, value, gradient, hessian):
        """Jet holding the float value and the gradient and Hessian lists
        as given, unchecked: for the seeds and for jet_lists' output,
        whose shape and symmetry hold by construction and whose
        finiteness is checked where they are made."""
        jet = object.__new__(cls)
        jet.value, jet.gradient, jet.hessian = value, gradient, hessian
        return jet

    @property
    def arity(self):
        return len(self.gradient)

    @classmethod
    def constant(cls, c, k):
        return cls(c, [0.0] * k, [0.0] * (k * k))

    @classmethod
    def variable(cls, x, i, k):
        if not math.isfinite(x):
            raise DomainError("jet has non-finite entries")
        return cls._trusted(float(x), [float(j == i) for j in range(k)],
                            [0.0] * (k * k))

    def _coerce(self, other):
        if isinstance(other, Jet2):
            if other.arity != self.arity:
                raise DimensionMismatch(
                    f"jet arities differ: {self.arity} vs {other.arity}")
            return other
        return Jet2.constant(float(other), self.arity)

    def __add__(self, other):
        o = self._coerce(other)
        return Jet2(self.value + o.value,
                    [a + b for a, b in zip(self.gradient, o.gradient)],
                    [a + b for a, b in zip(self.hessian, o.hessian)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return Jet2(self.value - o.value,
                    [a - b for a, b in zip(self.gradient, o.gradient)],
                    [a - b for a, b in zip(self.hessian, o.hessian)])

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        u, w, p, q = self.value, o.value, self.gradient, o.gradient
        return Jet2(u * w, [a * w + u * b for a, b in zip(p, q)],
                    [a * w + u * b + c + d for a, b, c, d in zip(
                        self.hessian, o.hessian, _outer(p, q), _outer(q, p))])

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        w, q = o.value, o.gradient
        if w == 0.0:
            raise DomainError("division by zero")
        f = self.value / w
        g = [(a - f * b) / w for a, b in zip(self.gradient, q)]
        return Jet2(f, g, [(a - c - d - f * b) / w for a, b, c, d in zip(
            self.hessian, o.hessian, _outer(g, q), _outer(q, g))])

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        return Jet2(-self.value, [-a for a in self.gradient],
                    [-a for a in self.hessian])

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("jet ** exponent must be an integer; "
                            "use exp/log for general powers")
        if n == 0:
            return Jet2.constant(1.0, self.arity)
        u = self.value
        if u == 0.0 and n < 0:
            raise DomainError("zero base with negative exponent")
        try:
            f = u ** n
            if n == 1:
                fp, fpp = 1.0, 0.0
            else:
                fp = n * u ** (n - 1)
                fpp = n * (n - 1) * u ** (n - 2)
        except (OverflowError, ZeroDivisionError):
            raise DomainError("powi overflow") from None
        return self._chain1(f, fp, fpp)

    def _chain1(self, f, fp, fpp):
        g = self.gradient
        return Jet2(f, [fp * a for a in g],
                    [fp * a + fpp * b for a, b in zip(self.hessian,
                                                      _outer(g, g))])

    def sin(self):
        s, c = math.sin(self.value), math.cos(self.value)
        return self._chain1(s, c, -s)

    def cos(self):
        s, c = math.sin(self.value), math.cos(self.value)
        return self._chain1(c, -s, -c)

    def tan(self):
        t = math.tan(self.value)
        return self._chain1(t, 1.0 + t * t, 2.0 * t * (1.0 + t * t))

    def exp(self):
        if self.value > _EXP_MAX_ARG:
            raise DomainError("exp overflow")
        e = math.exp(self.value)
        return self._chain1(e, e, e)

    def log(self):
        if self.value <= 0.0:
            raise DomainError("log of nonpositive value")
        u = self.value
        if u * u == 0.0:
            raise DomainError("log overflow")
        return self._chain1(math.log(u), 1.0 / u, -1.0 / (u * u))

    def sqrt(self):
        if self.value <= 0.0:
            raise DomainError("sqrt of nonpositive value")
        s = math.sqrt(self.value)
        return self._chain1(s, 0.5 / s, -0.25 / (s * self.value))

    def abs(self, slit_eps=SLIT_EPS_DEFAULT):
        # |u| is smooth only away from 0; the slit keeps us off the crease
        if abs(self.value) < slit_eps:
            raise DomainError(
                f"abs argument {self.value!r} inside slit radius {slit_eps}")
        sg = 1.0 if self.value > 0.0 else -1.0
        return self._chain1(sg * self.value, sg, 0.0)

    __abs__ = abs

    def __repr__(self):
        return f"Jet2({self.value!r}, grad={self.gradient!r})"


def _outer(p, q):
    """The entries p_i q_j of the outer product, in row order."""
    return [a * b for a in p for b in q]


def seed_jets(x):
    """Independent-variable jets at x: identity gradient, zero hessian."""
    x = as_floats(x)
    return [Jet2.variable(v, i, len(x)) for i, v in enumerate(x)]


def jet2_compose(outer, inners):
    """Chain rule: jet of F(g_1..g_K) from F's jet at (g_i values).

    outer is a Jet2 in K intermediate variables, inners are K jets in the
    true variables.  This is the composition routine lifts, pullbacks and
    the constrained Lagrangian's jet go through; the constrained
    right-hand side (nonholonomic._constrained_tail) forms the same sums
    in straight-line code, bit for bit.  Each sum runs from 0.0 in index
    order, skipping terms with a zero factor.
    """
    K = outer.arity
    if len(inners) != K:
        raise ArityError(f"outer expects {K} inner jets, got {len(inners)}")
    k = inners[0].arity
    if any(jet.arity != k for jet in inners):
        raise DimensionMismatch("inner jets have mixed arities")
    og, oh = outer.gradient, outer.hessian
    grad, hess = [0.0] * k, [0.0] * (k * k)
    gth = [[0.0] * k for _ in range(K)]  # gth[b][i] = (G^T F'')[i][b]
    for a, (g, jet) in enumerate(zip(og, inners)):  # G[a] = jet.gradient
        grad = [s + g * e for s, e in zip(grad, jet.gradient)]
        for b, h in enumerate(oh[a * K:(a + 1) * K]):
            if h:
                gth[b] = [s + e * h for s, e in zip(gth[b], jet.gradient)]
    for col, jet in zip(gth, inners):  # row i of (G^T F'') G, over b
        for i, t in enumerate(col):
            if t:
                hess[i * k:(i + 1) * k] = [s + t * e for s, e in zip(
                    hess[i * k:(i + 1) * k], jet.gradient)]
    for g, jet in zip(og, inners):
        if g and any(jet.hessian):
            hess = [s + g * e for s, e in zip(hess, jet.hessian)]
    # symmetric only to rounding; float addition commutes, so the average
    # with the transpose is symmetric bit for bit (halved first: no overflow)
    half = [0.5 * e for e in hess]
    return Jet2(outer.value, grad, [half[i * k + j] + half[j * k + i]
                                    for i in range(k) for j in range(k)])


class ScalarField:
    """A twice differentiable scalar function of `arity` real inputs.

    evaluator maps a list of Jet2 seeds to the output Jet2; label is for
    reports and error messages.
    """

    def __init__(self, arity, evaluator, label=""):
        self.arity = arity
        self.evaluator = evaluator
        self.label = label

    def _point(self, x):
        """x as a list of k Python floats."""
        x = as_floats(x)
        if len(x) != self.arity:
            raise DimensionMismatch(
                f"field '{self.label}' expects {self.arity} inputs, "
                f"got {len(x)}")
        return x

    def jet(self, x):
        return self.evaluator(seed_jets(self._point(x)))

    def jet_lists(self, x):
        """The jet at x as Python floats: (value, gradient as a list of k
        floats, Hessian as a list of k*k floats in row order), the jet's
        own lists."""
        jet = self.jet(x)
        return jet.value, jet.gradient, jet.hessian

    def vg_lists(self, x):
        """The value and gradient at x as Python floats: jet_lists without
        the Hessian, which fields that must difference for it
        (bundle.DerivedField) then skip."""
        return self.jet_lists(x)[:2]

    def value(self, x):
        return self.jet(x).value

    def chain(self, inners):
        """Jet of self composed with the given inner jets."""
        if len(inners) != self.arity:
            raise ArityError(
                f"field '{self.label}' expects {self.arity} arguments, "
                f"got {len(inners)}")
        return jet2_compose(self.jet([j.value for j in inners]), inners)

    def __repr__(self):
        return f"{type(self).__name__}({self.label!r}, arity={self.arity})"


class TapeField(ScalarField):
    """ScalarField backed by a compiled instruction tape.

    code holds the tape's rows [op, dst, a, b] and consts its constants,
    both as the builder's Python lists.  The first jet() or value() call
    takes the tape's two straight-line Python functions from
    _kernels.generate, which lowers each distinct tape once per process,
    and keeps them on the instance; they raise the field's
    DomainError themselves, and value() returns their float.  The
    inherited evaluator recomputes with plain Jet2 algebra; it is the
    independent oracle the tests check the generated code against.  ast is
    the folded expression the tape was lowered from (named constants
    already numbers); the algebra evaluator holds the same object.
    """

    def __init__(self, arity, code, consts, nreg, out_reg, label, slit_eps,
                 algebra_evaluator, ast):
        super().__init__(arity, algebra_evaluator, label)
        self.ast = ast
        self.code = code
        self.consts = consts
        self.nreg = nreg
        self.out_reg = out_reg
        self.slit_eps = slit_eps
        self._kernel = None

    def _generated(self):
        if self._kernel is None:
            self._kernel = _kernels.generate(self.code, self.consts,
                                             self.arity, self.out_reg,
                                             self.slit_eps, self.label)
        return self._kernel

    def jet_lists(self, x):
        """The kernel's jet at x, (value, k gradient floats, k*k Hessian
        floats in row order), with every entry checked finite: a float
        product can overflow to inf without raising."""
        val, grad, hess = self._generated()[0](self._point(x))
        # all_finite's one-pass sum, taken inline on this hot path
        if not (math.isfinite(sum(hess, sum(grad, val)))
                or all_finite((val,), grad, hess)):
            raise DomainError("jet has non-finite entries")
        return val, grad, hess

    def jet(self, x):
        return Jet2._trusted(*self.jet_lists(x))

    def value(self, x):
        out = self._generated()[1](self._point(x))
        if not math.isfinite(out):
            raise DomainError(f"field '{self.label}': non-finite value")
        return out
