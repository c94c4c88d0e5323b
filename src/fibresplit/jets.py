"""Second-order forward-mode derivatives.

Jet2 carries (value, gradient, hessian) of a scalar function of k inputs
and overloads arithmetic so ordinary numeric code propagates both
derivative orders.  numpy ufuncs dispatch to the like-named methods, so
np.sin(jet) works.

ScalarField wraps an evaluator (list of Jet2 -> Jet2) with an arity and a
label.  TapeField is the compiled-expression variant: it evaluates through
straight-line code generated from its instruction tape, keeps the
plain-algebra evaluator as the independent oracle the tests check it
against, and keeps the folded AST it was compiled from, so that fields
built from expressions compose by substitution into one tape
(exprs.compose).  Fields that are not expressions, such as induced
coefficients, go through bundle.DerivedField instead.

Every field also gives its jet as plain Python floats, jet_lists(x) ->
(value, gradient list, row-major Hessian list).  For a TapeField that is
the kernel's own output, checked but never copied into arrays.  It is the
one way library code reads derivatives; a Jet2 is built only by the
public jet(), by the algebra oracle and the evaluators of fields that are
not expressions, by bundle.DerivedField, and by the chain rule
(ScalarField.chain, jet2_compose).
"""

import math
import sys

import numpy as np

from . import _kernels
from .errors import ArityError, DimensionMismatch, DomainError
from .numerics import all_finite, as_floats

SLIT_EPS_DEFAULT = 1e-6
_EXP_MAX_ARG = math.log(sys.float_info.max)  # exp overflows above this


class Jet2:
    """Value, gradient and Hessian of a scalar at a point.

    hessian must be symmetric (tolerance 1e-12 relative) and all entries
    finite; violations raise at construction so downstream code can trust
    every Jet2 it holds.  Jet2._trusted wraps kernel output and seeds,
    whose invariants their makers have checked already.
    """

    __slots__ = ("value", "gradient", "hessian")
    __array_priority__ = 100  # keep numpy from consuming us in mixed ops

    def __init__(self, value, gradient, hessian):
        value = float(value)
        gradient = np.asarray(gradient, dtype=float)
        hessian = np.asarray(hessian, dtype=float)
        k = gradient.shape[0]
        if gradient.shape != (k,) or hessian.shape != (k, k):
            raise DimensionMismatch(
                f"jet shapes {gradient.shape}, {hessian.shape} for arity {k}")
        if not (math.isfinite(value) and np.isfinite(gradient).all()
                and np.isfinite(hessian).all()):
            raise DomainError("jet has non-finite entries")
        # an exactly symmetric hessian passes the tolerance test below
        if not (hessian == hessian.T).all():
            scale = 1.0 + np.abs(hessian).max()
            if np.abs(hessian - hessian.T).max() > 1e-12 * scale:
                raise ValueError("jet hessian is not symmetric")
        self.value = value
        self.gradient = gradient
        self.hessian = hessian

    @classmethod
    def _trusted(cls, value, gradient, hessian):
        """Jet from a value, k gradient floats and k*k Hessian floats in
        row order (sequences), unchecked: for the seeds and for
        TapeField.jet_lists' output, whose shape and symmetry hold by
        construction and whose finiteness is checked where they are
        made."""
        jet = object.__new__(cls)
        k = len(gradient)
        jet.value = float(value)
        jet.gradient = np.array(gradient, dtype=float)
        jet.hessian = np.array(hessian, dtype=float).reshape(k, k)
        return jet

    @property
    def arity(self):
        return self.gradient.shape[0]

    @classmethod
    def constant(cls, c, k):
        return cls(c, np.zeros(k), np.zeros((k, k)))

    @classmethod
    def variable(cls, x, i, k):
        if not math.isfinite(x):
            raise DomainError("jet has non-finite entries")
        g = [0.0] * k
        g[i] = 1.0
        return cls._trusted(x, g, [0.0] * (k * k))

    def _coerce(self, other):
        if isinstance(other, Jet2):
            if other.arity != self.arity:
                raise DimensionMismatch(
                    f"jet arities differ: {self.arity} vs {other.arity}")
            return other
        return Jet2.constant(float(other), self.arity)

    def __add__(self, other):
        o = self._coerce(other)
        return Jet2(self.value + o.value, self.gradient + o.gradient,
                    self.hessian + o.hessian)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return Jet2(self.value - o.value, self.gradient - o.gradient,
                    self.hessian - o.hessian)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        return Jet2(self.value * o.value,
                    self.gradient * o.value + self.value * o.gradient,
                    self.hessian * o.value + self.value * o.hessian
                    + np.outer(self.gradient, o.gradient)
                    + np.outer(o.gradient, self.gradient))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.value == 0.0:
            raise DomainError("division by zero")
        f = self.value / o.value
        g = (self.gradient - f * o.gradient) / o.value
        h = (self.hessian - np.outer(g, o.gradient)
             - np.outer(o.gradient, g) - f * o.hessian) / o.value
        return Jet2(f, g, h)

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        return Jet2(-self.value, -self.gradient, -self.hessian)

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)):
            raise TypeError("jet ** exponent must be an integer; "
                            "use exp/log for general powers")
        n = int(n)
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
        return Jet2(f, fp * self.gradient,
                    fp * self.hessian
                    + fpp * np.outer(self.gradient, self.gradient))

    def sin(self):
        s, c = np.sin(self.value), np.cos(self.value)
        return self._chain1(s, c, -s)

    def cos(self):
        s, c = np.sin(self.value), np.cos(self.value)
        return self._chain1(c, -s, -c)

    def tan(self):
        t = np.tan(self.value)
        return self._chain1(t, 1.0 + t * t, 2.0 * t * (1.0 + t * t))

    def exp(self):
        if self.value > _EXP_MAX_ARG:
            raise DomainError("exp overflow")
        e = np.exp(self.value)
        return self._chain1(e, e, e)

    def log(self):
        if self.value <= 0.0:
            raise DomainError("log of nonpositive value")
        u = self.value
        if u * u == 0.0:
            raise DomainError("log overflow")
        return self._chain1(np.log(u), 1.0 / u, -1.0 / (u * u))

    def sqrt(self):
        if self.value <= 0.0:
            raise DomainError("sqrt of nonpositive value")
        s = np.sqrt(self.value)
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


def seed_jets(x):
    """Independent-variable jets at x: identity gradient, zero hessian."""
    x = np.asarray(x, dtype=float)
    k = x.shape[0]
    return [Jet2.variable(x[i], i, k) for i in range(k)]


def jet2_compose(outer, inners):
    """Chain rule: jet of F(g_1..g_K) from F's jet at (g_i values).

    outer is a Jet2 in K intermediate variables, inners are K jets in the
    true variables.  This is the one composition routine everything else
    (lifts, pullbacks, restricted Lagrangians) goes through.
    """
    K = outer.arity
    if len(inners) != K:
        raise ArityError(f"outer expects {K} inner jets, got {len(inners)}")
    k = inners[0].arity
    G = np.empty((K, k))
    for a, jet in enumerate(inners):
        if jet.arity != k:
            raise DimensionMismatch("inner jets have mixed arities")
        G[a] = jet.gradient
    grad = outer.gradient @ G
    hess = G.T @ outer.hessian @ G
    for a, jet in enumerate(inners):
        hess = hess + outer.gradient[a] * jet.hessian
    # the sum is symmetric only to rounding; float addition commutes, so
    # the average with the transpose is symmetric bit for bit (halved
    # first, so that it cannot overflow)
    half = 0.5 * hess
    hess = half + half.T
    return Jet2(outer.value, grad, hess)


class ScalarField:
    """A twice differentiable scalar function of `arity` real inputs.

    evaluator maps a list of Jet2 seeds to the output Jet2; label is for
    reports and error messages.
    """

    def __init__(self, arity, evaluator, label=""):
        self.arity = arity
        self.evaluator = evaluator
        self.label = label

    def jet(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.arity,):
            raise DimensionMismatch(
                f"field '{self.label}' expects {self.arity} inputs, "
                f"got shape {x.shape}")
        return self.evaluator(seed_jets(x))

    def jet_lists(self, x):
        """The jet at x as Python floats: (value, gradient as a list of k
        floats, Hessian as a list of k*k floats in row order)."""
        jet = self.jet(x)
        return jet.value, jet.gradient.tolist(), jet.hessian.ravel().tolist()

    def value(self, x):
        return self.jet(x).value

    def __call__(self, x):
        return self.value(x)

    def chain(self, inners):
        """Jet of self composed with the given inner jets."""
        if len(inners) != self.arity:
            raise ArityError(
                f"field '{self.label}' expects {self.arity} arguments, "
                f"got {len(inners)}")
        at = np.array([j.value for j in inners])
        return jet2_compose(self.jet(at), inners)

    def __repr__(self):
        return f"{type(self).__name__}({self.label!r}, arity={self.arity})"


class TapeField(ScalarField):
    """ScalarField backed by a compiled instruction tape.

    The first jet() or value() call lowers the tape to straight-line Python
    (see _kernels) and keeps the two generated functions on the instance.
    The inherited evaluator recomputes with plain Jet2 algebra; it is the
    independent oracle the tests check the generated code against.  ast is
    the folded expression the tape was lowered from (named constants
    already numbers); the algebra evaluator holds the same object.
    """

    def __init__(self, arity, code, consts, nreg, out_reg, label="",
                 slit_eps=SLIT_EPS_DEFAULT, algebra_evaluator=None, ast=None):
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
                                             self.slit_eps)
        return self._kernel

    def _raise_for(self, row, overflow=False):
        op = int(self.code[row, 0])
        name = _kernels.OP_NAMES.get(op, str(op))
        if overflow:
            msg = f"{name} overflow"
        elif op == _kernels.OP_DIV:
            msg = "division by zero"
        elif op == _kernels.OP_LOG:
            msg = "log of nonpositive value"
        elif op == _kernels.OP_SQRT:
            msg = "sqrt of nonpositive value"
        elif op == _kernels.OP_ABS:
            msg = f"abs argument inside slit radius {self.slit_eps}"
        elif op == _kernels.OP_POWI:
            msg = "zero base with negative exponent"
        else:
            msg = f"operation '{name}' failed"
        raise DomainError(f"field '{self.label}': {msg}") from None

    def _point(self, x):
        """x as a list of k Python floats."""
        x = as_floats(x)
        if len(x) != self.arity:
            raise DimensionMismatch(
                f"field '{self.label}' expects {self.arity} inputs, "
                f"got {len(x)}")
        return x

    def jet_lists(self, x):
        """The kernel's jet at x, (value, k gradient floats, k*k Hessian
        floats in row order), with every entry checked finite: a float
        product can overflow to inf without raising."""
        x = self._point(x)
        try:
            val, grad, hess = self._generated()[0](x)
        except _kernels.RowFailure as exc:
            self._raise_for(exc.row, exc.overflow)
        if not all_finite((val,), grad, hess):
            raise DomainError("jet has non-finite entries")
        return val, grad, hess

    def jet(self, x):
        return Jet2._trusted(*self.jet_lists(x))

    def value(self, x):
        x = self._point(x)
        try:
            out = self._generated()[1](x)
        except _kernels.RowFailure as exc:
            self._raise_for(exc.row, exc.overflow)
        if not math.isfinite(out):
            raise DomainError(f"field '{self.label}': non-finite value")
        return np.float64(out)  # keeps numpy's float semantics for callers
