"""Charts and tangent-level objects for a fibred manifold.

A chart fixes base dimension n (coordinates x1..xn) and fibre dimension m
(coordinates y1..ym).  Velocities are v (base directions) and w (fibre
directions).  Points of the second tangent space carry a second block
(X, Y, V, W) over the first.

The slit radius slit_eps is part of the chart: fields built over the chart
inherit it, and non-smooth coefficient fields (abs, sqrt) are only
evaluated at base velocities with |v| >= slit_eps.

A vector field is one type, VectorField: n components of x make a field
on the base N, n + m components of (x, y) a field on the total space M.

Points hold each block as a list of Python floats, and every point, block
and field value given out here is such a list.
"""

import math
from dataclasses import dataclass

from .errors import BasePointMismatch, DimensionMismatch, DomainError
from .exprs import VarContext
from .jets import SLIT_EPS_DEFAULT, Jet2, ScalarField
from .numerics import all_finite, as_floats, dot


def _vec(a, k, what):
    a = as_floats(a)
    if len(a) != k:
        raise DimensionMismatch(f"{what} must have length {k}, got {len(a)}")
    return a


@dataclass(frozen=True)
class BundleChart:
    """Dimensions and naming for one fibred chart."""
    n: int
    m: int
    slit_eps: float = SLIT_EPS_DEFAULT

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise DimensionMismatch("chart needs n >= 1 and m >= 1")
        if not 0 < self.slit_eps < math.inf:
            raise ValueError("slit_eps must be positive and finite")

    @property
    def x_names(self):
        return [f"x{i+1}" for i in range(self.n)]

    @property
    def y_names(self):
        return [f"y{a+1}" for a in range(self.m)]

    @property
    def v_names(self):
        return [f"v{i+1}" for i in range(self.n)]

    @property
    def w_names(self):
        return [f"w{a+1}" for a in range(self.m)]

    def ctx_point(self):
        return VarContext([("base", self.x_names), ("fibre", self.y_names)])

    def ctx_pullback(self):
        """Coefficient context (x, y, v): base velocity over a point."""
        return VarContext([("base", self.x_names), ("fibre", self.y_names),
                           ("base_velocity", self.v_names)])

    def ctx_tangent(self):
        return VarContext([("base", self.x_names), ("fibre", self.y_names),
                           ("base_velocity", self.v_names),
                           ("fibre_velocity", self.w_names)])


@dataclass
class TangentPointM:
    """Tangent vector (v, w) at the point (x, y) of the total space."""
    chart: BundleChart
    x: list
    y: list
    v: list
    w: list

    def __post_init__(self):
        self.x = _vec(self.x, self.chart.n, "x")
        self.y = _vec(self.y, self.chart.m, "y")
        self.v = _vec(self.v, self.chart.n, "v")
        self.w = _vec(self.w, self.chart.m, "w")

    def point(self):
        return self.x + self.y

    def as_array(self):
        return self.x + self.y + self.v + self.w


@dataclass
class PullbackPoint:
    """Base velocity v attached to the point (x, y): where splittings live."""
    chart: BundleChart
    x: list
    y: list
    v: list

    def __post_init__(self):
        self.x = _vec(self.x, self.chart.n, "x")
        self.y = _vec(self.y, self.chart.m, "y")
        self.v = _vec(self.v, self.chart.n, "v")

    def as_array(self):
        return self.x + self.y + self.v


@dataclass
class SecondTangentPoint:
    """Point of the double tangent space: (x,y,v,w) plus (X,Y,V,W)."""
    chart: BundleChart
    x: list
    y: list
    v: list
    w: list
    X: list
    Y: list
    V: list
    W: list

    def __post_init__(self):
        n, m = self.chart.n, self.chart.m
        self.x = _vec(self.x, n, "x")
        self.y = _vec(self.y, m, "y")
        self.v = _vec(self.v, n, "v")
        self.w = _vec(self.w, m, "w")
        self.X = _vec(self.X, n, "X")
        self.Y = _vec(self.Y, m, "Y")
        self.V = _vec(self.V, n, "V")
        self.W = _vec(self.W, m, "W")

    def as_array(self):
        return self.x + self.y + self.v + self.w + self.upper()

    def upper(self):
        """The second block (X, Y, V, W) as one list."""
        return self.X + self.Y + self.V + self.W

    def allclose(self, other, tol=1e-9):
        return all(abs(a - b) <= tol for a, b in
                   zip(self.as_array(), other.as_array(), strict=True))


def mu(t):
    """Forget the fibre velocity: (x, y, v, w) -> (x, y, v)."""
    return PullbackPoint(t.chart, t.x, t.y, t.v)


def canonical_flip(s):
    """Exchange the two velocity blocks: (q, u, Q, U) -> (q, Q, u, U)."""
    return SecondTangentPoint(s.chart, s.x, s.y, s.X, s.Y, s.v, s.w,
                              s.V, s.W)


def vertical_endomorphism(s):
    """Move the (X, Y) block into (V, W) and zero it: S with S*S = 0."""
    n, m = s.chart.n, s.chart.m
    return SecondTangentPoint(s.chart, s.x, s.y, s.v, s.w,
                              [0.0] * n, [0.0] * m, s.X, s.Y)


def vertical_lift(at, vec):
    """Vertical lift of the tangent vector `vec` to the point `at` of TM.

    Both arguments must sit over the same point of the total space.
    """
    if not (at.x == vec.x and at.y == vec.y):
        raise BasePointMismatch("vertical lift needs a vector at the same point")
    n, m = at.chart.n, at.chart.m
    return SecondTangentPoint(at.chart, at.x, at.y, at.v, at.w,
                              [0.0] * n, [0.0] * m, vec.v, vec.w)


@dataclass
class VectorField:
    """Vector field given by component fields of one point: n components
    of x make a field on the base N, n + m components of (x, y) a field on
    the total space M (the counts differ, since m >= 1)."""
    chart: BundleChart
    components: list

    def __post_init__(self):
        k = len(self.components)
        if k not in (self.chart.n, self.chart.n + self.chart.m):
            raise DimensionMismatch(
                f"need {self.chart.n} or {self.chart.n + self.chart.m} "
                f"component fields, got {k}")
        for c in self.components:
            if c.arity != k:
                raise DimensionMismatch(
                    f"component '{c.label}' has arity {c.arity}, expected {k}")

    def values(self, q):
        return [c.value(q) for c in self.components]


def complete_lift(Z, at):
    """Complete lift of the field Z, evaluated at the tangent point `at`.

    Upper block: (X, Y) = Z(q) and (V, W) = DZ(q) . (v, w).
    """
    q = at.point()
    jets = [c.jet_lists(q) for c in Z.components]
    vals = [val for val, _, _ in jets]
    u = [*at.v, *at.w]
    du = [dot(grad, u) for _, grad, _ in jets]
    n = at.chart.n
    return SecondTangentPoint(at.chart, at.x, at.y, at.v, at.w,
                              vals[:n], vals[n:], du[:n], du[n:])


def liouville_fields(h, at, which):
    """Members of the dilation family at a tangent point, given a splitting.

    which selects the field: 'total' is (V, W) = (v, w); 'horizontal' is
    (v, h(x,y,v)); 'vertical' is (0, w - h(x,y,v)); 'zero' is (0, h(x,y,0)).
    h is a callable (x, y, v) -> m numbers; it may be None for 'total'.
    """
    n, m = at.chart.n, at.chart.m
    zn, zm = [0.0] * n, [0.0] * m
    if which == "total":
        V, W = at.v, at.w
    elif which == "horizontal":
        V, W = at.v, h(at.x, at.y, at.v)
    elif which == "vertical":
        V = zn
        W = [a - b for a, b in zip(at.w, h(at.x, at.y, at.v))]
    elif which == "zero":
        V = zn
        W = h(at.x, at.y, zn)
    else:
        raise ValueError(f"unknown selector {which!r}")
    return SecondTangentPoint(at.chart, at.x, at.y, at.v, at.w, zn, zm, V, W)


class DerivedField(ScalarField):
    """Scalar field with exact value+gradient and a filled-in Hessian.

    vg(x) gets x as a list of k floats and must return (value, gradient)
    exactly, the gradient as k floats; the Hessian of the jet is
    reconstructed by central differences of that gradient, with step
    1e-5 (1 + max|x|), then symmetrized, since the exact second
    derivative of a derived quantity would need third derivatives of its
    ingredients.  vg_lists(x) gives the exact value
    and gradient without that work.
    """

    def __init__(self, arity, vg, label=""):
        super().__init__(arity, None, label)
        self.vg = vg

    def value(self, x):
        return float(self.vg(self._point(x))[0])

    def vg_lists(self, x):
        """The exact value and gradient at x as Python floats, checked
        finite as jet checks them, without differencing for the Hessian."""
        val, grad = self.vg(self._point(x))
        val, grad = float(val), as_floats(grad)
        if not all_finite((val,), grad):
            raise DomainError("jet has non-finite entries")
        return val, grad

    def jet(self, x):
        x = self._point(x)
        val, grad = self.vg(x)
        k = self.arity
        h = 1e-5 * (1.0 + max(map(abs, x)))
        rows = []
        for i in range(k):
            # x +- h e_i, entry by entry, as the array sum x + e gives it
            e = [h if j == i else 0.0 for j in range(k)]
            gp = self.vg([a + b for a, b in zip(x, e)])[1]
            gm = self.vg([a - b for a, b in zip(x, e)])[1]
            rows.append([(p - q) / (2.0 * h) for p, q in zip(gp, gm)])
        hess = [0.5 * (rows[i][j] + rows[j][i]) for i in range(k)
                for j in range(k)]
        return Jet2(val, grad, hess)


def _bracket_components(comps1, comps2, k):
    def make_vg(i):
        def vg(q):
            a1, g1, H1 = zip(*[c.jet_lists(q) for c in comps1])
            a2, g2, H2 = zip(*[c.jet_lists(q) for c in comps2])
            H1, H2 = H1[i], H2[i]
            val = dot(g2[i], a1) - dot(g1[i], a2)
            # d/dq_l: hess terms plus cross gradient terms
            grad = [dot(H2[k * l:k * (l + 1)], a1)
                    + dot([g[l] for g in g1], g2[i])
                    - dot(H1[k * l:k * (l + 1)], a2)
                    - dot([g[l] for g in g2], g1[i]) for l in range(k)]
            return val, grad
        return vg

    return [DerivedField(k, make_vg(i),
                         label=f"bracket[{i}]")
            for i in range(k)]


def lie_bracket(Z1, Z2):
    """Commutator of two vector fields (both on M, or both on the base).

    Component i is sum_j (dZ2_i/dq_j Z1_j - dZ1_i/dq_j Z2_j).  Values and
    first derivatives of the result are exact (they use at most second
    derivatives of the inputs); see DerivedField for the Hessian.
    """
    k = len(Z1.components)
    if Z1.chart != Z2.chart or len(Z2.components) != k:
        raise DimensionMismatch("bracket arguments live on different spaces")
    return VectorField(Z1.chart,
                       _bracket_components(Z1.components, Z2.components, k))


def tangent_map(fields, s):
    """Tangent lift of a self-map of TM, applied to a second-tangent point.

    fields: 2(n+m) ScalarFields of (x, y, v, w) giving the map's components
    in block order x, y, v, w.  The image point is F(base) with upper block
    DF(base) . (X, Y, V, W).
    """
    n, m = s.chart.n, s.chart.m
    k = 2 * (n + m)
    if len(fields) != k:
        raise DimensionMismatch(f"need {k} component fields, got {len(fields)}")
    base = s.as_array()[:k]
    upper = s.upper()
    jets = [f.jet_lists(base) for f in fields]
    new_base = [val for val, _, _ in jets]
    new_upper = [dot(grad, upper) for _, grad, _ in jets]
    return SecondTangentPoint(
        s.chart,
        new_base[:n], new_base[n:n + m], new_base[n + m:2 * n + m],
        new_base[2 * n + m:],
        new_upper[:n], new_upper[n:n + m], new_upper[n + m:2 * n + m],
        new_upper[2 * n + m:])
