"""Nonlinear splittings: projectors, lifts, classification, and curvature.

A splitting is the data of m coefficient fields h^alpha(x, y, v); the
horizontal image of a base velocity v at (x, y) is the tangent vector
(v, h(x, y, v)).  Nothing here assumes linearity in v: Ehresmann (linear),
affine and positively-homogeneous splittings are special cases detected by
sampling, never assumed.  An affine splitting h = A0 - A v, whether
compiled from A and A0 or read off and verified by affine_decompose, is
an AffineSplittingData: a SplittingSpec that also carries A and A0 for the
curvature coefficients, whose formula curvature_lines states once for the
generated function of affine_curvature_coefficients and for the
constrained right-hand side (nonholonomic).

Splittings flagged smooth_at_zero=False are only evaluated on the slit
|v|_2 >= chart.slit_eps.

rate_residual checks a recorded curve against its recorded rates (the
lift and the constrained flow) through a five-point Lagrange stencil,
one straight-line function per stencil width and row length, generated
on first use (_stencil) and bit for bit the loop it replaced.
"""

import functools
import itertools
import math
from dataclasses import dataclass

from .bundle import (BundleChart, DerivedField, SecondTangentPoint,
                     TangentPointM, VectorField, complete_lift, lie_bracket)
from .errors import (DimensionMismatch, DomainError, NotAffine,
                     NotWellDefined)
from .exprs import (compile_field, compile_grid, compose, mentions_nonsmooth,
                    parse)
from .jets import Jet2, ScalarField
from .numerics import (TrajectoryRecord, _dot_of, _max_of, _names,
                       _total_of, as_floats, dot, generated, max_gap,
                       rk4_integrate, sample_max, total)

# classify's evidence must stay representable with room to spare: the
# square of anything above 2^512 overflows
_OVERFLOW_MARGIN = 2.0 ** 512


class SplittingSpec:
    """Coefficients of a nonlinear splitting over one chart.

    coefficients: m ScalarFields of (x, y, v), arity n+m+n.
    smooth_at_zero: False restricts evaluation to the slit |v| >= slit_eps.
    """

    def __init__(self, chart, coefficients, smooth_at_zero=True):
        if len(coefficients) != chart.m:
            raise DimensionMismatch(
                f"need {chart.m} coefficient fields, got {len(coefficients)}")
        arity = 2 * chart.n + chart.m
        for c in coefficients:
            if c.arity != arity:
                raise DimensionMismatch(
                    f"coefficient '{c.label}' has arity {c.arity}, "
                    f"expected {arity}")
        self.chart = chart
        self.coefficients = list(coefficients)
        self.smooth_at_zero = bool(smooth_at_zero)

    @classmethod
    def from_expressions(cls, chart, sources):
        """Build from m expression strings in x1.., y1.., v1..

        The splitting is smooth at zero exactly when neither abs nor sqrt
        appears in any coefficient.
        """
        ctx = chart.ctx_pullback()
        asts = [parse(s) if isinstance(s, str) else s for s in sources]
        smooth_at_zero = not any(mentions_nonsmooth(a) for a in asts)
        fields = [compile_field(a, ctx, label=src if isinstance(src, str) else None)
                  for a, src in zip(asts, sources)]
        return cls(chart, fields, smooth_at_zero)

    def admissible(self, v):
        if self.smooth_at_zero:
            return True
        return math.sqrt(dot(v, v)) >= self.chart.slit_eps

    def _require_admissible(self, v):
        if not self.admissible(v):
            raise DomainError(
                f"base velocity inside slit ball (|v| < {self.chart.slit_eps})")

    def h_values(self, x, y, v):
        """The m coefficients at (x, y, v), as a list of floats."""
        self._require_admissible(v)
        z = [*x, *y, *v]  # each coefficient converts its point to floats
        return [c.value(z) for c in self.coefficients]

    def h_jet_lists(self, x, y, v):
        """The coefficients' jet_lists at (x, y, v), as Python floats."""
        self._require_admissible(v)
        z = [*x, *y, *v]
        return [c.jet_lists(z) for c in self.coefficients]

    def h_vg_lists(self, x, y, v):
        """The coefficients' exact values and gradients at (x, y, v), as
        Python floats: vg_lists, for callers that read no Hessian."""
        self._require_admissible(v)
        z = [*x, *y, *v]
        return [c.vg_lists(z) for c in self.coefficients]

    def __repr__(self):
        return f"SplittingSpec(n={self.chart.n}, m={self.chart.m})"


def project_horizontal(spec, t):
    """P_h: keep the base velocity, replace w by h(x, y, v)."""
    w = spec.h_values(t.x, t.y, t.v)
    return TangentPointM(spec.chart, t.x, t.y, t.v, w)


def project_vertical(spec, t):
    """P_v: zero base velocity, w minus the horizontal part.

    The w-block is computed as t.w - P_h(t).w, so P_h + P_v = identity on
    w-blocks holds bit for bit.
    """
    w_h = spec.h_values(t.x, t.y, t.v)
    return TangentPointM(spec.chart, t.x, t.y, [0.0] * spec.chart.n,
                         [a - b for a, b in zip(t.w, w_h)])


def horizontality_drift(spec, states):
    """max |w - h(x, y, v)| over the state rows (x, y, v, w), folded from
    0.0 as max(drift, gap) folds it (a nan gap is passed by; no rows give
    0.0), and the list of the rows' gaps."""
    n, k = spec.chart.n, spec.chart.n + spec.chart.m
    gaps = [max_gap(r[k + n:], spec.h_values(r[:n], r[n:k], r[k:k + n]))
            for r in states]
    return max([0.0, *gaps]), gaps


def lifted_field(spec, X):
    """The horizontal lift of a base field as a field on M (for brackets)."""
    n, m = spec.chart.n, spec.chart.m
    k = n + m

    def base_comp(i):
        def ev(jets):
            return X.components[i].chain(jets[:n])
        return ScalarField(k, ev, label=f"({X.components[i].label})^h")

    def fibre_comp(a):
        def ev(jets):
            inner_v = [X.components[i].chain(jets[:n]) for i in range(n)]
            return spec.coefficients[a].chain(list(jets) + inner_v)
        return ScalarField(k, ev, label=f"h{a+1}^lift")

    comps = [base_comp(i) for i in range(n)] + [fibre_comp(a) for a in range(m)]
    return VectorField(spec.chart, comps)


def horizontal_lift_curve(spec, base_curve, y0, t0, t1, dt):
    """Integrate the lift equation dy/dt = h(x(t), y, dx/dt) with RK4.

    base_curve maps t to the pair (x(t), xdot(t)), each n floats; it is
    read once per distinct time, and what it returns is not modified.  The
    record's states hold the full rows (x, y, v, w) on the time grid;
    diagnostics carry the finite-difference residual |dy/dt - h| (central
    in the interior, one-sided at the ends).
    """
    y0 = as_floats(y0)
    if len(y0) != spec.chart.m:
        raise DimensionMismatch(f"y0 must have length {spec.chart.m}")

    rows, rates = [], []
    last = [None, None]  # the (t, y) of the last row
    read = [None, None]  # the last base curve read: its time's key, value

    def curve(t):
        # one read per distinct time: the stages at t + dt/2 share one, and
        # a row often shares the last stage's; the key keeps -0.0 apart
        key = (t, math.copysign(1.0, t))
        if key != read[0]:
            read[:] = key, base_curve(t)
        return read[1]

    def f(t, y):
        # each step's first stage is at the row just recorded
        if y is last[1] and t == last[0]:
            return rates[-1]
        x, xdot = curve(t)
        return spec.h_values(x, y, xdot)

    def row(t, y):
        x, xdot = curve(t)
        w = spec.h_values(x, y, xdot)
        rows.append(as_floats(x) + y + as_floats(xdot) + w)
        rates.append(w)
        last[:] = t, y
        return {}

    rec = rk4_integrate(f, t0, t1, y0, dt, row)
    resid = rate_residual(rec.t, rec.states, rates)
    return TrajectoryRecord(rec.t, rows, {"lift_residual": resid})


def rate_residual(ts, ys, rates):
    """Per recorded point, max |dy/dt - rate| with dy/dt from a five-point
    Lagrange stencil through the recorded rows (one-sided at the ends).
    ys and rates are rows of floats, one per time, all of one length m;
    the result is a list of floats, one per time.  A row of another
    length raises ValueError."""
    N = len(ts)
    width = min(5, N)
    if width < 2:
        return [0.0] * N
    stencil = _stencil(width, len(ys[0]))
    starts = [min(max(i - width // 2, 0), N - width) for i in range(N)]
    return [stencil(ts[j:j + width], ys[j:j + width], ts[i], rates[i])
            for i, j in enumerate(starts)]


@functools.cache
def _stencil(width, m):
    """The residual of one recorded point against a width-point Lagrange
    stencil, for rows of m floats, lowered to one straight-line function
    on first use:

      stencil(tw, yw, t, r) -> max_j |dy_j - r_j|

    dy = sum_a yw[a] w_a is the derivative at t of the interpolant through
    the rows yw at the nodes tw, exact for polynomials up to width - 1 on
    any node spacing (so the residual keeps its order across a shortened
    final step), and r the recorded rate at t.  The weight w_a is
    (sum over b != a of prod over l != a, b of (t - tw[l])) over prod
    over l != a of (tw[a] - tw[l]): the gaps t - tw[l] first, each
    product from 1.0 and each sum from 0.0 in node order, then Python's
    max over the columns, so the result is the loop's in
    tests/test_splitting.py, bit for bit."""
    k = range(width)
    body = [f"{_names('t', width)} = tw", f"{_names('y', width, m)} = yw",
            f"{_names('r', m)} = r"]
    body += [f"g{l} = t - t{l}" for l in k]
    for a in k:
        den = " * ".join(["1.0"] + [f"(t{a} - t{l})" for l in k if l != a])
        terms = [" * ".join(["1.0"] + [f"g{l}" for l in k if l not in (a, b)])
                 for b in k if b != a]
        body.append(f"w{a} = {_total_of(terms)} / ({den})")
    body.append("return " + _max_of(
        [f"abs({_dot_of((f'y{a}_{j}', f'w{a}') for a in k)} - r{j})"
         for j in range(m)]))
    return generated("stencil", "tw, yw, t, r", body,
                     f"<rate stencil, width = {width}, m = {m}>")


@dataclass
class ClassificationReport:
    """Sampling evidence for the splitting's type.

    residuals always has the keys euler_residual, linearity_residual and
    drift_residual; drift_residual is None when v=0 is not admissible.
    """
    verdict: str
    residuals: dict
    sample_count: int
    seed: int
    skipped: int = 0


def classify(spec, samples=200, seed=42, box=1.0):
    """Sample AD residuals and apply the decision rules.

    Ehresmann: no second v-derivative and no drift h(x,y,0).
    Affine: no second v-derivative.  Homogeneous: Euler identity
    v . dh/dv = h.  Otherwise General.  Linearity/drift are only decidable
    for splittings smooth at v=0.  tol = 1e-7 (1 + max sampled |h|).

    A draw whose |h|, Hessian entries or residuals exceed 2^512 sits next
    to the overflow edge; it counts as outside the domain and is redrawn,
    so no residual compared with tol comes from there.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n, m = spec.chart.n, spec.chart.m

    k = 2 * n + m
    vv = [k * i + j for i in range(n + m, k) for j in range(n + m, k)]

    def evidence(z):
        x, y, v = z[:n], z[n:n + m], z[n + m:]
        jets = spec.h_jet_lists(x, y, v)
        hz = spec.h_values(x, y, [0.0] * n) if spec.smooth_at_zero else [0.0]
        per_jet = [(abs(dot(grad[n + m:], v) - val),
                    max(abs(hess[p]) for p in vv), abs(val))
                   for val, grad, hess in jets]
        # every entry is checked, so a nan is refused before any max
        hz = [abs(e) for e in hz]
        if not all(e <= _OVERFLOW_MARGIN for e in itertools.chain(
                *per_jet, hz, *(hess for _, _, hess in jets))):
            raise DomainError("classify evidence above the overflow margin "
                              "2^512")
        return [*map(max, zip(*per_jet)), max(hz)]

    rep = sample_max(evidence, samples, seed, 2 * n + m, box)
    euler, lin, scale, drift = rep.max_residual
    tol = 1e-7 * (1.0 + scale)
    if spec.smooth_at_zero and lin < tol and drift < tol:
        verdict = "Ehresmann"
    elif spec.smooth_at_zero and lin < tol:
        verdict = "Affine"
    elif euler < tol:
        verdict = "Homogeneous"
    else:
        verdict = "General"
    residuals = {
        "euler_residual": float(euler),
        "linearity_residual": float(lin) if spec.smooth_at_zero else None,
        "drift_residual": float(drift) if spec.smooth_at_zero else None,
    }
    return ClassificationReport(verdict, residuals, rep.sample_count, seed,
                                rep.skipped)


def _vilms_slices(n, m):
    # doubled-chart variable order: x, v, y, w, X, V
    return (slice(0, n), slice(n, 2 * n), slice(2 * n, 2 * n + m),
            slice(2 * n + m, 2 * n + 2 * m),
            slice(2 * n + 2 * m, 3 * n + 2 * m),
            slice(3 * n + 2 * m, 4 * n + 2 * m))


def vilms_lift(spec):
    """The induced splitting on the tangent fibration TM -> TN.

    On the doubled chart (base (x, v), fibre (y, w)), the coefficients at
    base velocity (X, V) are Y = h(x, y, X) and
    W = h_x(x,y,X) v + h_y(x,y,X) w + h_v(x,y,X) V.

    Y-fields carry exact jets.  W-fields have exact values and gradients;
    their second derivatives in the (x, y, X) block would need third
    derivatives of h, so those jets are finished by differencing the exact
    gradient (DerivedField).  The blocks in which W is linear stay exact.
    """
    chart = spec.chart
    n, m = chart.n, chart.m
    big = BundleChart(2 * n, 2 * m, chart.slit_eps)
    arity = 4 * n + 2 * m
    sx, sv, sy, sw, sX, sV = _vilms_slices(n, m)

    def y_field(a):
        def ev(jets):
            inner = list(jets[sx]) + list(jets[sy]) + list(jets[sX])
            return spec.coefficients[a].chain(inner)
        return ScalarField(arity, ev, label=f"vilms_Y{a+1}")

    def w_field(a):
        def vg(z):
            _, g, H = spec.coefficients[a].jet_lists(
                [*z[sx], *z[sy], *z[sX]])
            u = [*z[sv], *z[sw], *z[sV]]
            k = len(u)
            hu = [dot(H[k * i:k * (i + 1)], u) for i in range(k)]
            # in the doubled chart's order x, v, y, w, X, V
            return dot(g, u), (hu[:n] + g[:n] + hu[n:n + m] + g[n:n + m]
                               + hu[n + m:] + g[n + m:])
        return DerivedField(arity, vg, label=f"vilms_W{a+1}")

    coeffs = [y_field(a) for a in range(m)] + [w_field(a) for a in range(m)]
    return SplittingSpec(big, coeffs, spec.smooth_at_zero)


def vilms_horizontal(spec, at, X, V):
    """Horizontal lift through the Vilms splitting at a point of TM.

    at is the TM point; (X, V) is the base velocity in TN.  Returns the
    second-tangent point (at; X, Y, V, W) by the displayed coefficients.
    """
    vgs = spec.h_vg_lists(at.x, at.y, X)
    u = [*at.v, *at.w, *V]
    Y = [val for val, _ in vgs]
    W = [dot(grad, u) for _, grad in vgs]
    return SecondTangentPoint(spec.chart, at.x, at.y, at.v, at.w, X, Y, V, W)


def vilms_vertical_projector(spec, s):
    """Vertical projector of the Vilms splitting, by the direct formula.

    Subtracts the horizontal part at base velocity (X, V) from the upper
    block; the independent oracle is flip . tangent-map(P_v) . flip.
    """
    h = vilms_horizontal(spec, TangentPointM(s.chart, s.x, s.y, s.v, s.w),
                         s.X, s.V)
    zero = [0.0] * s.chart.n
    return SecondTangentPoint(s.chart, s.x, s.y, s.v, s.w,
                              zero, [a - b for a, b in zip(s.Y, h.Y)],
                              zero, [a - b for a, b in zip(s.W, h.W)])


def pv_component_fields(spec):
    """P_v as 2(n+m) scalar fields of (x, y, v, w), for tangent_map oracles."""
    n, m = spec.chart.n, spec.chart.m
    k = 2 * (n + m)

    def selector(i, label):
        return ScalarField(k, lambda jets, i=i: jets[i], label=label)

    def zero(label):
        return ScalarField(k, lambda jets: Jet2.constant(0.0, k), label=label)

    def w_comp(a):
        def ev(jets):
            inner = list(jets[:n + m]) + list(jets[n + m:2 * n + m])
            return jets[2 * n + m + a] - spec.coefficients[a].chain(inner)
        return ScalarField(k, ev, label=f"Pv_w{a+1}")

    return ([selector(i, f"Pv_x{i+1}") for i in range(n)]
            + [selector(n + a, f"Pv_y{a+1}") for a in range(m)]
            + [zero(f"Pv_v{i+1}") for i in range(n)]
            + [w_comp(a) for a in range(m)])


@dataclass
class VilmsCheckReport:
    """Comparison of the two lift routes through a coordinate direction."""
    complete_residual: float


def vilms_complete_lift_check(spec, j, at):
    """Check (lift of d/dx_j)^complete against the Vilms lift of d/dx_j."""
    n = spec.chart.n
    if not 0 <= j < n:
        raise DimensionMismatch(f"coordinate index {j} out of range")
    zero = [0.0] * n
    ej = [1.0 if i == j else 0.0 for i in range(n)]
    const = [ScalarField(n, lambda jets, c=ej[i]: Jet2.constant(c, n),
                         label=f"e{j+1}[{i}]") for i in range(n)]
    Xfield = VectorField(spec.chart, const)
    A_c = complete_lift(lifted_field(spec, Xfield), at)
    B_c = vilms_horizontal(spec, at, ej, zero)
    return VilmsCheckReport(max_gap(A_c.upper(), B_c.upper()))


def curvature_rbar(spec, X, Y, m_pt):
    """Curvature through lifted brackets: [X^h, Y^h] - [X, Y]^h at (x, y).

    The base blocks of the two terms cancel identically; the returned
    tangent vector is P_v of the first at base velocity [X, Y]: zero
    v-block, the fibre difference in its w-block.
    """
    x, y = as_floats(m_pt[0]), as_floats(m_pt[1])
    n = spec.chart.n
    br = lie_bracket(lifted_field(spec, X), lifted_field(spec, Y))
    br_vals = br.values(x + y)
    vb = lie_bracket(X, Y).values(x)
    gap = max_gap(br_vals[:n], vb)
    if gap > 1e-9:
        raise NotWellDefined(f"base blocks failed to cancel: {gap:.3e}")
    return project_vertical(spec, TangentPointM(spec.chart, x, y, vb,
                                                br_vals[n:]))


def _linear_extension(chart, values, x0, salt):
    """A non-constant base field through (x0, values), for dependence tests."""
    n = chart.n

    def comp(i):
        def ev(jets):
            out = Jet2.constant(values[i], n)
            for l in range(n):
                c = 0.31 + 0.07 * (i + 1) + 0.11 * (l + 1) + 0.05 * salt
                out = out + c * (jets[l] - x0[l])
            return out
        return ScalarField(n, ev, label=f"ext{salt}_{i+1}")

    return VectorField(chart, [comp(i) for i in range(n)])


def curvature_pointwise(spec, u, v, m_pt):
    """Curvature at a point from constant extensions of the two vectors.

    Recomputes with deliberately different (linear) extensions; if the two
    answers differ by more than 1e-7 the value depends on the extension and
    NotWellDefined is raised.  Affine splittings pass the check.  The
    constant extensions have base bracket [X, Y] = 0, where a splitting
    that is not smooth at v = 0 is undefined: NotWellDefined too.
    """
    chart = spec.chart
    if not spec.smooth_at_zero:
        raise NotWellDefined(
            "curvature needs h at the base bracket [X, Y] = 0, inside the "
            f"slit ball (|v| < {chart.slit_eps})")
    u, v, x0 = as_floats(u), as_floats(v), as_floats(m_pt[0])
    n = chart.n

    def const_field(vals):
        return VectorField(chart, [
            ScalarField(n, lambda jets, c=vals[i]: Jet2.constant(c, n),
                        label=f"const{i+1}") for i in range(n)])

    r1 = curvature_rbar(spec, const_field(u), const_field(v), m_pt)
    r2 = curvature_rbar(spec, _linear_extension(chart, u, x0, 1),
                        _linear_extension(chart, v, x0, 2), m_pt)
    dep = max_gap(r1.w, r2.w)
    if dep > 1e-7:
        raise NotWellDefined(
            f"curvature value depends on the extension (difference {dep:.3e})")
    return r1


class AffineSplittingData(SplittingSpec):
    """An affine splitting h = A0 - A_i v^i, with its fields A and A0.

    A is an m x n nested list of ScalarFields of (x, y); A0 is a list of m
    such fields.  The coefficients are the splitting's own m fields of
    (x, y, v).  reconstruction_residual records how well the affine
    reconstruction matched the source splitting (None when constructed
    from expressions).
    """

    def __init__(self, chart, coefficients, A, A0,
                 reconstruction_residual=None):
        super().__init__(chart, coefficients)
        self.A = A
        self.A0 = A0
        self.reconstruction_residual = reconstruction_residual

    @classmethod
    def from_expressions(cls, chart, A_sources, A0_sources):
        """Compile A and A0 from expressions in x1.., y1..; each
        coefficient h^a = A0^a - A^a_1 v^1 - ... - A^a_n v^n is one tape
        over (x, y, v), compiled from the fields' ASTs by substitution."""
        point, pullback = chart.ctx_point(), chart.ctx_pullback()
        A = compile_grid(A_sources, point, (chart.m, chart.n))
        A0 = compile_grid(A0_sources, point, (chart.m,))
        formula = "A0" + "".join(f" - A{i+1}*{v}"
                                 for i, v in enumerate(chart.v_names))

        def coeff(a):
            fields = {"A0": A0[a]}
            fields.update({f"A{i+1}": f for i, f in enumerate(A[a])})
            return compose(formula, fields, pullback, f"h{a+1}_affine")

        return cls(chart, [coeff(a) for a in range(chart.m)], A, A0)


def affine_decompose(spec, samples=100, seed=0, box=1.0):
    """Read off A_0 = h(x,y,0) and A_i = -dh/dv_i(x,y,0), then verify.

    Returns the verified splitting itself as AffineSplittingData: its
    coefficients are spec.coefficients, with A and A0 read off.  The
    reconstruction, from one jet per coefficient at (x, y, 0), is
    compared with h at `samples` usable points of [-box, box] (sample_max:
    a draw outside the domain, at v or at v = 0, is redrawn); a max-abs
    mismatch above 1e-7 raises NotAffine.  A splitting that is not smooth
    at v = 0 is not affine and raises NotAffine unsampled: it is never
    evaluated at the v = 0 the read-off needs.
    """
    if not spec.smooth_at_zero:
        raise NotAffine("splitting is not smooth at v = 0")
    chart = spec.chart
    n, m = chart.n, chart.m

    def a0_field(a):
        def ev(jets):
            zero = [Jet2.constant(0.0, n + m) for _ in range(n)]
            return spec.coefficients[a].chain(list(jets) + zero)
        return ScalarField(n + m, ev, label=f"A0_{a+1}")

    k = 2 * n + m

    def a_field(a, i):
        r = k * (n + m + i)  # the row of d/dv_i in h's Hessian

        def vg(q):
            _, g, H = spec.coefficients[a].jet_lists(q + [0.0] * n)
            return -g[n + m + i], [-e for e in H[r:r + n + m]]
        return DerivedField(n + m, vg, label=f"A{a+1}_{i+1}")

    A = [[a_field(a, i) for i in range(n)] for a in range(m)]
    A0 = [a0_field(a) for a in range(m)]

    def residual(z):
        v = z[n + m:]
        h = spec.h_values(z[:n], z[n:n + m], v)
        jets = [c.jet_lists(z[:n + m] + [0.0] * n) for c in spec.coefficients]
        recon = [dot(grad[n + m:], v) + val for val, grad, _ in jets]
        return max_gap(h, recon)

    worst = sample_max(residual, samples, seed, 2 * n + m, box).max_residual
    if not worst <= 1e-7:  # a NaN residual fails too
        raise NotAffine(f"reconstruction residual {worst:.3e} exceeds 1e-7")
    return AffineSplittingData(chart, spec.coefficients, A, A0, worst)


def curvature_lines(n, m):
    """The source lines of the affine curvature coefficients, for a
    generated function to hold.  From the values Av{a}_{i} and gradients
    Ag{a}_{i}_{j} of the A fields and the values A0v{a} and gradients
    A0g{a}_{j} of the A0 fields (gradients over the point (x, y): first n
    entries d/dx, next m d/dy), they leave B^a_ij, from [H_i, H_j] with
    H_i = d/dx_i - A^b_i d/dy_b, in B{a}_{i}_{j}, and the drift
    derivative A^a_0i = H_i(A0^a) + A0(A^a_i) in A0d{a}_{i}:

      B^a_ij = -dA^a_j/dx_i + A^b_i dA^a_j/dy_b
               + dA^a_i/dx_j - A^b_j dA^a_i/dy_b
      A^a_0i = dA0^a/dx_i - A^b_i dA0^a/dy_b + A0^b dA^a_i/dy_b

    each contraction over b a dot from 0.0 in index order."""
    N, M = range(n), range(m)

    def contract(i, grad):
        """A^b_i grad_b over b, grad the y-part of a gradient."""
        return _dot_of((f"Av{b}_{i}", f"{grad}_{n + b}") for b in M)

    body = [f"B{a}_{i}_{j} = -Ag{a}_{j}_{i} + {contract(i, f'Ag{a}_{j}')}"
            f" + Ag{a}_{i}_{j} - {contract(j, f'Ag{a}_{i}')}"
            for a in M for i in N for j in N]
    body += [f"A0d{a}_{i} = A0g{a}_{i} - {contract(i, f'A0g{a}')} + "
             + _dot_of((f"A0v{b}", f"Ag{a}_{i}_{n + b}") for b in M)
             for a in M for i in N]
    return body


def curvature_reads(n, m):
    """The lines unpacking A, the m x n A fields' jets in row order, and
    A0, the m A0 fields' jets, as jet_lists gives them, into the locals
    curvature_lines reads."""
    A = [f"(Av{a}_{i}, {_names(f'Ag{a}_{i}_', n + m)}, _)"
         for a in range(m) for i in range(n)]
    A0 = [f"(A0v{a}, {_names(f'A0g{a}_', n + m)}, _)" for a in range(m)]
    return [f"{', '.join(A)}, = A", f"{', '.join(A0)}, = A0"]


@functools.cache
def _curvature(n, m):
    """affine_curvature_coefficients after its field reads, for n base and
    m fibre dimensions, lowered to one straight-line function on first
    use:

      curvature(A, A0) -> (B, A0d, A values)

    from the jets of the A fields, row by row, and of the A0 fields
    (curvature_lines)."""
    body = curvature_reads(n, m) + curvature_lines(n, m)
    body.append(f"return {_names('B', m, n, n)}, {_names('A0d', m, n)}, "
                f"{_names('Av', m, n)}")
    return generated("curvature", "A, A0", body,
                     f"<affine curvature, n = {n}, m = {m}>")


def affine_curvature_coefficients(data, x, y):
    """B^a_ij from [H_i, H_j] with H_i = d/dx_i - A^b_i d/dy_b, and the
    drift derivatives A^a_0i = H_i(A0^a) + A0(A^a_i), from one float jet
    (jet_lists) per field, A's row by row and then A0's, by the generated
    function of curvature_lines.

    Returns (B, A0d, A) as nested lists of floats, m x n x n, m x n and
    m x n, A the values of the A fields read from the same jets.
    """
    q = as_floats(x) + as_floats(y)
    return _curvature(data.chart.n, data.chart.m)(
        [f.jet_lists(q) for row in data.A for f in row],
        [f.jet_lists(q) for f in data.A0])


def rbar_zero(data, zeta, w_pt):
    """The affine curvature contraction: zeta^i (v^j B^a_ij + A^a_0i) d/dy_a.

    zeta is a base field evaluated at the foot of w_pt; v is the base
    velocity of w_pt.  The result is a vertical tangent vector at (x, y).
    """
    B, A0d, _ = affine_curvature_coefficients(data, w_pt.x, w_pt.y)
    zv = zeta.values(w_pt.x)
    n, m = data.chart.n, data.chart.m
    w = [total(zv[i] * (dot(B[a][i], w_pt.v) + A0d[a][i]) for i in range(n))
         for a in range(m)]
    return TangentPointM(data.chart, w_pt.x, w_pt.y, [0.0] * n, w)
