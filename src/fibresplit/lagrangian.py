"""Lagrangians on the total space: EL fields, induced splittings, subduction.

A fibre-regular Lagrangian L(x, y, v, w) determines a splitting through the
relation dL/dw = 0 on the horizontal manifold.  The splitting is
Newton-backed: each point solves that m-dimensional system once for all m
coefficients, by damped Newton with adaptive continuation along s v, or,
where L is an expression at most quadratic in w (dL/dw affine in w), by
one Newton solve from w = 0.  Values need no more; first derivatives of
the coefficient fields come from the implicit-function formula
dh/dz = -(L_ww)^-1 L_wz, at the same root for all m of them (h_vg_lists).
Every jet of L is read as float lists (jet_lists), and Newton, the
continuation, the roots and the SODE forces are float lists; the subduced
Lagrangian gives its own jets that way too and wraps them in a Jet2 only
in its public jet().

The EL force, from L's jet to the acceleration, is one straight-line
function per velocity count k, with an external force or without
(_el_tail), generated on first use like the solve kernels of numerics,
whose lines it inlines; every caller of _force_from_jet runs it, whatever
the field (a tape, a subduced or a reduced Lagrangian).
"""

import functools
import math
from dataclasses import dataclass, replace

from .bundle import DerivedField
from .errors import (BranchAmbiguity, DimensionMismatch, DomainError,
                     HypothesisFailed, NoConvergence, NotSubducible,
                     SingularHessian, SingularMatrix)
from .exprs import compile_field, mentions_nonsmooth, parse, polynomial_degree
from .jets import Jet2, ScalarField
from .numerics import (Generator, _dot_of, _solve_lines, all_finite,
                       as_floats, condition_number, det, dot, generated,
                       linear_solve, max_gap, newton_solve, rk4_integrate,
                       sample_max)
from .splitting import SplittingSpec, horizontality_drift


@dataclass
class LagrangianSpec:
    """A Lagrangian as a scalar field of (x, y, v, w), arity 2(n+m).

    homogeneity_flag optionally declares a velocity-homogeneity degree;
    nonsmooth marks kinked dependence (abs/sqrt) so induced splittings
    inherit the slit restriction.
    """
    chart: object
    field: ScalarField
    homogeneity_flag: float = None
    nonsmooth: bool = False

    def __post_init__(self):
        k = 2 * (self.chart.n + self.chart.m)
        if self.field.arity != k:
            raise DimensionMismatch(
                f"Lagrangian arity {self.field.arity}, expected {k}")

    @classmethod
    def from_expression(cls, chart, source, homogeneity_flag=None):
        ast = parse(source) if isinstance(source, str) else source
        f = compile_field(ast, chart.ctx_tangent(),
                          label=source if isinstance(source, str) else None)
        return cls(chart, f, homogeneity_flag, mentions_nonsmooth(ast))


@dataclass
class SodeSpec:
    """Second-order field on dim coordinates: d(q)/dt = u and
    d(u)/dt = force(q, u); force takes q and u as lists of dim floats,
    which it must not modify, and returns dim floats (the forces built
    here return lists and also accept arrays)."""
    dim: int
    force: object


def integrate_sode(sode, z0, t0, t1, dt, diagnostic=None):
    """Integrate a SODE; states are rows (q, u) on the time grid.  Each RK4
    stage hands force the list slices q and u of its float-list state."""
    k = sode.dim
    z0 = as_floats(z0)
    if len(z0) != 2 * k:
        raise DimensionMismatch(f"state must have length {2 * k}")

    def f(t, z):
        return z[k:] + as_floats(sode.force(z[:k], z[k:]))

    return rk4_integrate(f, t0, t1, z0, dt, diagnostic)


def fibre_regularity(L, w_pt):
    """Determinant and 1-norm condition number (the one linear_solve
    bounds) of the fibre Hessian d2L/dw dw."""
    k = 2 * L.chart.n + L.chart.m
    z = w_pt.as_array()
    W = _fibre_system(L, z[:k])(z[k:])[1]
    return {"det": det(W),
            "condition": condition_number(W)}


def force_lines(k, extra):
    """The source lines of the EL force, for a generated function to hold.
    From L's gradient and row-major Hessian at (q, u) in the locals g and
    H, u in u0.. and, if extra, an external force in e0.., they leave the
    acceleration f in w0_0.., solved from

      (d2L/du du) f = dL/dq - (d2L/du dq) u + extra

    each (d2L/du dq) u a dot from 0.0 in index order.  The solve is
    numerics._solve_lines'; its SingularMatrix (a singular velocity
    Hessian, an entry that is not finite) is raised as SingularHessian."""
    K = 2 * k
    lower = range(K * k, K * K)  # the rows of d2L/du dz
    body = [f"a{i}_{j} = h{K * (k + i) + k + j}" for i in range(k)
            for j in range(k)]
    for i in range(k):
        mixed = _dot_of((f"h{K * (k + i) + j}", f"u{j}") for j in range(k))
        body.append(f"b0_{i} = g[{i}] - {mixed}" + (f" + e{i}" if extra
                                                     else ""))
    rows = ", ".join(f"h{i}" if i in lower else "_" for i in range(K * K))
    return ([f"{rows}, = H"] if k else []) + (["try:"]
            + [f"    {line}" for line in body + _solve_lines(k, 1)]
            + ["except _SingularMatrix as exc:",
               "    raise _SingularHessian(f'velocity Hessian singular: "
               "{exc}') from exc"])


@functools.cache
def _el_tail(k, extra):
    """_force_from_jet for k velocities, with an external force or
    without, lowered to one straight-line function on first use:

      force(jet, u, extra) -> f"""
    body = ["_, g, H = jet"]
    if k:
        body.append(f"{', '.join(f'u{i}' for i in range(k))}, "
                    "= map(float, u)")
    if k and extra:
        body.append(f"{', '.join(f'e{i}' for i in range(k))}, = extra")
    body += force_lines(k, extra)
    body.append(f"return [{', '.join(f'w0_{i}' for i in range(k))}]")
    return generated("force", "jet, u, extra", body,
                     f"<EL force, k = {k}{', extra' if extra else ''}>",
                     _SingularHessian=SingularHessian)


def _force_from_jet(jet, u, extra=None):
    """Solve (d2L/du du) f = dL/dq - (d2L/du dq) u + extra for the
    acceleration f, a list of k floats, from L's jet at (q, u) as
    jet_lists gives it, u as k numbers and extra, an external force of k
    floats, or None for none (force_lines)."""
    return _el_tail(len(u), extra is not None)(jet, u, extra)


def euler_lagrange_sode(field):
    """The EL field of a Lagrangian field of (q, u), arity 2 dim, with the
    acceleration solved pointwise."""
    if field.arity % 2:
        raise DimensionMismatch(
            f"Lagrangian arity {field.arity} is odd; expected 2 * dim")

    k = field.arity // 2

    def force(q, u):
        return _el_tail(k, False)(field.jet_lists([*q, *u]), u, None)

    return SodeSpec(k, force)


def _fibre_system(L, z):
    """w -> (dL/dw, d2L/dw dw) at (z, w), for z = (x, y, v) and w lists
    of floats; system.jet keeps L's jet_lists at the last w."""
    k, K = len(z), L.field.arity

    def system(w):
        system.jet = _, grad, hess = L.field.jet_lists(z + w)
        return grad[k:], [hess[K * r + k:K * (r + 1)] for r in range(k, K)]

    return system


def _fibre_solve(jet, k):
    """-(L_ww)^-1 [L_w | L_wz] from L's jet_lists at (z, w), len(z) = k:
    column 0 is the Newton step for dL/dw = 0, the others dw/dz."""
    _, grad, hess = jet
    K = len(grad)
    rows = [hess[K * r:K * (r + 1)] for r in range(k, K)]
    return linear_solve([row[k:] for row in rows],
                        [[-grad[r]] + [-e for e in row[:k]]
                         for r, row in zip(range(k, K), rows)])


# Step control of InducedSplitting.solve_detail's continuation
_CONTRACTION_MAX = 0.25
_CORRECTOR_MAX_ITER = 3
_MIN_STEP = 1.0 / 1024


class InducedSplitting(SplittingSpec):
    """Newton-backed splitting solving dL/dw (x, y, v, w) = 0 for w."""

    def __init__(self, L):
        chart = L.chart
        self._L = L
        # at most quadratic in w: dL/dw is affine, solved in one Newton step
        ast = getattr(L.field, "ast", None)
        self._affine = ast is not None and \
            polynomial_degree(ast, chart.w_names) <= 2

        def coeff(a):
            def vg(z):
                w, dh = self._solve_vg(z)
                return w[a], dh[a][1:]
            return DerivedField(2 * chart.n + chart.m, vg,
                                label=f"h{a+1}_induced")

        super().__init__(chart, [coeff(a) for a in range(chart.m)],
                         smooth_at_zero=not L.nonsmooth)

    def solve_detail(self, x, y, v):
        """Solve dL/dw (x, y, s v, w) = 0 by continuation from s = 0 to 1;
        returns (w, Newton iterations of the final corrector at s = 1),
        with w a list of m floats.  Where L is at most quadratic in w, one
        Newton solve at s = 1 from w = 0 and the polish replace the
        continuation, and the iterations are that solve's.

        Newton starts from w = 0 at s = 0; the tangent dw/ds = -L_ww^-1
        L_wv v (zero where L_ww is singular) predicts each next point.  ds
        starts at 1 and doubles after an accepted step; a corrector that
        fails, leaves the domain, takes over 3 iterations or contracts by
        less than 4x halves it, below 1/1024 its error is raised, and
        points inside the slit are skipped.  A last Newton step polishes w.
        Every point, root and step is a list of floats.
        """
        xy, v = as_floats([*x, *y]), as_floats(v)
        self._require_admissible(v)
        n, m = self.chart.n, self.chart.m
        L, k = self._L, 2 * n + m

        def newton(s, w0, *limits):
            """Root at s v, iterations, Newton step there and dw/ds."""
            z = xy + [s * e for e in v]
            system = _fibre_system(L, z)
            try:
                res = newton_solve(system, w0, *limits)
            except SingularMatrix as exc:
                raise SingularHessian(str(exc)) from exc
            try:  # newton_solve's last system call was at the root
                g = _fibre_solve(system.jet, k)
            except SingularMatrix:
                return res.x, res.iterations, [0.0] * m, [0.0] * m
            return (res.x, res.iterations, [row[0] for row in g],
                    [dot(row[1 + n + m:], v) for row in g])

        if self._affine:
            root, its, step, _ = newton(1.0, [0.0] * m)
            return [a + b for a, b in zip(root, step)], its
        s, ds = 0.0, 1.0
        w = dw = [0.0] * m
        try:
            w, _, _, dw = newton(0.0, w)
        except DomainError:
            pass  # slit Lagrangians are not evaluable at v=0
        while True:
            ds = min(ds, 1.0 - s)  # s stays dyadic, so s + ds hits 1 exactly
            try:
                root, its, step, tangent = newton(
                    s + ds, [a + ds * b for a, b in zip(w, dw)],
                    _CORRECTOR_MAX_ITER, _CONTRACTION_MAX)
            except (DomainError, NoConvergence, SingularHessian):
                if not self.admissible([(s + ds) * e for e in v]):
                    s, dw = s + ds, [0.0] * m  # skip, as at s = 0
                elif ds > _MIN_STEP:
                    ds *= 0.5
                else:
                    raise
                continue
            if s + ds == 1.0:
                return [a + b for a, b in zip(root, step)], its
            s, w, dw, ds = s + ds, root, tangent, 2.0 * ds

    def _solve_vg(self, z):
        """h at z = (x, y, v), a list of floats, from one continuation
        solve, and _fibre_solve at the root: row a from entry 1 is dh^a/dz."""
        n, m = self.chart.n, self.chart.m
        w, _ = self.solve_detail(z[:n], z[n:n + m], z[n + m:])
        return w, _fibre_solve(self._L.field.jet_lists(z + w), len(z))

    def h_values(self, x, y, v):
        """All m coefficients from one continuation solve, without dh."""
        return self.solve_detail(x, y, v)[0]

    def h_vg_lists(self, x, y, v):
        """Every coefficient's value and gradient, as each coefficient's
        vg_lists gives it, from one solve and one _fibre_solve."""
        w, dh = self._solve_vg(as_floats([*x, *y, *v]))
        dh = [row[1:] for row in dh]
        if not all_finite(w, *dh):
            raise DomainError("jet has non-finite entries")
        return list(zip(w, dh))


def _probe_branches(spec):
    """Reject models where Newton, started from 10 seeds at each of 5 probe
    points, lands on a second nearby root; a probe point whose reference
    solve fails is redrawn, and DomainError means none could be solved.
    Points come from [-b, b], b = max(0.5, 2 slit_eps): past the slit.
    Where L is quadratic in w and L_ww passes linear_solve at the reference
    root, that root is the only one, and the drawn seeds are not run."""
    n, m = spec.chart.n, spec.chart.m
    rng = Generator(2718)

    def probe(z):
        x, y, v = z[:n], z[n:n + m], z[n + m:]
        try:
            w_ref = spec.solve_detail(x, y, v)[0]
        except (NoConvergence, SingularHessian) as exc:
            raise DomainError(f"no reference root: {exc}") from exc
        seeds = [[0.0] * m, [0.5] * m, [-0.5] * m]
        seeds += [rng.uniform(-0.7, 0.7, m) for _ in range(7)]
        system = _fibre_system(spec._L, z)
        if spec._affine:
            try:  # an affine map with a nonsingular matrix has one root
                linear_solve(system(w_ref)[1], [0.0] * m)
                return 0.0
            except SingularMatrix:
                pass
        for s0 in seeds:
            try:
                res = newton_solve(system, s0)
            except (DomainError, NoConvergence, SingularMatrix):
                continue
            gap = max(abs(a - b) for a, b in zip(res.x, w_ref))
            if gap > 1e-6 * (1.0 + max(map(abs, w_ref))):
                raise BranchAmbiguity(
                    f"second root at distance {gap:.3e} from the tracked "
                    f"branch near x={x!r}, v={v!r}")
        return 0.0

    sample_max(probe, 5, rng, 2 * n + m, max(0.5, 2.0 * spec.chart.slit_eps))


def induced_splitting(L, probe=True):
    """The splitting determined by dL/dw = 0, branch-checked at load."""
    spec = InducedSplitting(L)
    if probe:
        _probe_branches(spec)
    return spec


def symmetry_condition_check(L, h, samples=50, seed=42, box=1.0):
    """Max over samples of |dL/dy| at (x, y, v, h(x, y, v)): the
    fibre-frame symmetry residual."""
    n, m = L.chart.n, L.chart.m

    def residual(z):
        w = h.h_values(z[:n], z[n:n + m], z[n + m:])
        return max(map(abs, L.field.jet_lists([*z, *w])[1][n:n + m]))

    return sample_max(residual, samples, seed, 2 * n + m, box)


def tangency_check(L, h, samples=50, seed=42, box=1.0):
    """Max over samples on the horizontal manifold of |Gamma_L(dL/dw)|.

    The level functions of the horizontal manifold are g_a = dL/dw^a; the
    residual is their derivative along the EL field at points (x,y,v,h).
    """
    n, m = L.chart.n, L.chart.m
    k = n + m

    def residual(xyv):
        z = xyv + h.h_values(xyv[:n], xyv[n:k], xyv[k:])
        jet = L.field.jet_lists(z)
        u = z[k:]
        f = _force_from_jet(jet, u)
        rows = [jet[2][2 * k * r:2 * k * (r + 1)]
                for r in range(2 * n + m, 2 * k)]
        return max(abs(dot(row[:k], u) + dot(row[k:], f)) for row in rows)

    return sample_max(residual, samples, seed, 2 * n + m, box)


class SubducedField(ScalarField):
    """L restricted to the horizontal manifold, as a field of (x, v).

    Jets are exact: with dL/dw = 0 along h, all first and second
    derivatives of the restriction collapse to Schur complements of L's
    own jet, so no derivatives of h enter.  The positions of the blocks in
    L's row-major Hessian are fixed per field.
    """

    def __init__(self, L, h, y_ref):
        n, m = L.chart.n, L.chart.m
        super().__init__(2 * n, None, "Lbar")
        self.L = L
        self.h = h
        self.y_ref = as_floats(y_ref)
        K = L.field.arity
        zpos = [*range(n), *range(n + m, 2 * n + m)]   # x and v positions
        wpos = range(2 * n + m, K)
        self._zpos = zpos
        self._zz = [[K * i + j for j in zpos] for i in zpos]
        self._zw = [[K * i + a for a in wpos] for i in zpos]
        self._ww = [[K * a + b for b in wpos] for a in wpos]

    def _z(self, q):
        """The point (x, y_ref, v, h(x, y_ref, v)) of M for q = (x, v)."""
        q = as_floats(q)
        if len(q) != self.arity:
            raise DimensionMismatch(f"expected {self.arity} inputs")
        n = self.L.chart.n
        x, v = q[:n], q[n:]
        return [*x, *self.y_ref, *v, *self.h.h_values(x, self.y_ref, v)]

    def value(self, q):
        return self.L.field.value(self._z(q))

    def jet_lists(self, q):
        val, grad, hess = self.L.field.jet_lists(self._z(q))
        zw = [[hess[p] for p in row] for row in self._zw]
        try:
            # X[j] = Hww^-1 Hwz[:, j] for each x and v position j
            X = list(zip(*linear_solve(
                [[hess[p] for p in row] for row in self._ww], list(zip(*zw)))))
        except SingularMatrix as exc:
            raise SingularHessian(f"fibre Hessian singular: {exc}") from exc
        H = [[hess[p] - dot(zw[i], X[j]) for j, p in enumerate(row)]
             for i, row in enumerate(self._zz)]
        k = self.arity
        sym = [0.5 * (H[i][j] + H[j][i]) for i in range(k) for j in range(k)]
        if not all_finite(sym):
            raise DomainError("jet has non-finite entries")
        return val, [grad[p] for p in self._zpos], sym

    def jet(self, q):
        return Jet2._trusted(*self.jet_lists(q))


@dataclass
class SubductionResult:
    Lbar: ScalarField
    y_independence: float
    y_ref: list


def subduce(L, h, samples=50, seed=42, box=1.0):
    """Restrict L to the horizontal manifold and verify it drops to the base.

    Checks the defining relation dL/dw . h = 0 and the independence of
    L . h from the fibre point; NotSubducible on either failure.  y_ref is
    the fibre point of the first sample.
    """
    n, m = L.chart.n, L.chart.m
    y_ref = None

    def residuals(xyv):
        nonlocal y_ref
        x, y, v = xyv[:n], xyv[n:n + m], xyv[n + m:]
        z = [*xyv, *h.h_values(x, y, v)]
        val, g, _ = L.field.jet_lists(z)
        if y_ref is None:
            y_ref = y
        w_ref = h.h_values(x, y_ref, v)
        val_ref = L.field.value([*x, *y_ref, *v, *w_ref])
        return max(map(abs, g[2 * n + m:])), abs(val - val_ref)

    rep = sample_max(residuals, samples, seed, 2 * n + m, box)
    worst_rel, worst_dep = rep.max_residual
    if worst_rel > 1e-6:
        raise NotSubducible(
            f"defining relation fails: max |dL/dw . h| = {worst_rel:.3e}")
    if worst_dep > 1e-6:
        raise NotSubducible(
            f"restriction depends on the fibre point: {worst_dep:.3e}")
    return SubductionResult(SubducedField(L, h, y_ref), worst_dep, y_ref)


@dataclass
class ProjectionReport:
    max_base_deviation: float
    horizontality_drift: float
    el_residual_reduced: float
    min_lbar_det: float


def projection_verify(L, h, ic_base, y0, T, dt, samples=50, seed=42,
                      box=1.0):
    """Integrate the full EL field from a horizontal start and compare its
    base shadow with the subduced dynamics started at the same (x0, v0).
    The subduced Lagrangian comes from subduce(L, h, samples, seed, box).

    Reports the max base deviation, the drift |w - h(x,y,v)| along the full
    run, the EL residual of the subduced Lagrangian along the projected
    curve (finite differences in t), and the minimum |det| of the subduced
    velocity Hessian seen on the grid.
    """
    n, m = L.chart.n, L.chart.m
    x0, v0, y0 = as_floats(ic_base[0]), as_floats(ic_base[1]), as_floats(y0)
    w0 = h.h_values(x0, y0, v0)
    full = integrate_sode(euler_lagrange_sode(L.field), x0 + y0 + v0 + w0,
                          0.0, T, dt)
    Lbar = subduce(L, h, samples, seed, box).Lbar
    red = integrate_sode(euler_lagrange_sode(Lbar), x0 + v0, 0.0, T, dt)

    dev = max(max_gap(row[:n], red_row[:n])
              for row, red_row in zip(full.states, red.states))

    # row 0's gap is max_gap(w0, w0) = 0.0, which the fold already holds
    drift = horizontality_drift(h, full.states[1:])[0]

    # EL residual of Lbar along the projected full trajectory
    ts = full.t
    ps, gx = [], []
    min_det = math.inf
    for row in full.states:
        _, grad, hess = Lbar.jet_lists(row[:n] + row[n + m:2 * n + m])
        ps.append(grad[n:])
        gx.append(grad[:n])
        Huu = [hess[2 * n * r + n:2 * n * (r + 1)] for r in range(n, 2 * n)]
        min_det = min(min_det, abs(det(Huu)))
    el_res = 0.0
    for i in range(1, len(ts) - 1):
        dt_i = ts[i + 1] - ts[i - 1]
        el_res = max(el_res, max(abs((a - b) / dt_i - g) for a, b, g in
                                 zip(ps[i + 1], ps[i - 1], gx[i])))
    return ProjectionReport(dev, drift, el_res, min_det)


def liouville_terms(field, z, k):
    """(u . dF/du, F) at z = (q, u), u the entries of z from k on: the
    Liouville derivative of the field F and its value, from one jet."""
    z = as_floats(z)
    value, grad, _ = field.jet_lists(z)
    return dot(grad[k:], z[k:]), value


def energy(field, z, k):
    """u . dF/du - F, the energy of the field F at z (see liouville_terms)."""
    delta, value = liouville_terms(field, z, k)
    return delta - value


def liouville_derivative(L, z):
    """Delta(L) = v . dL/dv + w . dL/dw at the state z = (x, y, v, w)."""
    return liouville_terms(L.field, z, L.chart.n + L.chart.m)[0]


def homogeneity_of_induced(L, h, samples=50, seed=42, box=1.0):
    """Euler residual of h, the splitting L induces, under the
    2-homogeneity hypothesis Delta(L) = 2L (checked first; HypothesisFailed
    otherwise)."""
    n, m = L.chart.n, L.chart.m

    def hypothesis(z):
        delta, value = liouville_terms(L.field, z, n + m)
        gap = abs(delta - 2.0 * value)
        if gap >= 1e-8:
            raise HypothesisFailed(
                f"Delta(L) - 2L = {gap:.3e} at z={z!r}; Lagrangian "
                f"is not 2-homogeneous in the velocities")
        return gap

    sample_max(hypothesis, samples, seed, 2 * (n + m), box)

    def euler(z):
        v = z[n + m:]
        try:
            vgs = h.h_vg_lists(z[:n], z[n:n + m], v)
        except NoConvergence as exc:
            raise DomainError(f"no induced jet: {exc}") from exc
        return max(abs(dot(grad[n + m:], v) - val) for val, grad in vgs)

    rep = sample_max(euler, samples, seed + 1, 2 * n + m, box)
    return replace(rep, seed=seed)
