"""Vertical-frame actions, momentum maps, unreduction, and the magnetic
quasi-velocity system.

A fibre action enters only infinitesimally, through an invertible matrix
of generator coefficients K (column gamma holds the y-components of the
generator E_gamma) and structure constants C; every reader of K takes one
ActionSpec.frame read per point, one jet per field.  Group elements are never
materialized; equivariance tests integrate generator flows numerically,
lifted to the double tangent bundle through their variational equations.
The magnetic model's reduced base Lagrangian is one tape compiled from the
model's expressions by substitution.  A magnetic right-hand side reads its
fields (the jets of Lbar and A_fibre, the values of Upsilon and Kcurv) and
hands them to one straight-line function per (n, m), generated on first
use (_magnetic_tail), which holds the EL force of lagrangian.force_lines
and the fibre-metric solve of numerics' lines.
"""

import math
from dataclasses import dataclass
from functools import cache, partial

from .bundle import BundleChart, SecondTangentPoint
from .errors import (DimensionMismatch, DomainError, FlowEscape,
                     NonFiniteState, NotPrincipal, SingularHessian,
                     SingularMatrix)
from .exprs import compile_grid, compose
from .jets import ScalarField
from .lagrangian import SodeSpec, euler_lagrange_sode, force_lines
from .numerics import (COND_BOUND, Generator, SampleReport, _dot_of,
                       _names, _solve_lines, _square, _total_of, as_floats,
                       condition_number, dot, generated, linear_solve,
                       max_gap, positive_definite, rk4_integrate, sample_max,
                       total)
from .splitting import (project_vertical, vilms_horizontal,
                        vilms_vertical_projector)


def _check_structure_constants(C, m):
    """C[g][a][b] as new nested lists of floats, zero when C is None,
    checked in this order: m x m x m, finite, antisymmetric in (a, b) and
    Jacobi-consistent."""
    if C is None:
        return [[[0.0] * m for _ in range(m)] for _ in range(m)]
    try:
        C = [[[float(c) for c in row] for row in plane] for plane in C]
    except TypeError:  # nested too shallow or too deep
        C = None
    if C is None or len(C) != m or any(
            len(plane) != m or any(len(row) != m for row in plane)
            for plane in C):
        raise DimensionMismatch(f"structure constants must be {(m, m, m)}")
    if not all(math.isfinite(c) for plane in C for row in plane for c in row):
        raise ValueError("structure constants must be finite")
    abc = [(a, b, c) for a in range(m) for b in range(m) for c in range(m)]
    if any(C[g][a][b] != -C[g][b][a] for g, a, b in abc):
        raise ValueError("structure constants must be antisymmetric in the "
                         "lower indices")

    # Jacobi: the cyclic sum over (a, b, c) of P[e][a][b][c] =
    # sum_d C^e_{d a} C^d_{b c} vanishes
    def P(e, a, b, c):
        return total(C[e][d][a] * C[d][b][c] for d in range(m))

    worst = max((abs(P(e, a, b, c) + P(e, b, c, a) + P(e, c, a, b))
                 for e in range(m) for a, b, c in abc), default=0.0)
    if worst > 1e-12:
        raise ValueError(f"structure constants violate the Jacobi identity "
                         f"(residual {worst:.3e})")
    return C


@dataclass
class ActionSpec:
    """Infinitesimal fibre action: generators E_g = sum_b K[b][g] d/dy^b.

    K is an m x m grid of scalar fields of (x, y); C holds the structure
    constants C[g][a][b] (nested lists of floats, zero by default),
    antisymmetric in (a, b) and Jacobi-consistent.
    """
    chart: object
    K: list                       # K[b][g]: ScalarFields of (x, y)
    C: list = None

    def __post_init__(self):
        m = self.chart.m
        if len(self.K) != m or any(len(row) != m for row in self.K):
            raise DimensionMismatch(f"K must be {m}x{m}")
        self.C = _check_structure_constants(self.C, m)
        rng = Generator(7)
        for _ in range(5):
            q = rng.uniform(-1.0, 1.0, self.chart.n + m)
            Kv = self.frame(q[:self.chart.n], q[self.chart.n:])[0]
            if not condition_number(Kv) <= COND_BOUND:
                raise SingularMatrix(
                    f"generator frame degenerate at sample point {q!r}")

    @classmethod
    def from_expressions(cls, chart, K_sources, C=None):
        return cls(chart, compile_grid(K_sources, chart.ctx_point(),
                                       (chart.m, chart.m)), C)

    def frame(self, x, y):
        """K[b][g] at (x, y) and its gradient dK[b][g] over (x, y), as
        nested lists of floats, from one jet per field."""
        q = [*x, *y]  # each field converts its point to floats
        jets = [[f.jet_lists(q) for f in row] for row in self.K]
        return ([[jet[0] for jet in row] for row in jets],
                [[jet[1] for jet in row] for row in jets])


def invariance_check(L, action, samples=100, seed=42, box=1.0):
    """Max over generators and samples of the complete-lift derivative of L.

    The lift of E_g has fibre block K[:, g] and fibre-velocity block
    Kdot[:, g]; invariance means both contractions with dL vanish.
    """
    n, m = L.chart.n, L.chart.m

    def residual(z):
        g = L.field.jet_lists(z)[1]
        Kv, dK = action.frame(z[:n], z[n:n + m])
        Kd = [[dot(grad, z[n + m:]) for grad in row] for row in dK]
        return max(abs(dot([row[c] for row in Kv], g[n:n + m])
                       + dot([row[c] for row in Kd], g[2 * n + m:]))
                   for c in range(m))

    return sample_max(residual, samples, seed, 2 * (n + m), box)


def momentum_map(L, action, w_pt):
    """Components J_g = sum_a K[a][g] dL/dw^a at the tangent point, as m
    floats."""
    n, m = L.chart.n, L.chart.m
    Lw = L.field.jet_lists(w_pt.as_array())[1][2 * n + m:]
    Kv = action.frame(w_pt.x, w_pt.y)[0]
    return [dot([row[g] for row in Kv], Lw) for g in range(m)]


def principal_check(h, action, samples=100, seed=42, box=1.0):
    """Residual of the compatibility of h with the generator frame:

        v . dK[a][g]/dx + h . dK[a][g]/dy - sum_b K[b][g] dh^a/dy^b
    """
    n, m = h.chart.n, h.chart.m

    def residual(z):
        x, y, v = z[:n], z[n:n + m], z[n + m:]
        hvgs = h.h_vg_lists(x, y, v)
        Kv, dK = action.frame(x, y)
        hval = [val for val, _ in hvgs]
        return max(abs(dot(v, kg[:n]) + dot(hval, kg[n:])
                       - dot([row[g] for row in Kv], dh[n:n + m]))
                   for (_, dh), dKrow in zip(hvgs, dK)
                   for g, kg in enumerate(dKrow))

    return sample_max(residual, samples, seed, 2 * n + m, box)


def omega(h, action, w_pt):
    """Frame components of the vertical part: solves K omega = w - h."""
    w_v = project_vertical(h, w_pt).w
    return linear_solve(action.frame(w_pt.x, w_pt.y)[0], w_v)


def connection_test_domega(h, action, samples=100, seed=42, box=1.0):
    """Max of |K^-1 (v . dh/dv - h)| over samples; zero iff the dilation
    field is in the kernel of d(omega), i.e. h is velocity-homogeneous."""
    n, m = h.chart.n, h.chart.m

    def residual(z):
        x, y, v = z[:n], z[n:n + m], z[n + m:]
        euler = [dot(grad[n + m:], v) - val
                 for val, grad in h.h_vg_lists(x, y, v)]
        return max(map(abs, linear_solve(action.frame(x, y)[0], euler)))

    return sample_max(residual, samples, seed, 2 * n + m, box)


def xi_field(h, action, w_pt):
    """The vertical correction vector: zero base blocks, Y = w - h, and
    W = Kdot . K^-1 (w - h)."""
    n = w_pt.chart.n
    diff = project_vertical(h, w_pt).w
    Kv, dK = action.frame(w_pt.x, w_pt.y)
    om = linear_solve(Kv, diff)
    u = w_pt.v + w_pt.w
    return SecondTangentPoint(w_pt.chart, w_pt.x, w_pt.y, w_pt.v, w_pt.w,
                              [0.0] * n, diff, [0.0] * n,
                              [dot([dot(grad, u) for grad in row], om)
                               for row in dK])


def vilms_of_sode(gamma_bar, h, w_pt):
    """Horizontal lift of the base field through the doubled splitting:
    the Vilms lift at w_pt of base velocity (v, f), f the base force.

    Upper block (v, h, f, W) with W = dh . (v, w, f).  By construction its
    image under the vertical endomorphism is the horizontal dilation field
    (0, 0, v, h); tests exercise that identity through the bundle ops.
    """
    return vilms_horizontal(h, w_pt, w_pt.v,
                            gamma_bar.force(w_pt.x, w_pt.v))


def unreduce(gamma_bar, h, action, samples=50, seed=42, box=1.0):
    """Lift a base SODE to a SODE on the total space tangent to the image
    of h.  The fibre-velocity force is dh.(v, w, f) plus the vertical
    correction Kdot K^-1 (w - h); requires h compatible with the action,
    so a principal_check residual of 1e-7 or more raises NotPrincipal."""
    sode = _unreduced_sode(gamma_bar, h, action)
    rep = principal_check(h, action, samples=samples, seed=seed, box=box)
    if rep.max_residual >= 1e-7:
        raise NotPrincipal(
            f"splitting fails the frame compatibility test "
            f"(residual {rep.max_residual:.3e})")
    return sode


def _unreduced_sode(gamma_bar, h, action):
    """unreduce's SODE without the compatibility test."""
    n, m = h.chart.n, h.chart.m
    if gamma_bar.dim != n:
        raise DimensionMismatch(
            f"base SODE has dimension {gamma_bar.dim}, expected {n}")

    def force(q, u):
        q, u = as_floats(q), as_floats(u)
        x, y, v, w = q[:n], q[n:], u[:n], u[n:]
        f = as_floats(gamma_bar.force(x, v))
        vgs = h.h_vg_lists(x, y, v)
        Kv, dK = action.frame(x, y)
        om = linear_solve(Kv, [w[a] - vgs[a][0] for a in range(m)])
        vwf = u + f
        return f + [dot(vgs[a][1], vwf)
                    + dot([dot(grad, u) for grad in dK[a]], om)
                    for a in range(m)]

    return SodeSpec(n + m, force)


def _flow_lift(action, gamma, t, s):
    """Double complete lift T(T Phi_t) of the time-t flow of E_gamma at s.

    One RK4 integration of the flow, in 64 steps, with its first and
    second variational equations, in the jets of K's column gamma; x, v,
    X and V stay fixed:

        y' = K,  w' = DK.(v, w),  Y' = DK.(X, Y),
        W' = D2K[(v, w), (X, Y)] + DK.(V, W)

    RK4 on the variational equations is the exact derivative of RK4 on the
    flow (Hairer, Norsett & Wanner, Solving Ordinary Differential
    Equations I), so the lift is the double tangent of the discrete flow.
    A start point outside K's domain raises DomainError; a flow that
    leaves it later, or overflows, raises FlowEscape.
    """
    if t == 0.0:
        return s
    col = [row[gamma] for row in action.K]
    sign = 1.0 if t > 0 else -1.0

    m = len(s.y)
    k = len(s.x) + m

    def f(_, state):
        y, w, Y, W = state[:m], state[m:2 * m], state[2 * m:3 * m], \
            state[3 * m:]
        try:
            jets = [K.jet_lists([*s.x, *y]) for K in col]
        except DomainError as exc:
            # x stays fixed, so an error at y = s.y is the start point's
            if y == s.y:
                raise
            raise FlowEscape(f"generator flow diverged: {exc}") from exc
        vw, XY, VW = [*s.v, *w], [*s.X, *Y], [*s.V, *W]
        rates = ([val for val, _, _ in jets]
                 + [dot(grad, vw) for _, grad, _ in jets]
                 + [dot(grad, XY) for _, grad, _ in jets]
                 + [dot(vw, [dot(H[k * i:k * (i + 1)], XY)
                             for i in range(k)])
                    + dot(grad, VW) for _, grad, H in jets])
        return [sign * r for r in rates]

    try:
        rec = rk4_integrate(f, 0.0, abs(t), s.y + s.w + s.Y + s.W,
                            abs(t) / 64)
    except NonFiniteState as exc:
        raise FlowEscape(f"generator flow diverged: {exc}") from exc
    y, w, Y, W = (rec.final[i * m:(i + 1) * m] for i in range(4))
    big = max(map(abs, y))
    if big > 1e8:
        raise FlowEscape(f"generator flow left the chart (|y| = {big:.3e})")
    return SecondTangentPoint(s.chart, s.x, y, s.v, w, s.X, Y, s.V, W)


def vilms_principal_check(h, action, group_sample, state_samples=20,
                          seed=42, box=1.0):
    """Equivariance of the doubled vertical projector under generator flows.

    group_sample: pairs (gamma, t).  For each sampled second-tangent state
    the projector is applied before and after the double tangent lift of
    the flow; the report holds the worst block difference.
    """
    chart = h.chart
    n, m = chart.n, chart.m

    def residual(gamma, t, arr):
        s = SecondTangentPoint(
            chart, arr[:n], arr[n:n + m], arr[n + m:2 * n + m],
            arr[2 * n + m:2 * (n + m)],
            arr[2 * (n + m):3 * n + 2 * m],
            arr[3 * n + 2 * m:3 * (n + m)],
            arr[3 * (n + m):4 * n + 3 * m], arr[4 * n + 3 * m:])
        lhs = _flow_lift(action, gamma, t, vilms_vertical_projector(h, s))
        rhs = vilms_vertical_projector(h, _flow_lift(action, gamma, t, s))
        return max_gap(lhs.as_array(), rhs.as_array())

    rng = Generator(seed)
    reps = [sample_max(partial(residual, gamma, t), state_samples, rng,
                       4 * (n + m), box) for gamma, t in group_sample]
    return SampleReport(max(r.max_residual for r in reps),
                        sum(r.sample_count for r in reps), seed,
                        sum(r.skipped for r in reps))


# ---------------------------------------------------------------------------
# Magnetic systems in quasi-velocities


@dataclass
class MagneticModel:
    """Reduced model data on the base of a chart: symmetric metric g(x),
    constant fibre metric k, potential V(x), base and fibre interaction
    coefficients A_i(x) and A_alpha(x), adjoint coefficients
    Upsilon[b][i][a](x), curvature coefficients Kcurv[a][i][j](x), and
    structure constants C[g][a][b]; k and C are nested lists of floats."""
    chart: BundleChart
    g: list
    k: list
    V: ScalarField
    A_base: list
    A_fibre: list
    upsilon: list
    Kcurv: list
    C: list

    def __post_init__(self):
        n, m = self.chart.n, self.chart.m
        a, size = _square(self.k)
        if size != m:
            raise DimensionMismatch(f"k must be {(m, m)}")
        if not all(map(math.isfinite, a)):
            raise ValueError("fibre metric k must be finite")
        self.k = k = [a[m * i:m * (i + 1)] for i in range(m)]
        if any(k[i][j] != k[j][i] for i in range(m) for j in range(m)):
            raise ValueError("fibre metric k must be symmetric")
        if not condition_number(k) <= COND_BOUND:
            raise SingularMatrix("fibre metric k is singular")
        self.C = C = _check_structure_constants(self.C, m)

        def kC(a, b, g):  # k_ad C^d_bg
            return total(k[a][d] * C[d][b][g] for d in range(m))

        if any(kC(a, b, g) + kC(b, a, g) != 0.0
               for a in range(m) for b in range(m) for g in range(m)):
            raise ValueError("fibre metric is not bi-invariant for the "
                             "given structure constants")
        rng = Generator(11)
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, n)
            G = [[f.value(x) for f in row] for row in self.g]
            if any(G[i][j] != G[j][i] for i in range(n) for j in range(n)):
                raise ValueError(f"base metric g must be symmetric "
                                 f"(asymmetric at x={x!r})")
            if not positive_definite(G):
                raise ValueError(f"base metric not positive definite at "
                                 f"x={x!r}")

    @classmethod
    def from_expressions(cls, chart, g=None, k=None, V="0", A_base=None,
                         A_fibre=None, upsilon=None, Kcurv=None, C=None):
        n, m = chart.n, chart.m
        ctx = chart.ctx_base()
        eye = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
        ups0 = [[["0"] * m for _ in range(n)] for _ in range(m)]
        kc0 = [[["0"] * n for _ in range(n)] for _ in range(m)]
        return cls(
            chart,
            g=compile_grid(g if g is not None else eye, ctx, (n, n)),
            k=[[float(i == j) for j in range(m)] for i in range(m)]
            if k is None else k,
            V=compile_grid(V, ctx, ()),
            A_base=compile_grid(A_base if A_base is not None else ["0"] * n,
                                ctx, (n,)),
            A_fibre=compile_grid(A_fibre if A_fibre is not None
                                 else ["0"] * m, ctx, (m,)),
            upsilon=compile_grid(upsilon if upsilon is not None else ups0,
                                 ctx, (m, n, m)),
            Kcurv=compile_grid(Kcurv if Kcurv is not None else kc0,
                               ctx, (m, n, n)),
            C=C)


class MagneticSystem:
    """First-order dynamics in the reduced state (x, v, wbar).

    The v-equation is the EL equation of the reduced base Lagrangian Lbar,
    compiled once, forced by dA_fibre.wbar and the curvature and adjoint
    terms; the wbar-equation is solved from the fibre-metric block.
    p = k wbar + A_fibre is the transported momentum, recorded as a
    diagnostic.  rhs reads the fields as Python floats (jets as
    jet_lists) and leaves the contractions and both solves to
    _magnetic_tail, where each sums its terms in index order.  upsilon
    and Kcurv hold the model's Upsilon and Kcurv fields flattened once, in
    row order (shapes m x n x m and m x n x n), so each is read by one
    comprehension.
    """

    def __init__(self, model):
        self.model = model
        self.Lbar = reduced_base_lagrangian(model)
        self.upsilon = [f for plane in model.upsilon for row in plane
                        for f in row]
        self.Kcurv = [f for plane in model.Kcurv for row in plane
                      for f in row]

    def split(self, s):
        n = self.model.chart.n
        return s[:n], s[n:2 * n], s[2 * n:]

    def momentum(self, s):
        """p = k wbar + A_fibre(x), as a list of m floats."""
        x, _, wb = self.split(as_floats(s))
        return [dot(self.model.k[a], wb) + f.value(x)
                for a, f in enumerate(self.model.A_fibre)]

    def quadratic_diagnostic(self, s):
        """The velocity-quadratic force piece sum_ab U[a,i,b] wb_b (k wb)_a,
        reported rather than assumed to vanish; a list of n floats."""
        mdl = self.model
        n, m = mdl.chart.n, mdl.chart.m
        x, _, wb = self.split(as_floats(s))
        U = [f.value(x) for f in self.upsilon]
        kw = [dot(row, wb) for row in mdl.k]
        pairs = [(a, b) for a in range(m) for b in range(m)]
        return [total(U[(a * n + i) * m + b] * wb[b] * kw[a]
                      for a, b in pairs) for i in range(n)]

    def rhs(self, t, s):
        mdl = self.model
        n = mdl.chart.n
        s = as_floats(s)
        x = s[:n]
        return _magnetic_tail(n, mdl.chart.m)(
            s, [f.jet_lists(x) for f in mdl.A_fibre],
            [f.value(x) for f in self.upsilon],
            [f.value(x) for f in self.Kcurv],
            self.Lbar.jet_lists(s[:2 * n]), mdl.k, mdl.C)


@cache
def _magnetic_tail(n, m):
    """MagneticSystem.rhs after its field reads, for n base and m fibre
    dimensions, lowered to one straight-line function on first use:

      tail(s, Af, U, Kc, Lbar, k, C) -> v + vdot + wbdot

    from the state s = (x, v, wbar), A_fibre's jets Af, the values of
    Upsilon and Kcurv in row order, Lbar's jet and the model's k and C.  With
    p = k wbar + A_fibre the transported momentum, vdot is the EL force
    of Lbar forced by

      extra_i = dA_fibre[:, i] . wbar
                + sum_a (-Kcurv[a, i, :] . v + Upsilon[a, i, :] . wbar) p_a

    (lagrangian.force_lines), and wbdot solves k wbdot = pdot - dA_fibre v
    with

      pdot_a = sum_bi Upsilon[b, i, a] v_i p_b + sum_bc C[b, a, c] wbar_c p_b

    Every dot and sum runs in index order from 0.0."""
    N, M = range(n), range(m)
    state = ["_"] * n + [f"u{i}" for i in N] + [f"wb{a}" for a in M]
    jets = [f"(av{a}, {_names(f'dA{a}_', n)}, _)" for a in M]
    U = [f"U{a}_{i}_{b}" for a in M for i in N for b in M]
    Kc = [f"K{a}_{i}_{j}" for a in M for i in N for j in N]
    body = [f"{', '.join(state)}, = s", f"{', '.join(jets)}, = Af",
            f"{', '.join(U)}, = U", f"{', '.join(Kc)}, = Kc",
            f"{_names('k', m, m)} = k", f"{_names('C', m, m, m)} = C",
            "_, g, H = Lbar"]
    body += [f"p{a} = {_dot_of((f'k{a}_{b}', f'wb{b}') for b in M)} + av{a}"
             for a in M]
    for i in N:
        curv = [f"(-{_dot_of((f'K{a}_{i}_{j}', f'u{j}') for j in N)} + "
                f"{_dot_of((f'U{a}_{i}_{b}', f'wb{b}') for b in M)}) * p{a}"
                for a in M]
        body.append(f"e{i} = {_dot_of((f'dA{a}_{i}', f'wb{a}') for a in M)}"
                    f" + {_total_of(curv)}")
    body += force_lines(n, True)
    for a in M:
        adj = _total_of(f"U{b}_{i}_{a} * u{i} * p{b}" for b in M for i in N)
        struct = _total_of(f"C{b}_{a}_{c} * wb{c} * p{b}"
                           for b in M for c in M)
        body.append(f"kb0_{a} = {adj} + {struct} - "
                    + _dot_of((f"dA{a}_{i}", f"u{i}") for i in N))
    body += [f"ka{a}_{b} = k{a}_{b}" for a in M for b in M]
    body += _solve_lines(m, 1, "k")
    out = ([f"u{i}" for i in N] + [f"w0_{i}" for i in N]
           + [f"kw0_{a}" for a in M])
    body.append(f"return [{', '.join(out)}]")
    return generated("tail", "s, Af, U, Kc, Lbar, k, C", body,
                     f"<magnetic rhs, n = {n}, m = {m}>",
                     _SingularHessian=SingularHessian)


def integrate_magnetic(system, s0, t0, t1, dt):
    def diag(t, s):
        return {f"p{a+1}": pa for a, pa in enumerate(system.momentum(s))}

    return rk4_integrate(system.rhs, t0, t1, s0, dt, diag)


def magnetic_induced_splitting(model):
    """The constant-in-velocity splitting wbar = -k^-1 A_fibre(x)."""
    def h(x):
        return linear_solve(model.k, [-f.value(x) for f in model.A_fibre])
    return h


def reduced_base_lagrangian(model):
    """Lbar(x, v) = (1/2) g_ij v^i v^j - V + A_i v^i, one tape over (x, v)
    compiled from the model's expressions over its chart's (x, v)."""
    v_names = model.chart.v_names
    fields = {"V": model.V}
    quad, lin = [], ""
    for i, vi in enumerate(v_names):
        fields[f"A{i+1}"] = model.A_base[i]
        lin += f" + A{i+1}*{vi}"
        for j, vj in enumerate(v_names):
            fields[f"g{i+1}_{j+1}"] = model.g[i][j]
            quad.append(f"0.5*g{i+1}_{j+1}*{vi}*{vj}")
    return compose(" + ".join(quad) + " - V" + lin, fields,
                   model.chart.ctx_base_tangent(), "Lbar_magnetic")


@dataclass
class DecouplingReport:
    """Outcome of the base-fibre decoupling test for a magnetic model.

    verdict is True when the displayed algebraic condition vanishes at all
    samples.  The w-perturbation residual and the quadratic diagnostic are
    measured, not assumed: a model can satisfy the linear condition while
    quadratic terms still couple the blocks.
    """
    condition_residual: float
    verdict: bool
    subsystem_residual: float
    base_el_residual: float
    quadratic_max: float
    sample_count: int
    seed: int


def decoupling_check(system, samples=100, seed=42, box=1.0):
    """Evaluate -Kc[a,i,j] v_j k[a,g] + U[a,i,g] A_a + dA_g/dx_i over
    samples of the MagneticSystem's model; when it vanishes, verify
    w-independence of the (x, v) block and agreement with the EL force of
    the reduced base Lagrangian."""
    model = system.model
    n, m = model.chart.n, model.chart.m
    k = model.k
    aj = [(a, j) for a in range(m) for j in range(n)]

    def condition(xv):
        x, v = xv[:n], xv[n:]
        Kc = [f.value(x) for f in system.Kcurv]
        U = [f.value(x) for f in system.upsilon]
        A = [f.jet_lists(x) for f in model.A_fibre]
        return max(abs(-total(Kc[(a * n + i) * n + j] * v[j] * k[a][g]
                              for a, j in aj)
                       + total(U[(a * n + i) * m + g] * A[a][0]
                               for a in range(m))
                       + A[g][1][i])
                   for i in range(n) for g in range(m))

    rep = sample_max(condition, samples, seed, 2 * n, box)
    worst = rep.max_residual
    verdict = worst < 1e-8

    base_force = euler_lagrange_sode(system.Lbar).force
    rng2 = Generator(seed + 1)

    def subsystem(s):
        rhs = system.rhs(0.0, s)
        quad = max(map(abs, system.quadratic_diagnostic(s)))
        s2 = s[:2 * n] + [a + b for a, b in
                          zip(s[2 * n:], rng2.uniform(0.1, 0.5, m))]
        rhs2 = system.rhs(0.0, s2)
        f_el = base_force(s[:n], s[n:2 * n])
        return (max(abs(a - b) for a, b in zip(rhs[n:2 * n], rhs2[n:2 * n])),
                max(abs(a - b) for a, b in zip(rhs[n:2 * n], f_el)), quad)

    sub_res, el_res, quad = sample_max(subsystem, min(samples, 25), rng2,
                                       2 * n + m, box).max_residual
    return DecouplingReport(worst, verdict, sub_res, el_res, quad,
                            rep.sample_count, seed)
