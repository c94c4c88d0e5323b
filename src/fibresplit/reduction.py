"""Vertical-frame actions, momentum maps, unreduction, and the magnetic
quasi-velocity system.

A fibre action enters only infinitesimally, through an invertible matrix
of generator coefficients K (column gamma holds the y-components of the
generator E_gamma) and structure constants C.  Group elements are never
materialized; equivariance tests integrate generator flows numerically,
lifted to the double tangent bundle through their variational equations.
The magnetic model's reduced base Lagrangian is one tape compiled from the
model's expressions by substitution.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .bundle import SecondTangentPoint
from .errors import (DimensionMismatch, DomainError, FlowEscape,
                     NonFiniteState, NotPrincipal, SingularMatrix)
from .exprs import VarContext, compile_field, compose
from .jets import ScalarField
from .lagrangian import SodeSpec, _force_from_jet
from .numerics import (IvpProblem, LinearSystem, SampleReport,
                       condition_number, linear_solve, rk4_integrate,
                       sample_max)
from .splitting import vilms_vertical_projector


def _check_structure_constants(C, m):
    C = np.asarray(C, dtype=float)
    if C.shape != (m, m, m):
        raise DimensionMismatch(f"structure constants must be {(m, m, m)}")
    if not np.array_equal(C, -np.swapaxes(C, 1, 2)):
        raise ValueError("structure constants must be antisymmetric in the "
                         "lower indices")
    # Jacobi: sum over cyclic permutations of C^e_{d a} C^d_{b c}
    jac = (np.einsum("eda,dbc->eabc", C, C)
           + np.einsum("edb,dca->eabc", C, C)
           + np.einsum("edc,dab->eabc", C, C))
    worst = np.abs(jac).max() if jac.size else 0.0
    if worst > 1e-12:
        raise ValueError(f"structure constants violate the Jacobi identity "
                         f"(residual {worst:.3e})")
    return C


@dataclass
class ActionSpec:
    """Infinitesimal fibre action: generators E_g = sum_b K[b][g] d/dy^b.

    K is an m x m grid of scalar fields of (x, y); C holds the structure
    constants C[g][a][b], antisymmetric in (a, b) and Jacobi-consistent.
    """
    chart: object
    K: list                       # K[b][g]: ScalarFields of (x, y)
    C: np.ndarray = None

    def __post_init__(self):
        m = self.chart.m
        if len(self.K) != m or any(len(row) != m for row in self.K):
            raise DimensionMismatch(f"K must be {m}x{m}")
        if self.C is None:
            self.C = np.zeros((m, m, m))
        self.C = _check_structure_constants(self.C, m)
        rng = np.random.default_rng(7)
        for _ in range(5):
            q = rng.uniform(-1.0, 1.0, self.chart.n + m)
            Kv = self.K_matrix(q[:self.chart.n], q[self.chart.n:])
            if abs(np.linalg.det(Kv)) < 1e-12:
                raise SingularMatrix(
                    f"generator frame degenerate at sample point {q}")

    @classmethod
    def from_expressions(cls, chart, K_sources, C=None, constants=None):
        ctx = chart.ctx_point(constants)
        K = [[compile_field(src, ctx, label=str(src),
                            slit_eps=chart.slit_eps) for src in row]
             for row in K_sources]
        return cls(chart, K, C)

    def K_matrix(self, x, y):
        q = np.concatenate([np.asarray(x, float), np.asarray(y, float)])
        return np.array([[f.value(q) for f in row] for row in self.K])

    def K_jets(self, x, y):
        q = np.concatenate([np.asarray(x, float), np.asarray(y, float)])
        return [[f.jet(q) for f in row] for row in self.K]

    def K_dot(self, x, y, v, w):
        """Derivative of K along (v, w): v . dK/dx + w . dK/dy."""
        u = np.concatenate([np.asarray(v, float), np.asarray(w, float)])
        jets = self.K_jets(x, y)
        m = self.chart.m
        return np.array([[float(jets[b][g].gradient @ u) for g in range(m)]
                         for b in range(m)])


def invariance_check(L, action, samples=100, seed=42, box=1.0):
    """Max over generators and samples of the complete-lift derivative of L.

    The lift of E_g has fibre block K[:, g] and fibre-velocity block
    Kdot[:, g]; invariance means both contractions with dL vanish.
    """
    n, m = L.chart.n, L.chart.m

    def residual(z):
        x, y, v, w = z[:n], z[n:n + m], z[n + m:2 * n + m], z[2 * n + m:]
        g = L.jet(z).gradient
        Kv = action.K_matrix(x, y)
        Kd = action.K_dot(x, y, v, w)
        return np.abs(Kv.T @ g[n:n + m] + Kd.T @ g[2 * n + m:]).max()

    return sample_max(residual, samples, seed, 2 * (n + m), box)


def momentum_map(L, action, w_pt):
    """Components J_g = sum_a K[a][g] dL/dw^a at the tangent point."""
    n, m = L.chart.n, L.chart.m
    z = w_pt.as_array()
    Lw = L.jet(z).gradient[2 * n + m:]
    return action.K_matrix(w_pt.x, w_pt.y).T @ Lw


def principal_check(h, action, samples=100, seed=42, box=1.0):
    """Residual of the compatibility of h with the generator frame:

        v . dK[a][g]/dx + h . dK[a][g]/dy - sum_b K[b][g] dh^a/dy^b
    """
    n, m = h.chart.n, h.chart.m

    def residual(z):
        x, y, v = z[:n], z[n:n + m], z[n + m:]
        hjets = h.h_jets(x, y, v)
        Kjets = action.K_jets(x, y)
        hval = np.array([j.value for j in hjets])
        Kv = np.array([[Kjets[b][g].value for g in range(m)]
                       for b in range(m)])
        resid = []
        for a in range(m):
            dh_dy = hjets[a].gradient[n:n + m]
            for g in range(m):
                kg = Kjets[a][g].gradient
                resid.append(float(v @ kg[:n] + hval @ kg[n:]
                                   - Kv[:, g] @ dh_dy))
        return np.abs(resid).max()

    return sample_max(residual, samples, seed, 2 * n + m, box)


def omega(h, action, w_pt):
    """Frame components of the vertical part: solves K omega = w - h."""
    hval = h.h_values(w_pt.x, w_pt.y, w_pt.v)
    Kv = action.K_matrix(w_pt.x, w_pt.y)
    return linear_solve(LinearSystem(Kv, w_pt.w - hval))


def connection_test_domega(h, action, samples=100, seed=42, box=1.0):
    """Max of |K^-1 (v . dh/dv - h)| over samples; zero iff the dilation
    field is in the kernel of d(omega), i.e. h is velocity-homogeneous."""
    n, m = h.chart.n, h.chart.m

    def residual(z):
        x, y, v = z[:n], z[n:n + m], z[n + m:]
        hjets = h.h_jets(x, y, v)
        Kv = action.K_matrix(x, y)
        euler = np.array([float(j.gradient[n + m:] @ v) - j.value
                          for j in hjets])
        return np.abs(linear_solve(LinearSystem(Kv, euler))).max()

    return sample_max(residual, samples, seed, 2 * n + m, box)


def xi_field(h, action, w_pt):
    """The vertical correction vector: zero base blocks, Y = w - h, and
    W = Kdot . K^-1 (w - h)."""
    chart = w_pt.chart
    n, m = chart.n, chart.m
    hval = h.h_values(w_pt.x, w_pt.y, w_pt.v)
    diff = w_pt.w - hval
    om = linear_solve(LinearSystem(action.K_matrix(w_pt.x, w_pt.y), diff))
    Kd = action.K_dot(w_pt.x, w_pt.y, w_pt.v, w_pt.w)
    return SecondTangentPoint(chart, w_pt.x, w_pt.y, w_pt.v, w_pt.w,
                              np.zeros(n), diff, np.zeros(n), Kd @ om)


@dataclass
class BaseSode:
    """Second-order field on the base: x'' = force(x, v)."""
    n: int
    force: object
    provenance: str = "explicit"


def base_euler_lagrange(field, n):
    """EL field of a base Lagrangian given as a ScalarField of (x, v)."""
    if field.arity != 2 * n:
        raise DimensionMismatch(
            f"base Lagrangian arity {field.arity}, expected {2 * n}")

    def force(x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        return _force_from_jet(field.jet(np.concatenate([x, v])), x, v)

    return BaseSode(n, force, "euler-lagrange")


def integrate_base(sode, x0, v0, t0, t1, dt, diagnostic=None):
    n = sode.n
    s0 = np.concatenate([np.asarray(x0, float), np.asarray(v0, float)])

    def f(t, s):
        return np.concatenate([s[n:], sode.force(s[:n], s[n:])])

    return rk4_integrate(IvpProblem(f, t0, t1, s0, dt), diagnostic)


def vilms_of_sode(gamma_bar, h, w_pt):
    """Horizontal lift of the base field through the doubled splitting.

    Upper block (v, h, f, W) with W = dh . (v, w, f).  By construction its
    image under the vertical endomorphism is the horizontal dilation field
    (0, 0, v, h); tests exercise that identity through the bundle ops.
    """
    chart = w_pt.chart
    f = gamma_bar.force(w_pt.x, w_pt.v)
    jets = h.h_jets(w_pt.x, w_pt.y, w_pt.v)
    Y = np.array([j.value for j in jets])
    u = np.concatenate([w_pt.v, w_pt.w, f])
    W = np.array([float(j.gradient @ u) for j in jets])
    return SecondTangentPoint(chart, w_pt.x, w_pt.y, w_pt.v, w_pt.w,
                              w_pt.v, Y, f, W)


def unreduce(gamma_bar, h, action, check=True, samples=50, seed=42,
             box=1.0):
    """Lift a base SODE to a SODE on the total space tangent to the image
    of h.  The fibre-velocity force is dh.(v, w, f) plus the vertical
    correction Kdot K^-1 (w - h); requires h compatible with the action."""
    if check:
        rep = principal_check(h, action, samples=samples, seed=seed,
                              box=box)
        if rep.max_residual >= 1e-7:
            raise NotPrincipal(
                f"splitting fails the frame compatibility test "
                f"(residual {rep.max_residual:.3e})")
    chart = h.chart
    n, m = chart.n, chart.m

    def force(z):
        z = np.asarray(z, dtype=float)
        x, y = z[:n], z[n:n + m]
        v, w = z[n + m:2 * n + m], z[2 * n + m:]
        f = gamma_bar.force(x, v)
        jets = h.h_jets(x, y, v)
        hval = np.array([j.value for j in jets])
        u = np.concatenate([v, w, f])
        wdot = np.array([float(j.gradient @ u) for j in jets])
        om = linear_solve(LinearSystem(action.K_matrix(x, y), w - hval))
        wdot += action.K_dot(x, y, v, w) @ om
        return np.concatenate([f, wdot])

    return SodeSpec(chart, force, "unreduced")


def _flow_lift(action, gamma, t, s, steps=64):
    """Double complete lift T(T Phi_t) of the time-t flow of E_gamma at s.

    One RK4 integration of the flow with its first and second variational
    equations, in the jets of K's column gamma; x, v, X and V stay fixed:

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

    def f(_, state):
        y, w, Y, W = np.split(state, 4)
        try:
            jets = [K.jet(np.concatenate([s.x, y])) for K in col]
        except DomainError as exc:
            # x stays fixed, so an error at y = s.y is the start point's
            if np.array_equal(y, s.y):
                raise
            raise FlowEscape(f"generator flow diverged: {exc}") from exc
        DK = np.array([j.gradient for j in jets])
        vw = np.concatenate([s.v, w])
        XY = np.concatenate([s.X, Y])
        D2K = np.array([vw @ j.hessian @ XY for j in jets])
        return sign * np.concatenate([[j.value for j in jets], DK @ vw,
                                      DK @ XY,
                                      D2K + DK @ np.concatenate([s.V, W])])

    try:
        rec = rk4_integrate(IvpProblem(
            f, 0.0, abs(t), np.concatenate([s.y, s.w, s.Y, s.W]),
            abs(t) / steps))
    except NonFiniteState as exc:
        raise FlowEscape(f"generator flow diverged: {exc}") from exc
    y, w, Y, W = np.split(rec.final, 4)
    if np.abs(y).max() > 1e8:
        raise FlowEscape(f"generator flow left the chart (|y| = "
                         f"{np.abs(y).max():.3e})")
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
        return np.abs(lhs.as_array() - rhs.as_array()).max()

    rng = np.random.default_rng(seed)
    reps = [sample_max(partial(residual, gamma, t), state_samples, rng,
                       4 * (n + m), box) for gamma, t in group_sample]
    return SampleReport(np.max([r.max_residual for r in reps]),
                        sum(r.sample_count for r in reps), seed,
                        sum(r.skipped for r in reps))


# ---------------------------------------------------------------------------
# Magnetic systems in quasi-velocities


def _base_ctx(n, constants=None):
    return VarContext([("base", [f"x{i+1}" for i in range(n)])], constants)


def _compile_grid(sources, ctx, shape):
    """Compile a nested list of expression strings, checking its shape."""
    def walk(node, dims):
        if not dims:
            return compile_field(node, ctx, label=str(node))
        if len(node) != dims[0]:
            raise DimensionMismatch(
                f"expected {dims[0]} entries, got {len(node)}")
        return [walk(sub, dims[1:]) for sub in node]
    return walk(sources, list(shape))


@dataclass
class MagneticModel:
    """Reduced model data on the base: symmetric metric g(x), constant
    fibre metric k, potential V(x), base and fibre interaction coefficients
    A_i(x) and A_alpha(x), adjoint coefficients Upsilon[b][i][a](x),
    curvature coefficients Kcurv[a][i][j](x), and structure constants
    C[g][a][b]."""
    n: int
    m: int
    g: list
    k: np.ndarray
    V: ScalarField
    A_base: list
    A_fibre: list
    upsilon: list
    Kcurv: list
    C: np.ndarray

    def __post_init__(self):
        self.k = np.asarray(self.k, dtype=float)
        if self.k.shape != (self.m, self.m):
            raise DimensionMismatch(f"k must be {(self.m, self.m)}")
        if not np.array_equal(self.k, self.k.T):
            raise ValueError("fibre metric k must be symmetric")
        if not condition_number(self.k) <= 1e13:
            raise SingularMatrix("fibre metric k is singular")
        self.C = _check_structure_constants(self.C, self.m)
        bi = np.einsum("ad,dbg->abg", self.k, self.C) \
            + np.einsum("bd,dag->abg", self.k, self.C)
        if bi.size and np.abs(bi).max() != 0.0:
            raise ValueError("fibre metric is not bi-invariant for the "
                             "given structure constants")
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, self.n)
            G = self.g_matrix(x)
            if not np.array_equal(G, G.T):
                raise ValueError(f"base metric g must be symmetric "
                                 f"(asymmetric at x={x})")
            if np.linalg.eigvalsh(G).min() <= 0.0:
                raise ValueError(f"base metric not positive definite at "
                                 f"x={x}")

    @classmethod
    def from_expressions(cls, n, m, g=None, k=None, V="0", A_base=None,
                         A_fibre=None, upsilon=None, Kcurv=None, C=None,
                         constants=None):
        ctx = _base_ctx(n, constants)
        eye = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
        zeros_n = ["0"] * n
        zeros_m = ["0"] * m
        ups0 = [[["0"] * m for _ in range(n)] for _ in range(m)]
        kc0 = [[["0"] * n for _ in range(n)] for _ in range(m)]
        return cls(
            n, m,
            g=_compile_grid(g if g is not None else eye, ctx, (n, n)),
            k=np.eye(m) if k is None else np.asarray(k, dtype=float),
            V=compile_field(V, ctx, label=str(V)),
            A_base=_compile_grid(A_base if A_base is not None else zeros_n,
                                 ctx, (n,)),
            A_fibre=_compile_grid(A_fibre if A_fibre is not None else zeros_m,
                                  ctx, (m,)),
            upsilon=_compile_grid(upsilon if upsilon is not None else ups0,
                                  ctx, (m, n, m)),
            Kcurv=_compile_grid(Kcurv if Kcurv is not None else kc0,
                                ctx, (m, n, n)),
            C=np.zeros((m, m, m)) if C is None else C)

    def g_matrix(self, x):
        x = np.asarray(x, dtype=float)
        return np.array([[f.value(x) for f in row] for row in self.g])

    def upsilon_values(self, x):
        x = np.asarray(x, dtype=float)
        return np.array([[[f.value(x) for f in row] for row in plane]
                         for plane in self.upsilon])

    def kcurv_values(self, x):
        x = np.asarray(x, dtype=float)
        return np.array([[[f.value(x) for f in row] for row in plane]
                         for plane in self.Kcurv])


class MagneticSystem:
    """First-order dynamics in the reduced state (x, v, wbar).

    The v-equation is solved from the base-metric block, the wbar-equation
    from the fibre-metric block; p = k wbar + A_fibre is the transported
    momentum, recorded as a diagnostic.
    """

    def __init__(self, model):
        self.model = model

    def split(self, s):
        n, m = self.model.n, self.model.m
        return s[:n], s[n:2 * n], s[2 * n:]

    def momentum(self, s):
        x, v, wb = self.split(s)
        A = np.array([f.value(x) for f in self.model.A_fibre])
        return self.model.k @ wb + A

    def quadratic_diagnostic(self, s):
        """The velocity-quadratic force piece sum_ab U[a,i,b] wb_b (k wb)_a,
        reported rather than assumed to vanish."""
        x, v, wb = self.split(s)
        U = self.model.upsilon_values(x)
        return np.einsum("aib,b,a->i", U, wb, self.model.k @ wb)

    def rhs(self, t, s):
        mdl = self.model
        n, m = mdl.n, mdl.m
        x, v, wb = self.split(s)
        gj = [[f.jet(x) for f in row] for row in mdl.g]
        G = np.array([[gj[i][j].value for j in range(n)] for i in range(n)])
        dG = np.array([[gj[i][j].gradient for j in range(n)]
                       for i in range(n)])        # dG[i,j,k] = dg_ij/dx_k
        Vg = mdl.V.jet(x).gradient
        Abj = [f.jet(x) for f in mdl.A_base]
        Afj = [f.jet(x) for f in mdl.A_fibre]
        dAb = np.array([j.gradient for j in Abj])  # dAb[i,k] = dA_i/dx_k
        dAf = np.array([j.gradient for j in Afj])
        Af = np.array([j.value for j in Afj])
        U = mdl.upsilon_values(x)
        Kc = mdl.kcurv_values(x)
        p = mdl.k @ wb + Af

        bracket = -np.einsum("aij,j->ai", Kc, v) + np.einsum(
            "aib,b->ai", U, wb)
        force = np.einsum("ai,a->i", bracket, p)
        rhs_v = (0.5 * np.einsum("jki,j,k->i", dG, v, v)
                 - Vg
                 + dAb.T @ v - dAb @ v
                 + dAf.T @ wb
                 - np.einsum("ijk,k,j->i", dG, v, v)
                 + force)
        vdot = linear_solve(LinearSystem(G, rhs_v))

        pdot = np.einsum("bia,i,b->a", U, v, p) + np.einsum(
            "bag,g,b->a", mdl.C, wb, p)
        wbdot = linear_solve(LinearSystem(mdl.k, pdot - dAf @ v))
        return np.concatenate([v, vdot, wbdot])


def magnetic_lp_system(model):
    return MagneticSystem(model)


def integrate_magnetic(system, s0, t0, t1, dt):
    def diag(t, s):
        p = system.momentum(s)
        return {f"p{a+1}": float(p[a]) for a in range(system.model.m)}

    return rk4_integrate(
        IvpProblem(system.rhs, t0, t1, np.asarray(s0, dtype=float), dt),
        diag)


def magnetic_induced_splitting(model):
    """The constant-in-velocity splitting wbar = -k^-1 A_fibre(x)."""
    def h(x):
        A = np.array([f.value(np.asarray(x, dtype=float))
                      for f in model.A_fibre])
        return linear_solve(LinearSystem(model.k, -A))
    return h


def reduced_base_lagrangian(model):
    """Lbar(x, v) = (1/2) g_ij v^i v^j - V + A_i v^i, one tape over (x, v)
    compiled from the model's expressions."""
    n = model.n
    x_names = [f"x{i+1}" for i in range(n)]
    v_names = [f"v{i+1}" for i in range(n)]
    fields = {"V": model.V}
    quad, lin = [], ""
    for i, vi in enumerate(v_names):
        fields[f"A{i+1}"] = model.A_base[i]
        lin += f" + A{i+1}*{vi}"
        for j, vj in enumerate(v_names):
            fields[f"g{i+1}_{j+1}"] = model.g[i][j]
            quad.append(f"0.5*g{i+1}_{j+1}*{vi}*{vj}")
    ctx = VarContext([("base", x_names), ("base_velocity", v_names)])
    return compose(" + ".join(quad) + " - V" + lin, fields, ctx,
                   "Lbar_magnetic")


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


def decoupling_check(model, samples=100, seed=42, box=1.0):
    """Evaluate -Kc[a,i,j] v_j k[a,g] + U[a,i,g] A_a + dA_g/dx_i over
    samples; when it vanishes, verify w-independence of the (x, v) block
    and agreement with the EL force of the reduced base Lagrangian."""
    n, m = model.n, model.m

    def condition(xv):
        x, v = xv[:n], xv[n:]
        Kc = model.kcurv_values(x)
        U = model.upsilon_values(x)
        Af = np.array([f.value(x) for f in model.A_fibre])
        dAf = np.array([f.jet(x).gradient for f in model.A_fibre])
        cond = (-np.einsum("aij,j,ag->ig", Kc, v, model.k)
                + np.einsum("aig,a->ig", U, Af)
                + dAf.T)
        return np.abs(cond).max()

    rep = sample_max(condition, samples, seed, 2 * n, box)
    worst = rep.max_residual
    verdict = worst < 1e-8

    system = MagneticSystem(model)
    Lbar = reduced_base_lagrangian(model)
    rng2 = np.random.default_rng(seed + 1)

    def subsystem(s):
        x, v, wb = system.split(s)
        rhs = system.rhs(0.0, s)
        quad = np.abs(system.quadratic_diagnostic(s)).max()
        s2 = s.copy()
        s2[2 * n:] += rng2.uniform(0.1, 0.5, m)
        rhs2 = system.rhs(0.0, s2)
        f_el = _force_from_jet(Lbar.jet(np.concatenate([x, v])), x, v)
        return (np.abs(rhs[n:2 * n] - rhs2[n:2 * n]).max(),
                np.abs(rhs[n:2 * n] - f_el).max(), quad)

    sub_res, el_res, quad = sample_max(subsystem, min(samples, 25), rng2,
                                       2 * n + m, box).max_residual
    return DecouplingReport(float(worst), verdict, float(sub_res),
                            float(el_res), float(quad), rep.sample_count,
                            seed)
