"""Affine velocity constraints and constrained dynamics.

A constraint dy/dt + A(x,y) dx/dt = A0(x,y) is an affine splitting
(splitting.AffineSplittingData): its coefficients w = A0 - A v eliminate
the fibre velocity exactly, so the state is (x, y, v) and the integrated
dy/dt satisfies the constraint by construction.  The equations of motion
carry the constraint's curvature on the right-hand side, contracted with
the fibre momentum dL/dw of the unconstrained Lagrangian evaluated on the
constraint surface.  The constraint's coefficients are one tape per
component, compiled from its expressions, and they are the only formula
for w here.  The constrained Lagrangian's jet is one chain rule of L over
those tapes' jets, the one place here that builds Jet2s; the right-hand
side reads w, dL/dw and that jet from the same chain rule, so each call
takes one jet of L.  The right-hand side and the recorded energy read
every jet as lists of Python floats and sum each contraction in index
order.
"""

from .errors import DimensionMismatch
from .jets import ScalarField, jet2_compose, seed_jets
from .lagrangian import energy
from .numerics import as_floats, dot, linear_solve, rk4_integrate, total
from .splitting import affine_curvature_coefficients


class ConstrainedLagrangianField(ScalarField):
    """L with the fibre velocity eliminated: (x, y, v) -> L(x, y, v, w(x,y,v)).

    w^a = A0^a - A^a_i v^i are the constraint's coefficients, one tape per
    component compiled from the constraint's expressions; a jet is one
    chain rule of L over the seed jets of (x, y, v) and those tapes' jets.
    """

    def __init__(self, L, c):
        n, m = L.chart.n, L.chart.m
        super().__init__(2 * n + m, None, "L_constrained")
        self.L = L
        self.c = c

    def jet(self, s):
        return self._chain(s)[0]

    def _chain(self, s):
        """The jet at s = (x, y, v), L's jet at (x, y, v, w) that it
        chains, and w, the constraint's coefficient values at s."""
        s = self._point(s)
        w_jets = [f.jet(s) for f in self.c.coefficients]
        w = [jet.value for jet in w_jets]
        L_jet = self.L.field.jet(s + w)
        return jet2_compose(L_jet, seed_jets(s) + w_jets), L_jet, w


class ConstrainedSystem:
    """First-order dynamics of the reduced state (x, y, v).

    dy/dt is the constraint's w; dv/dt solves the momentum balance of the
    constrained Lagrangian against the curvature force
    (-B[a,i,:] . v - A0d[a,i]) dL/dw^a, with dL/dw read from the jet of L
    that the constrained Lagrangian's chain rule takes.
    """

    def __init__(self, L, c):
        self.L = L
        self.c = c
        self.Lc = ConstrainedLagrangianField(L, c)

    def rhs(self, t, s):
        n, m = self.L.chart.n, self.L.chart.m
        k = 2 * n + m
        s = as_floats(s)
        v = s[n + m:]
        B, A0d, A = affine_curvature_coefficients(self.c, s[:n], s[n:n + m])
        jet, L_jet, ydot = self.Lc._chain(s)
        g, H, Lw = jet.gradient, jet.hessian, L_jet.gradient[k:]
        rhs_v = []
        for i in range(n):
            row = H[k * (n + m + i):k * (n + m + i + 1)]
            force = total((-dot(B[a][i], v) - A0d[a][i]) * Lw[a]
                          for a in range(m))
            rhs_v.append(g[i] - total(A[a][i] * g[n + a] for a in range(m))
                         - dot(row[:n], v) - dot(row[n:n + m], ydot)
                         + force)
        M = [H[k * r + n + m:k * (r + 1)] for r in range(n + m, k)]
        return v + ydot + linear_solve(M, rhs_v)

    def energy(self, s):
        """Constrained energy v . dLc/dv - Lc."""
        return energy(self.Lc, s, self.L.chart.n + self.L.chart.m)


def integrate_constrained(L, c, s0, t0, t1, dt):
    """RK4 on the reduced state (x, y, v), a list of 2n+m floats, from t0
    to t1, recording the constrained energy at each point.  dy/dt is the
    constraint's w itself, so the constraint holds by construction of the
    right-hand side; whether the integrated y follows it is measured
    afterwards, by splitting.rate_residual of the recorded y against
    c.h_values."""
    k = 2 * L.chart.n + L.chart.m
    s0 = as_floats(s0)
    if len(s0) != k:
        raise DimensionMismatch(f"state must have length {k}")
    system = ConstrainedSystem(L, c)
    return rk4_integrate(system.rhs, t0, t1, s0, dt,
                         lambda t, s: {"energy": system.energy(s)})
