"""Affine velocity constraints and constrained dynamics.

A constraint dy/dt + A(x,y) dx/dt = A0(x,y) is an affine splitting
(splitting.AffineSplittingData): its coefficients w = A0 - A v eliminate
the fibre velocity exactly, so the state is (x, y, v) and the integrated
dy/dt satisfies the constraint by construction.  The equations of motion
carry the constraint's curvature on the right-hand side, contracted with
the fibre momentum of the unconstrained Lagrangian evaluated on the
constraint surface.  The constraint's coefficients are one tape per
component, compiled from its expressions, and the constrained
Lagrangian's jets chain L over those tapes' jets.  The right-hand side
and the recorded energy read every jet as Python floats (jet_lists) and
sum each contraction in index order; the constrained Lagrangian's jet is
a chain rule, and the one place here that builds Jet2s.
"""

from .errors import DimensionMismatch
from .jets import ScalarField, seed_jets
from .numerics import as_floats, dot, linear_solve, rk4_integrate, total
from .splitting import _curvature_lists


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
        w_jets = [f.jet(s) for f in self.c.coefficients]
        return self.L.field.chain(seed_jets(s) + w_jets)


class ConstrainedSystem:
    """First-order dynamics of the reduced state (x, y, v).

    dy/dt comes from the constraint; dv/dt solves the momentum balance of
    the constrained Lagrangian against the curvature force
    (-B[a,i,:] . v - A0d[a,i]) dL/dw^a.
    """

    def __init__(self, L, c):
        self.L = L
        self.c = c
        self.Lc = ConstrainedLagrangianField(L, c)

    def rhs(self, t, s):
        n, m = self.L.chart.n, self.L.chart.m
        k = 2 * n + m
        s = as_floats(s)
        q, v = s[:n + m], s[n + m:]
        B, A0d, A, A0 = _curvature_lists(self.c, q)
        ydot = [a0 - dot(row, v) for a0, row in zip(A0, A)]
        _, g, H = self.Lc.jet_lists(s)
        Lw = self.L.field.jet_lists(s + ydot)[1][k:]
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
        n, m = self.L.chart.n, self.L.chart.m
        s = as_floats(s)
        value, g, _ = self.Lc.jet_lists(s)
        return dot(g[n + m:], s[n + m:]) - value


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
