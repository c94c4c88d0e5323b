"""Affine velocity constraints and constrained dynamics.

A constraint dy/dt + A(x,y) dx/dt = A0(x,y) eliminates the fibre velocity
exactly: the state is (x, y, v) and w is reconstructed, so the integrated
dy/dt satisfies the constraint by construction.  The equations of
motion carry the constraint's curvature on the right-hand side, contracted
with the fibre momentum of the unconstrained Lagrangian evaluated on the
constraint surface.  The constraint fields are expressions, so w = A0 - A v
compiles to one tape per component by substitution (to_splitting), and
the constrained Lagrangian's jets chain L over those tapes' jets.  The
right-hand side and the recorded energy read every jet as Python
floats (jet_lists) and sum each contraction in index order; the
constrained Lagrangian's jet is a chain rule, and the one place here that
builds Jet2s.
"""

from dataclasses import dataclass

from .jets import ScalarField, seed_jets
from .numerics import as_floats, dot, linear_solve, rk4_integrate, total
from .splitting import AffineSplittingData, _curvature_lists


@dataclass
class AffineConstraintSpec(AffineSplittingData):
    """Affine constraint data; identical layout to an affine splitting,
    with w = A0(x, y) - A(x, y) v the admissible fibre velocity."""

    def reconstruct_w(self, x, y, v):
        """w = A0 - A v at (x, y) for the base velocity v, as m floats."""
        q, v = as_floats(x) + as_floats(y), as_floats(v)
        return [f0.value(q) - dot([f.value(q) for f in row], v)
                for f0, row in zip(self.A0, self.A)]


@dataclass
class ConstrainedState:
    """The reduced state (x, y, v), each block a list of floats."""
    x: list
    y: list
    v: list

    def __post_init__(self):
        self.x = as_floats(self.x)
        self.y = as_floats(self.y)
        self.v = as_floats(self.v)

    def as_array(self):
        return self.x + self.y + self.v


class ConstrainedLagrangianField(ScalarField):
    """L with the fibre velocity eliminated: (x, y, v) -> L(x, y, v, w(x,y,v)).

    w^a = A0^a - A^a_i v^i is the constraint's own splitting, one tape per
    component compiled from the constraint's expressions; a jet is one
    chain rule of L over the seed jets of (x, y, v) and those tapes' jets.
    """

    def __init__(self, L, c):
        n, m = L.chart.n, L.chart.m
        super().__init__(2 * n + m, None, "L_constrained")
        self.L = L
        self.c = c
        self.w = c.to_splitting().coefficients

    def jet(self, s):
        w_jets = [f.jet(s) for f in self.w]
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


def integrate_constrained(L, c, ic, t0, t1, dt):
    """RK4 on the reduced state from t0 to t1, recording the constrained
    energy at each point.  dy/dt is the reconstructed w itself, so the
    constraint holds by construction of the right-hand side; whether the
    integrated y follows it is measured afterwards, by
    splitting.rate_residual of the recorded y against A0 - A v."""
    system = ConstrainedSystem(L, c)
    return rk4_integrate(system.rhs, t0, t1, ic.as_array(), dt,
                         lambda t, s: {"energy": system.energy(s)})
