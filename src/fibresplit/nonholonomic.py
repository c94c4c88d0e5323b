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

import numpy as np

from .jets import ScalarField, seed_jets
from .numerics import as_floats, dot, linear_solve, rk4_integrate
from .splitting import AffineSplittingData, _curvature_lists


@dataclass
class AffineConstraintSpec(AffineSplittingData):
    """Affine constraint data; identical layout to an affine splitting,
    with w = A0(x, y) - A(x, y) v the admissible fibre velocity."""

    def reconstruct_w(self, x, y, v):
        return np.array(self._w_lists(as_floats(x) + as_floats(y),
                                      as_floats(v))[0])

    def _w_lists(self, q, v):
        """(w, A) at the point q = x + y for the velocity v, as float
        lists: w = A0 - A v."""
        A0 = [float(f.value(q)) for f in self.A0]
        A = [[float(f.value(q)) for f in row] for row in self.A]
        return [a0 - dot(row, v) for a0, row in zip(A0, A)], A


@dataclass
class ConstrainedState:
    x: np.ndarray
    y: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.v = np.asarray(self.v, dtype=float)

    def as_array(self):
        return np.concatenate([self.x, self.y, self.v])


class ConstrainedLagrangianField(ScalarField):
    """L with the fibre velocity eliminated: (x, y, v) -> L(x, y, v, w(x,y,v)).

    w^a = A0^a - A^a_i v^i is the constraint's own splitting, one tape per
    component compiled from the constraint's expressions; a jet is one
    chain rule of L over the seed jets of (x, y, v) and those tapes' jets.
    """

    def __init__(self, L, c, label="L_constrained"):
        n, m = L.chart.n, L.chart.m
        super().__init__(2 * n + m, None, label)
        self.L = L
        self.c = c
        self.w = c.to_splitting().coefficients

    def jet(self, s):
        w_jets = [f.jet(s) for f in self.w]
        return self.L.field.chain(seed_jets(s) + w_jets)

    def value(self, s):
        s = np.asarray(s, dtype=float)
        n, m = self.L.chart.n, self.L.chart.m
        w = self.c.reconstruct_w(s[:n], s[n:n + m], s[n + m:])
        return self.L.field.value(np.concatenate([s, w]))


def constrained_lagrangian(L, c):
    return ConstrainedLagrangianField(L, c)


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
        ydot, A = self.c._w_lists(q, v)
        _, g, H = self.Lc.jet_lists(s)
        B, A0d = _curvature_lists(self.c, q)
        Lw = self.L.field.jet_lists(s + ydot)[1][k:]
        rhs_v = []
        for i in range(n):
            row = H[k * (n + m + i):k * (n + m + i + 1)]
            force = sum((-dot(B[a][i], v) - A0d[a][i]) * Lw[a]
                        for a in range(m))
            rhs_v.append(g[i] - sum(A[a][i] * g[n + a] for a in range(m))
                         - dot(row[:n], v) - dot(row[n:n + m], ydot)
                         + force)
        M = [H[k * r + n + m:k * (r + 1)] for r in range(n + m, k)]
        return v + ydot + linear_solve(M, rhs_v).tolist()

    def energy(self, s):
        """Constrained energy v . dLc/dv - Lc."""
        n, m = self.L.chart.n, self.L.chart.m
        s = as_floats(s)
        value, g, _ = self.Lc.jet_lists(s)
        return dot(g[n + m:], s[n + m:]) - value


def lagrange_dalembert_system(L, c):
    return ConstrainedSystem(L, c)


def integrate_constrained(L, c, ic, T, dt):
    """RK4 on the reduced state, recording the constrained energy at each
    point.  dy/dt is the reconstructed w itself, so the constraint holds
    by construction of the right-hand side; whether the integrated y
    follows it is measured afterwards, by splitting.rate_residual of the
    recorded y against A0 - A v."""
    system = ConstrainedSystem(L, c)
    return rk4_integrate(system.rhs, 0.0, T, ic.as_array(), dt,
                         lambda t, s: {"energy": system.energy(s)})
