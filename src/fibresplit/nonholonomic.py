"""Affine velocity constraints and constrained dynamics.

A constraint dy/dt + A(x,y) dx/dt = A0(x,y) eliminates the fibre velocity
exactly: the state is (x, y, v) and w is reconstructed.  The equations of
motion carry the constraint's curvature on the right-hand side, contracted
with the fibre momentum of the unconstrained Lagrangian evaluated on the
constraint surface.  The constraint fields are expressions, so w = A0 - A v
compiles to one tape per component by substitution (to_splitting), and
the constrained Lagrangian's jets chain L over those tapes' jets.
"""

from dataclasses import dataclass

import numpy as np

from .jets import ScalarField, seed_jets
from .numerics import IvpProblem, LinearSystem, linear_solve, rk4_integrate
from .splitting import AffineSplittingData, affine_curvature_coefficients


@dataclass
class AffineConstraintSpec(AffineSplittingData):
    """Affine constraint data; identical layout to an affine splitting,
    with w = A0(x, y) - A(x, y) v the admissible fibre velocity."""

    def reconstruct_w(self, x, y, v):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        v = np.asarray(v, dtype=float)
        q = np.concatenate([x, y])
        A0 = np.array([f.value(q) for f in self.A0])
        A = np.array([[f.value(q) for f in row] for row in self.A])
        return A0 - A @ v


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
        return self.L.value(np.concatenate([s, w]))


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
        x, y, v = s[:n], s[n:n + m], s[n + m:]
        w = self.c.reconstruct_w(x, y, v)
        ydot = w
        jc = self.Lc.jet(s)
        g = jc.gradient
        H = jc.hessian
        q = np.concatenate([x, y])
        A = np.array([[f.value(q) for f in row] for row in self.c.A])
        B, A0d = affine_curvature_coefficients(self.c, x, y)
        Lw = self.L.jet(np.concatenate([x, y, v, w])).gradient[2 * n + m:]
        force = np.array([
            sum((-B[a, i] @ v - A0d[a, i]) * Lw[a] for a in range(m))
            for i in range(n)])
        rhs_v = (g[:n] - A.T @ g[n:n + m]
                 - H[n + m:, :n] @ v - H[n + m:, n:n + m] @ ydot
                 + force)
        M = H[n + m:, n + m:]
        vdot = linear_solve(LinearSystem(M, rhs_v))
        return np.concatenate([v, ydot, vdot])

    def energy(self, s):
        """Constrained energy v . dLc/dv - Lc."""
        n, m = self.L.chart.n, self.L.chart.m
        j = self.Lc.jet(np.asarray(s, dtype=float))
        return float(j.gradient[n + m:] @ s[n + m:] - j.value)


def lagrange_dalembert_system(L, c):
    return ConstrainedSystem(L, c)


def integrate_constrained(L, c, ic, T, dt):
    """RK4 on the reduced state; the recorded constraint residual
    re-derives dy/dt + A v - A0 from freshly evaluated fields.  dy/dt is
    the reconstructed w that the right-hand side integrates, so this
    residual is an identity; splitting.rate_residual of the recorded y
    against A0 - A v is the measured check."""
    system = ConstrainedSystem(L, c)
    n, m = L.chart.n, L.chart.m

    def diag(t, s):
        x, y, v = s[:n], s[n:n + m], s[n + m:]
        ydot = c.reconstruct_w(x, y, v)
        q = np.concatenate([x, y])
        A0 = np.array([f.value(q) for f in c.A0])
        A = np.array([[f.value(q) for f in row] for row in c.A])
        resid = float(np.abs(ydot + A @ v - A0).max())
        return {"constraint_residual": resid,
                "energy": system.energy(s)}

    return rk4_integrate(
        IvpProblem(system.rhs, 0.0, T, ic.as_array(), dt), diag)
