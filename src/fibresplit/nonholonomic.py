"""Affine velocity constraints and constrained dynamics.

A constraint dy/dt + A(x,y) dx/dt = A0(x,y) is an affine splitting
(splitting.AffineSplittingData): its coefficients w = A0 - A v eliminate
the fibre velocity exactly, so the state is (x, y, v) and the integrated
dy/dt satisfies the constraint by construction.  The equations of motion
carry the constraint's curvature on the right-hand side, contracted with
the fibre momentum dL/dw of the unconstrained Lagrangian evaluated on the
constraint surface.  The constraint's coefficients are one tape per
component, compiled from its expressions, and they are the only formula
for w here.  The right-hand side reads its fields (the jets of A and A0,
of the coefficients at (x, y, v) and of L at (x, y, v, w)) and hands them
to one straight-line function per (n, m), generated on first use
(_constrained_tail): it forms the constrained Lagrangian's gradient and
Hessian by the chain rule of jets.jet2_compose, the curvature
coefficients of splitting.curvature_lines and the solve of numerics'
lines, so each call takes one jet of L.  The recorded energy reads the
constrained Lagrangian's jet from ConstrainedLagrangianField, one chain
rule of L over the coefficient tapes' jets at runtime.  Both sum each
contraction in index order.
"""

from functools import cache

from .errors import DimensionMismatch, DomainError
from .jets import ScalarField, jet2_compose, seed_jets
from .lagrangian import energy
from .numerics import (_dot_of, _finite_lines, _names, _solve_lines,
                       _total_of, as_floats, generated, rk4_integrate)
from .splitting import curvature_lines, curvature_reads

# the chain rule's error, raised by the generated right-hand side
_NON_FINITE = "_DomainError('jet has non-finite entries')"


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
        s = self._point(s)
        w_jets = [f.jet(s) for f in self.c.coefficients]
        L_jet = self.L.field.jet(s + [jet.value for jet in w_jets])
        return jet2_compose(L_jet, seed_jets(s) + w_jets)


class ConstrainedSystem:
    """First-order dynamics of the reduced state (x, y, v).

    dy/dt is the constraint's w; dv/dt solves the momentum balance of the
    constrained Lagrangian against the curvature force
    (-B[a,i,:] . v - A0d[a,i]) dL/dw^a (_constrained_tail).
    """

    def __init__(self, L, c):
        self.L = L
        self.c = c
        self.Lc = ConstrainedLagrangianField(L, c)

    def rhs(self, t, s):
        n, m = self.L.chart.n, self.L.chart.m
        s = as_floats(s)
        q = s[:n + m]
        A = [f.jet_lists(q) for row in self.c.A for f in row]
        A0 = [f.jet_lists(q) for f in self.c.A0]
        s = self.Lc._point(s)
        W = [f.jet_lists(s) for f in self.c.coefficients]
        return _constrained_tail(n, m)(
            s, A, A0, W, self.L.field.jet_lists(s + [jet[0] for jet in W]))

    def energy(self, s):
        """Constrained energy v . dLc/dv - Lc."""
        return energy(self.Lc, s, self.L.chart.n + self.L.chart.m)


@cache
def _constrained_tail(n, m):
    """ConstrainedSystem.rhs after its field reads, for n base and m fibre
    dimensions, lowered to one straight-line function on first use:

      tail(s, A, A0, W, L) -> v + w + vdot

    from the state s = (x, y, v), the jets of the A fields (row by row)
    and the A0 fields at (x, y), the coefficients' jets W at s and L's jet
    at (s, w), w the coefficients' values.  With g and H the gradient and
    Hessian of the constrained Lagrangian Lc, vdot solves

      H_vv vdot = g_x - A^T g_y - H_vx v - H_vy w
                  + sum_a (-B[a, :, :] v - A0d[a, :]) dL/dw^a

    B and A0d as curvature_lines gives them.  g and H are
    jets.jet2_compose's chain rule over the seeds of s and W: each sum in
    its order from 0.0, the seeds' structural zeros and ones dropped (a
    sum from +0.0 is unchanged by a +-0.0 term) and H symmetrized as the
    average with its transpose, on the v rows the force reads.  Every
    entry of g and of H before that average is formed and checked, so a
    non-finite s or composed entry raises DomainError("jet has non-finite
    entries") where the runtime chain rule raises it; the solve is
    numerics' lines, its SingularMatrix unwrapped as linear_solve raises
    it."""
    k = 2 * n + m
    K = k + m
    N, M, S = range(n), range(m), range(k)
    v = [f"s{n + m + i}" for i in N]

    body = [f"{_names('s', k)} = s"]
    body += _finite_lines([f"s{i}" for i in S], _NON_FINITE)
    body += curvature_reads(n, m)
    W = [f"(wv{a}, {_names(f'wg{a}_', k)}, {_names(f'wh{a}_', k * k)})"
         for a in M]
    body += [f"{', '.join(W)}, = W",
             f"_, {_names('lg', K)}, {_names('lh', K * K)} = L"]
    # jet2_compose's G^T F'' (column b of it, row i) and gradient
    body += [f"gh{b}_{i} = 0.0 + lh{i * K + b}"
             + "".join(f" + wg{c}_{i} * lh{(k + c) * K + b}" for c in M)
             for b in range(K) for i in S]
    body += [f"cg{i} = 0.0 + lg{i}"
             + "".join(f" + lg{k + c} * wg{c}_{i}" for c in M) for i in S]
    # its Hessian (G^T F'') G + F' G'' before the average
    body += [f"ch{i}_{j} = 0.0 + gh{j}_{i}"
             + "".join(f" + gh{k + c}_{i} * wg{c}_{j}" for c in M)
             + "".join(f" + lg{k + c} * wh{c}_{i * k + j}" for c in M)
             for i in S for j in S]
    body += _finite_lines([f"cg{i}" for i in S]
                          + [f"ch{i}_{j}" for i in S for j in S], _NON_FINITE)
    # the v rows of the average
    body += [f"H{i}_{j} = 0.5 * ch{n + m + i}_{j} + 0.5 * ch{j}_{n + m + i}"
             for i in N for j in S]
    body += curvature_lines(n, m)
    for i in N:
        force = [f"(-{_dot_of((f'B{a}_{i}_{j}', v[j]) for j in N)} - "
                 f"A0d{a}_{i}) * lg{k + a}" for a in M]
        body.append(
            f"b0_{i} = cg{i} - "
            f"{_dot_of((f'Av{a}_{i}', f'cg{n + a}') for a in M)} - "
            f"{_dot_of((f'H{i}_{j}', v[j]) for j in N)} - "
            f"{_dot_of((f'H{i}_{n + a}', f'wv{a}') for a in M)} + "
            f"{_total_of(force)}")
    body += [f"a{i}_{j} = H{i}_{n + m + j}" for i in N for j in N]
    body += _solve_lines(n, 1)
    out = v + [f"wv{a}" for a in M] + [f"w0_{i}" for i in N]
    body.append(f"return [{', '.join(out)}]")
    return generated("tail", "s, A, A0, W, L", body,
                     f"<constrained rhs, n = {n}, m = {m}>",
                     _DomainError=DomainError)


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
