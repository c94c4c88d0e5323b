"""Dense linear solves, damped Newton, fixed-step RK4, and sampled maxima.

Linear systems here are chart-sized: k is at most the chart dimension
n + m, and 1 to 3 on the shipped models.  At those sizes a numpy call
costs more than the arithmetic, so linear solves run in plain Python
floats: LU with partial pivoting and the 1-norm condition number from the
factors (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
2002, ch. 9 and 15).  The condition number takes k triangular solves, so
the cost grows as k^3, and from about k = 4 on LAPACK would be faster.
The contract is strict: solves are rejected on a large condition number
and the residual postcondition is always verified.
"""

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatch, DomainError, NoConvergence,
                     NonFiniteState, SingularMatrix)


@dataclass
class LinearSystem:
    """Square system A x = b; a 2-D b holds one right-hand side per column."""
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        n = self.b.shape[0] if self.b.ndim else -1
        if self.A.shape != (n, n) or self.b.ndim not in (1, 2):
            raise DimensionMismatch(
                f"system shapes {self.A.shape} vs {self.b.shape}")


def all_finite(*seqs):
    """Whether every number in the flat sequences seqs is finite.  A finite
    sum proves it in one pass; a sum that is not finite (an overflow, an
    inf or a nan) is rechecked entry by entry."""
    return (math.isfinite(sum(itertools.chain(*seqs)))
            or all(map(math.isfinite, itertools.chain(*seqs))))


def _unit_scale(a):
    """1.0 when the largest |entry| of the matrix a (a list of rows) lies
    in [2^-500, 2^500], where neither |A|_1 nor |A^-1|_1 over- or
    underflows below kappa_1 = 2^500; otherwise the power of two s that
    brings it into [1/2, 1), at most 2^1022 (for a subnormal matrix).
    Multiplying by s is exact barring underflow of entries 2^1074 below
    the largest, and kappa_1 is invariant under it."""
    big = max(map(abs, itertools.chain(*a)), default=0.0)
    if 2.0 ** -500 <= big <= 2.0 ** 500:
        return 1.0
    return 2.0 ** -max(math.frexp(big)[1], -1022)


def _lu_factor(a):
    """Factor the square matrix a (a list of rows, overwritten) as
    P A = L U by partial pivoting: U on and above the diagonal, the
    multipliers of the unit lower triangle L below it.  Returns the row
    order P, or None at an exactly zero pivot."""
    n = len(a)
    order = list(range(n))
    for j in range(n):
        p, big = j, abs(a[j][j])
        for i in range(j + 1, n):
            if abs(a[i][j]) > big:
                p, big = i, abs(a[i][j])
        if big == 0.0:
            return None
        if p != j:
            a[j], a[p] = a[p], a[j]
            order[j], order[p] = order[p], order[j]
        top = a[j]
        pivot = top[j]
        for row in a[j + 1:]:
            mult = row[j] = row[j] / pivot
            for c in range(j + 1, n):
                row[c] -= mult * top[c]
    return order


def _back_substitute(lu, y):
    """Overwrite the list y with the solution of U x = y."""
    n = len(lu)
    for i in range(n - 1, -1, -1):
        row = lu[i]
        s = y[i]
        for j in range(i + 1, n):
            s -= row[j] * y[j]
        y[i] = s / row[i]
    return y


def _lu_solve(lu, order, b):
    """The solution of A x = b (lists) from the factors of A."""
    y = [b[p] for p in order]
    for i, row in enumerate(lu):
        s = y[i]
        for j in range(i):
            s -= row[j] * y[j]
        y[i] = s
    return _back_substitute(lu, y)


def _condition(a, lu, order):
    """kappa_1(A) = |A|_1 |A^-1|_1 from A and its factors; inf when order
    is None (a zero pivot).  |A^-1|_1 is the largest column sum of
    U^-1 L^-1, whose columns are those of A^-1 = U^-1 L^-1 P reordered;
    column q of L^-1 is zero above row q."""
    if order is None:
        return math.inf
    n = len(a)
    inv = 0.0
    for q in range(n):
        y = [0.0] * n
        y[q] = 1.0
        for i in range(q + 1, n):
            row = lu[i]
            s = 0.0
            for j in range(q, i):
                s -= row[j] * y[j]
            y[i] = s
        s = sum(map(abs, _back_substitute(lu, y)))
        if s > inv or s != s:  # an overflow's nan must not slip past
            inv = s
    return max((sum(map(abs, col)) for col in zip(*a)), default=0.0) * inv


def condition_number(A):
    """The 1-norm condition number kappa_1(A) = |A|_1 |A^-1|_1 of a square
    matrix, the one linear_solve bounds: inf when A is exactly singular,
    nan or inf when an entry of A is not finite.  It lies within a factor
    k of the 2-norm condition number."""
    a = np.asarray(A, dtype=float).tolist()
    scale = _unit_scale(a)
    a = [[v * scale for v in row] for row in a]
    lu = [row[:] for row in a]
    return _condition(a, lu, _lu_factor(lu))


def linear_solve(system, cond_bound=1e13):
    """Solve A x = b (x has the shape of b).

    Raises SingularMatrix when A or b has a non-finite entry, when the
    1-norm condition number exceeds cond_bound (inf at an exactly zero
    pivot), or when the solution misses the residual postcondition
    max|Ax-b| <= 1e-10 (1 + max|b|).
    """
    a = system.A.tolist()
    one_rhs = system.b.ndim == 1
    cols = [system.b.tolist()] if one_rhs else system.b.T.tolist()
    if not all_finite(*a, *cols):
        raise SingularMatrix("non-finite entries in linear system")
    # solve s A x = s b, with the same kappa_1, solution and postcondition
    scale = _unit_scale(a)
    if scale != 1.0:
        a = [[v * scale for v in row] for row in a]
        cols = [[v * scale for v in col] for col in cols]
    lu = [row[:] for row in a]
    order = _lu_factor(lu)
    cond = _condition(a, lu, order)
    if not cond <= cond_bound:
        raise SingularMatrix(
            f"condition estimate {cond:.3e} over bound {cond_bound:.1e}")
    xs = [_lu_solve(lu, order, col) for col in cols]
    resid = 0.0
    for x, col in zip(xs, cols):
        for row, bi in zip(a, col):
            r = abs(sum(map(operator.mul, row, x)) - bi)
            if r > resid or r != r:
                resid = r
    bmax = max(map(abs, itertools.chain(*cols)), default=0.0)
    if not resid <= 1e-10 * (scale + bmax):
        raise SingularMatrix(
            f"solution residual {resid / scale:.3e} violates postcondition")
    if one_rhs:
        return np.array(xs[0])
    return np.array(xs).reshape(len(cols), len(a)).T


_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 50


@dataclass
class NewtonProblem:
    """Root problem F(x) = 0; system(x) returns (F(x), DF(x)) at once.
    Newton gives up after max_iter steps or a contraction over the max."""
    system: object
    x0: np.ndarray
    max_iter: int = _NEWTON_MAX_ITER
    max_contraction: float = math.inf


@dataclass
class NewtonResult:
    """Root, iterations, final max|F| and the contraction |dx_2| / |dx_1|
    of the first two steps (0.0 after at most one step, inf if damped)."""
    x: np.ndarray
    iterations: int
    residual: float
    contraction: float


def newton_solve(problem):
    """Damped Newton iteration to max|F| <= 1e-10 in at most
    problem.max_iter (by default 50) iterations.

    Full steps are halved (at most 20 times) until the residual norm
    decreases.  Each trial point costs one system call, and the Jacobian
    that came with the accepted point drives the next step, so an affine
    residual converges in exactly one iteration and two system calls; the
    last call is at the returned root.  Raises NoConvergence with the
    iteration count and last residual norm on failure, or as soon as the
    contraction of the first two steps exceeds problem.max_contraction.
    """
    x = np.asarray(problem.x0, dtype=float).copy()
    r, J = problem.system(x)
    r = np.asarray(r, dtype=float)
    rnorm = np.abs(r).max() if r.size else 0.0
    if rnorm <= _NEWTON_TOL:
        return NewtonResult(x, 0, float(rnorm), 0.0)
    first = theta = 0.0
    for it in range(1, problem.max_iter + 1):
        step = linear_solve(LinearSystem(J, -r))
        lam = 1.0
        accepted = False
        for _ in range(21):
            xn = x + lam * step
            rn, Jn = problem.system(xn)
            rn = np.asarray(rn, dtype=float)
            rn_norm = np.abs(rn).max() if np.isfinite(rn).all() else math.inf
            if rn_norm < rnorm or rn_norm <= _NEWTON_TOL:
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            raise NoConvergence(
                f"step damping failed after 20 halvings at iteration {it}",
                iterations=it, residual=float(rnorm))
        if lam < 1.0:
            theta = math.inf
        elif it == 1:
            first = np.abs(step).max()
        elif it == 2 and theta == 0.0:
            theta = float(np.abs(step).max() / first)
        if theta > problem.max_contraction:
            raise NoConvergence(f"contraction {theta:.3g} at iteration {it}",
                                iterations=it, residual=float(rn_norm))
        x, r, J, rnorm = xn, rn, Jn, rn_norm
        if rnorm <= _NEWTON_TOL:
            return NewtonResult(x, it, float(rnorm), theta)
    raise NoConvergence(
        f"no convergence in {problem.max_iter} iterations",
        iterations=problem.max_iter, residual=float(rnorm))


@dataclass
class IvpProblem:
    """Initial value problem y' = f(t, y) on [t0, t1] with step dt."""
    f: object
    t0: float
    t1: float
    y0: np.ndarray
    dt: float


@dataclass
class TrajectoryRecord:
    """Sampled solution: times (N,), states (N, d), optional diagnostics."""
    t: np.ndarray
    states: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def final(self):
        return self.states[-1]


def _rk4_step(f, t, y, dt):
    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, y + (0.5 * dt) * k1)
    k3 = f(t + 0.5 * dt, y + (0.5 * dt) * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_integrate(problem, diagnostic=None):
    """Classic fixed-step RK4.

    The grid is t0 + i*dt; a shorter final step lands exactly on t1.
    diagnostic, if given, maps (t, y) to a dict of floats recorded at every
    stored point.  Raises NonFiniteState as soon as the state leaves
    float range.
    """
    if problem.dt <= 0:
        raise ValueError("dt must be positive")
    if problem.t1 < problem.t0:
        raise ValueError("t1 must be >= t0")
    y = np.asarray(problem.y0, dtype=float).copy()
    span = problem.t1 - problem.t0
    n_full = int(math.floor(span / problem.dt + 1e-12))
    rem = span - n_full * problem.dt
    if rem < 1e-12 * max(1.0, abs(span)):
        rem = 0.0
    steps = [problem.dt] * n_full + ([rem] if rem else [])
    times = [problem.t0]
    states = [y.copy()]
    diags = []
    if diagnostic is not None:
        diags.append(diagnostic(problem.t0, y))
    f = problem.f
    def fa(t, s):
        return np.asarray(f(t, s), dtype=float)
    t = problem.t0
    for i, h in enumerate(steps):
        y = _rk4_step(fa, t, y, h)
        # recompute t from the grid, not by accumulation
        t = problem.t0 + (i + 1) * problem.dt if i + 1 <= n_full else problem.t1
        if i + 1 == len(steps):
            t = problem.t1
        if not np.isfinite(y).all():
            raise NonFiniteState(f"state non-finite at t={t}")
        times.append(t)
        states.append(y.copy())
        if diagnostic is not None:
            diags.append(diagnostic(t, y))
    record = TrajectoryRecord(np.array(times), np.array(states))
    if diagnostic is not None and diags:
        keys = diags[0].keys()
        record.diagnostics = {k: np.array([d[k] for d in diags]) for k in keys}
    return record


@dataclass
class SampleReport:
    """Max-abs residual over a sampled box, with bookkeeping.

    max_residual is an array when the residual returns several values.
    """
    max_residual: float
    sample_count: int
    seed: int
    skipped: int = 0


def sample_max(residual, samples, seed, width, box=1.0):
    """Elementwise max of residual(z) over `samples` usable draws of z from
    [-box, box]^width.

    A draw whose residual raises DomainError is skipped and redrawn, up to
    50 draws per sample in total.  seed may be a Generator, so a caller
    drawing from the same stream keeps its draw order.  Raises DomainError
    when no draw is usable.
    """
    rng = np.random.default_rng(seed)
    worst = -math.inf
    used = skipped = 0
    while used < samples and used + skipped < 50 * samples:
        z = rng.uniform(-box, box, width)
        try:
            r = residual(z)
        except DomainError:
            skipped += 1
            continue
        used += 1
        worst = np.maximum(worst, r)
    if used == 0:
        raise DomainError("no admissible sample points")
    return SampleReport(worst, used, seed, skipped)
