"""Dense linear solves, damped Newton, fixed-step RK4, and sampled maxima.

Small problem sizes throughout (chart dimensions), so the linear algebra
is delegated to numpy's LAPACK bindings behind a strict contract: solves
are rejected on a large condition estimate and the residual postcondition
is always verified.
"""

import math
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


def linear_solve(system, cond_bound=1e13):
    """Solve A x = b (x has the shape of b).

    Raises SingularMatrix when the factorization fails, the condition
    estimate exceeds cond_bound, or the solution misses the residual
    postcondition max|Ax-b| <= 1e-10 (1 + max|b|).
    """
    A, b = system.A, system.b
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise SingularMatrix("non-finite entries in linear system")
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > cond_bound:
        raise SingularMatrix(
            f"condition estimate {cond:.3e} over bound {cond_bound:.1e}")
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    resid = np.abs(A @ x - b).max() if b.size else 0.0
    if resid > 1e-10 * (1.0 + np.abs(b).max() if b.size else 1.0):
        raise SingularMatrix(
            f"solution residual {resid:.3e} violates postcondition")
    return x


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
