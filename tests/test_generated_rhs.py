"""The generated EL and magnetic right-hand sides against the hand-written
bodies they replaced, which live on here as the bit-for-bit reference."""

import math
import struct

import numpy as np
import pytest

from fibresplit import lagrangian, numerics, reduction
from fibresplit.bundle import BundleChart
from fibresplit.errors import SingularHessian, SingularMatrix
from fibresplit.exprs import grid_values
from fibresplit.lagrangian import (LagrangianSpec, _force_from_jet,
                                   euler_lagrange_sode)
from fibresplit.numerics import as_floats, dot, linear_solve, total
from fibresplit.reduction import MagneticModel, MagneticSystem

CHARTS = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]


def reference_force_from_jet(jet, u, extra=None):
    """lagrangian._force_from_jet as it was written by hand."""
    _, grad, hess = jet
    k = len(u)
    M, rhs = [], []
    for i in range(k):
        row = hess[2 * k * (k + i):2 * k * (k + i + 1)]
        M.append(row[k:])
        r = grad[i] - dot(row[:k], u)
        rhs.append(r if extra is None else r + extra[i])
    try:
        return linear_solve(M, rhs)
    except SingularMatrix as exc:
        raise SingularHessian(f"velocity Hessian singular: {exc}") from exc


def reference_magnetic_tail(s, Af, U, Kc, Lbar, k, C):
    """MagneticSystem.rhs as it was written by hand, after its field
    reads: A_fibre's jets Af, Upsilon and Kcurv's values and Lbar's jet."""
    m, n = len(k), len(Kc[0])
    v, wb = s[n:2 * n], s[2 * n:]
    dAf = [jet[1] for jet in Af]
    p = [dot(k[a], wb) + Af[a][0] for a in range(m)]
    extra = [total(dAf[a][i] * wb[a] for a in range(m))
             + total((-dot(Kc[a][i], v) + dot(U[a][i], wb)) * p[a]
                     for a in range(m)) for i in range(n)]
    vdot = reference_force_from_jet(Lbar, v, extra)
    pdot = [total(U[b][i][a] * v[i] * p[b]
                  for b in range(m) for i in range(n))
            + total(C[b][a][c] * wb[c] * p[b]
                    for b in range(m) for c in range(m))
            for a in range(m)]
    wbdot = linear_solve(k, [pdot[a] - dot(dAf[a], v) for a in range(m)])
    return v + vdot + wbdot


def reference_rhs(system, s):
    """The hand-written MagneticSystem.rhs, field reads in its order."""
    mdl = system.model
    n = mdl.chart.n
    s = as_floats(s)
    x = s[:n]
    Af = [f.jet_lists(x) for f in mdl.A_fibre]
    U = grid_values(mdl.upsilon, x)
    Kc = grid_values(mdl.Kcurv, x)
    Lbar = system.Lbar.jet_lists(s[:2 * n])
    return reference_magnetic_tail(s, Af, U, Kc, Lbar, mdl.k, mdl.C)


def outcome(fn, *args):
    """("ok", the bytes of each float) or (error type, message); a wrapped
    SingularHessian must come from a SingularMatrix."""
    try:
        out = fn(*args)
    except (SingularHessian, SingularMatrix) as exc:
        if isinstance(exc, SingularHessian):
            assert isinstance(exc.__cause__, SingularMatrix)
        return type(exc).__name__, str(exc)
    assert type(out) is list and {type(e) for e in out} <= {float}
    return "ok", b"".join(struct.pack("<d", e) for e in out)


def random_jet(rng, k):
    """A jet of a Lagrangian of 2k variables, as jet_lists gives it, with
    a well-conditioned velocity block."""
    H = rng.uniform(-1.0, 1.0, (2 * k, 2 * k))
    H = H + H.T
    B = rng.uniform(-1.0, 1.0, (k, k))
    H[k:, k:] = B @ B.T + np.eye(k)
    return (float(rng.uniform(-1.0, 1.0)),
            rng.uniform(-1.0, 1.0, 2 * k).tolist(), H.ravel().tolist())


def lagrangian_on(chart, rng):
    """A seeded Lagrangian, quadratic in the velocities with point-dependent
    coefficients, plus a quartic coupling."""
    q = chart.x_names + chart.y_names
    u = chart.v_names + chart.w_names
    c = [round(float(e), 4) for e in rng.uniform(0.1, 0.5, 3 * len(u))]
    terms = [f"0.5*(1 + {c[i]}*{q[i % len(q)]}^2)*{ui}^2"
             for i, ui in enumerate(u)]
    terms += [f"{c[len(u) + i]}*{u[i]}*{u[i + 1]}*{q[0]}"
              for i in range(len(u) - 1)]
    terms += [f"{c[-1]}*{u[0]}^4", f"-0.5*{q[-1]}^2"]
    return LagrangianSpec.from_expression(chart, " + ".join(terms))


@pytest.mark.parametrize("n, m", CHARTS)
@pytest.mark.parametrize("extra", [False, True])
def test_el_tail_matches_the_reference_bit_for_bit(n, m, extra):
    rng = np.random.default_rng(100 * n + 10 * m + extra)
    k = n + m
    for _ in range(50):
        jet = random_jet(rng, k)
        u = rng.uniform(-1.0, 1.0, k).tolist()
        e = rng.uniform(-1.0, 1.0, k).tolist() if extra else None
        want = outcome(reference_force_from_jet, jet, u, e)
        assert want[0] == "ok"
        assert outcome(_force_from_jet, jet, u, e) == want


@pytest.mark.parametrize("n, m", CHARTS)
def test_el_force_matches_the_reference_on_a_lagrangian(n, m):
    rng = np.random.default_rng(7 * n + m)
    L = lagrangian_on(BundleChart(n, m), rng)
    force = euler_lagrange_sode(L.field).force
    k = n + m
    for _ in range(30):
        z = rng.uniform(-1.0, 1.0, 2 * k).tolist()
        want = outcome(reference_force_from_jet, L.field.jet_lists(z), z[k:])
        assert want[0] == "ok"
        assert outcome(force, z[:k], z[k:]) == want


def signed_zeros(rng, shape):
    """Entries drawn from -1, -0.0, 0.0 and 1, where a sum started at 0.0
    and one started at its first term can differ in the sign of zero."""
    return rng.choice([-1.0, -0.0, 0.0, 1.0], shape).tolist()


@pytest.mark.parametrize("n, m", CHARTS)
def test_tails_keep_the_sign_of_zero_as_the_reference(n, m):
    rng = np.random.default_rng(80 + 10 * n + m)
    k = n + m
    tail = reduction._magnetic_tail(n, m)
    for _ in range(100):
        _, g, H = random_jet(rng, k)
        H = np.array(H).reshape(2 * k, 2 * k)
        H[k:, :k] = signed_zeros(rng, (k, k))
        jet = (0.0, signed_zeros(rng, 2 * k), H.ravel().tolist())
        u, e = signed_zeros(rng, k), signed_zeros(rng, k)
        for extra in (None, e):
            want = outcome(reference_force_from_jet, jet, u, extra)
            assert outcome(_force_from_jet, jet, u, extra) == want
        s, Af, U, Kc, Lbar, kk, C = random_tail_inputs(rng, n, m)
        args = (signed_zeros(rng, 2 * n + m),
                [(v, signed_zeros(rng, n), h) for v, _, h in Af],
                signed_zeros(rng, (m, n, m)), signed_zeros(rng, (m, n, n)),
                Lbar, kk, signed_zeros(rng, (m, m, m)))
        assert outcome(tail, *args) == \
            outcome(reference_magnetic_tail, *args)


def jet_with_velocity_block(g, block, mixed=0.0):
    """The jet of a Lagrangian of (q, u), k = len(g), with gradient g,
    d2L/du du = block and every entry of d2L/du dq equal to mixed."""
    k = len(g)
    H = np.full((2 * k, 2 * k), mixed)
    H[k:, k:] = block
    return 0.0, list(g) + [0.0] * k, H.ravel().tolist()


@pytest.mark.parametrize("jet, u, extra, message", [
    # a velocity Hessian with an exactly zero pivot
    (jet_with_velocity_block([1.0, 1.0], [[0.0, 1.0], [0.0, 2.0]]),
     [0.1, 0.2], None, "condition estimate inf over bound 1.0e+13"),
    # a finite kappa_1 over the bound
    (jet_with_velocity_block([1.0, 1.0], [[1.0, 0.0], [0.0, 1e-14]]),
     [0.1, 0.2], None, "condition estimate 1.000e+14 over bound 1.0e+13"),
    # a jet entry, or an external force, that is not finite
    (jet_with_velocity_block([math.inf, 1.0], np.eye(2)), [0.1, 0.2], None,
     "non-finite entries in linear system"),
    (jet_with_velocity_block([1.0, 1.0], np.eye(2), math.nan), [0.1, 0.2],
     None, "non-finite entries in linear system"),
    (jet_with_velocity_block([1.0, 1.0], np.eye(2)), [0.1, 0.2],
     [0.0, math.nan], "non-finite entries in linear system"),
    # x = (inf, -inf), where 0 * inf makes the residual nan
    (jet_with_velocity_block([1e300, -1e300], np.diag([1e-300, 1e-300])),
     [0.0, 0.0], None, "solution residual nan violates postcondition"),
])
def test_el_tail_errors_match_the_reference(jet, u, extra, message):
    want = ("SingularHessian", f"velocity Hessian singular: {message}")
    assert outcome(reference_force_from_jet, jet, u, extra) == want
    assert outcome(_force_from_jet, jet, u, extra) == want


@pytest.mark.parametrize("e", [600, -600])
def test_el_tail_rescales_as_the_reference(e):
    # entries near 2^600 or 2^-600 take the _unit_scale branch
    rng = np.random.default_rng(abs(e) + (e > 0))
    for k in (1, 2, 3):
        for _ in range(20):
            val, g, H = random_jet(rng, k)
            jet = (val, [v * 2.0 ** e for v in g], [v * 2.0 ** e for v in H])
            block = [jet[2][2 * k * i + j] for i in range(k, 2 * k)
                     for j in range(k, 2 * k)]
            assert numerics._unit_scale(max(map(abs, block))) != 1.0
            u = rng.uniform(-1.0, 1.0, k).tolist()
            want = outcome(reference_force_from_jet, jet, u)
            assert want[0] == "ok"
            assert outcome(_force_from_jet, jet, u) == want


def magnetic_model(n, m, rng):
    """A seeded magnetic model on the (n, m) chart with every coefficient
    set: point-dependent base metric, A, Upsilon and Kcurv."""
    def c():
        return round(float(rng.uniform(-0.5, 0.5)), 4)

    x = [f"x{i + 1}" for i in range(n)]
    g = [[f"{1.0 + abs(c())} + 0.1*{x[i]}^2" if i == j else
          f"0.05*{x[min(i, j)]}" for j in range(n)] for i in range(n)]
    return MagneticModel.from_expressions(
        BundleChart(n, m), g=g,
        k=np.diag(rng.uniform(1.0, 2.0, m)).tolist(),
        V=" + ".join(f"{c()}*{xi}^2" for xi in x),
        A_base=[f"{c()}*{x[(i + 1) % n]}" for i in range(n)],
        A_fibre=[f"{c()}*{x[a % n]} + {c()}*{x[0]}^2" for a in range(m)],
        upsilon=[[[f"{c()} + {c()}*{x[i]}" for _ in range(m)]
                  for i in range(n)] for _ in range(m)],
        Kcurv=[[[f"{c()}*{x[j]}" for j in range(n)] for i in range(n)]
               for _ in range(m)])


@pytest.mark.parametrize("n, m", CHARTS)
def test_magnetic_rhs_matches_the_reference_bit_for_bit(n, m):
    rng = np.random.default_rng(40 + 10 * n + m)
    system = MagneticSystem(magnetic_model(n, m, rng))
    assert "rhs" not in vars(system)  # the traced method is not shadowed
    for _ in range(30):
        s = rng.uniform(-1.0, 1.0, 2 * n + m).tolist()
        want = outcome(reference_rhs, system, s)
        assert want[0] == "ok"
        assert outcome(system.rhs, 0.0, s) == want


def random_tail_inputs(rng, n, m):
    """Arbitrary inputs of the magnetic tail: the arithmetic asks for no
    symmetry, Jacobi identity or bi-invariance."""
    def vals(*shape):
        return rng.uniform(-1.0, 1.0, shape).tolist()

    k = (np.array(vals(m, m)) + 2.0 * np.eye(m)).tolist()
    Af = [(float(rng.uniform(-1.0, 1.0)), vals(n), vals(n * n))
          for _ in range(m)]
    return (vals(2 * n + m), Af, vals(m, n, m), vals(m, n, n),
            random_jet(rng, n), k, vals(m, m, m))


@pytest.mark.parametrize("n, m", CHARTS)
def test_magnetic_tail_matches_the_reference_on_arbitrary_inputs(n, m):
    rng = np.random.default_rng(60 + 10 * n + m)
    tail = reduction._magnetic_tail(n, m)
    for _ in range(50):
        args = random_tail_inputs(rng, n, m)
        want = outcome(reference_magnetic_tail, *args)
        assert want[0] == "ok"
        assert outcome(tail, *args) == want


def test_magnetic_tail_errors_match_the_reference():
    rng = np.random.default_rng(5)
    tail = reduction._magnetic_tail(2, 1)
    s, Af, U, Kc, Lbar, k, C = random_tail_inputs(rng, 2, 1)
    singular = jet_with_velocity_block([1.0, 1.0], [[0.0, 1.0], [0.0, 2.0]])
    cases = [
        # Lbar's velocity Hessian: SingularHessian, as the EL force raises
        ((s, Af, U, Kc, singular, k, C), "SingularHessian",
         "velocity Hessian singular: condition estimate inf over bound "
         "1.0e+13"),
        # an overflowing external force
        ((s[:4] + [1e300], Af, U, Kc, Lbar, [[1e10]], C), "SingularHessian",
         "velocity Hessian singular: non-finite entries in linear system"),
        # k's own solve: SingularMatrix, unwrapped
        ((s, Af, U, Kc, Lbar, [[0.0]], C), "SingularMatrix",
         "condition estimate inf over bound 1.0e+13"),
        # pdot = Upsilon v p overflows, while wbar = 0 keeps extra finite
        ((s[:2] + [1e200, 1e200, 0.0], Af, [[[1e200], [1e200]]],
          [[[0.0, 0.0], [0.0, 0.0]]], Lbar, k, C), "SingularMatrix",
         "non-finite entries in linear system"),
    ]
    for args, kind, message in cases:
        assert outcome(reference_magnetic_tail, *args) == (kind, message)
        assert outcome(tail, *args) == (kind, message)


def test_one_generated_tail_per_shape():
    lagrangian._el_tail.cache_clear()
    reduction._magnetic_tail.cache_clear()
    rng = np.random.default_rng(9)
    jet = random_jet(rng, 2)
    for _ in range(3):
        _force_from_jet(jet, [0.1, 0.2])
        _force_from_jet(jet, [0.1, 0.2], [0.3, 0.4])
    info = lagrangian._el_tail.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 4, 2)
    assert lagrangian._el_tail(2, False) is lagrangian._el_tail(2, False)
    system = MagneticSystem(magnetic_model(1, 1, rng))
    for _ in range(3):
        system.rhs(0.0, [0.1, 0.2, 0.3])
    info = reduction._magnetic_tail.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    # the magnetic tail states the EL force's solve, not _el_tail's cache
    assert lagrangian._el_tail.cache_info().currsize == 2
