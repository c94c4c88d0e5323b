"""The generated EL, magnetic and constrained right-hand sides, and the
generated affine curvature coefficients, against the hand-written bodies
they replaced, which live on here as the bit-for-bit reference."""

import math
import struct

import numpy as np
import pytest

from fibresplit import (lagrangian, nonholonomic, numerics, reduction,
                        splitting)
from fibresplit.bundle import BundleChart
from fibresplit.errors import (DimensionMismatch, DomainError,
                               SingularHessian, SingularMatrix)
from fibresplit.jets import Jet2, jet2_compose, seed_jets
from fibresplit.lagrangian import (LagrangianSpec, _force_from_jet,
                                   euler_lagrange_sode)
from fibresplit.nonholonomic import ConstrainedSystem
from fibresplit.numerics import as_floats, dot, linear_solve, total
from fibresplit.reduction import MagneticModel, MagneticSystem
from fibresplit.splitting import (AffineSplittingData,
                                  affine_curvature_coefficients,
                                  affine_decompose)

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
    U = [[[f.value(x) for f in row] for row in plane]
         for plane in mdl.upsilon]
    Kc = [[[f.value(x) for f in row] for row in plane] for plane in mdl.Kcurv]
    Lbar = system.Lbar.jet_lists(s[:2 * n])
    return reference_magnetic_tail(s, Af, U, Kc, Lbar, mdl.k, mdl.C)


def flat_grids(s, Af, U, Kc, Lbar, k, C):
    """The magnetic tail's arguments as MagneticSystem.rhs passes them:
    Upsilon and Kcurv flattened in row order."""
    return (s, Af, [e for plane in U for row in plane for e in row],
            [e for plane in Kc for row in plane for e in row], Lbar, k, C)


def outcome(fn, *args):
    """("ok", the bytes of each float) or (error type, message); a wrapped
    SingularHessian must come from a SingularMatrix."""
    try:
        out = fn(*args)
    except (SingularHessian, SingularMatrix, DomainError,
            DimensionMismatch) as exc:
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
        assert outcome(tail, *flat_grids(*args)) == \
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
        assert outcome(tail, *flat_grids(*args)) == want


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
        assert outcome(tail, *flat_grids(*args)) == (kind, message)


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


def reference_curvature(A, A0, n, m):
    """The arithmetic of affine_curvature_coefficients as it was written
    by hand, from the A fields' jets (m rows of n) and the A0 fields'."""
    # gradient layout of point fields: first n entries d/dx, next m d/dy
    col = [[A[b][i][0] for b in range(m)] for i in range(n)]  # A^b_i over b
    dA = [[jet[1] for jet in row] for row in A]
    B = [[[-dA[a][j][i] + dot(col[i], dA[a][j][n:])
           + dA[a][i][j] - dot(col[j], dA[a][i][n:])
           for j in range(n)] for i in range(n)] for a in range(m)]
    A0val = [jet[0] for jet in A0]
    A0d = [[A0[a][1][i] - dot(col[i], A0[a][1][n:])
            + dot(A0val, dA[a][i][n:])
            for i in range(n)] for a in range(m)]
    return B, A0d, [[jet[0] for jet in row] for row in A]


def reference_curvature_coefficients(data, x, y):
    """affine_curvature_coefficients as it was written by hand."""
    q = as_floats(x) + as_floats(y)
    A = [[f.jet_lists(q) for f in row] for row in data.A]
    A0 = [f.jet_lists(q) for f in data.A0]
    return reference_curvature(A, A0, data.chart.n, data.chart.m)


def reference_chain(Lc, s):
    """ConstrainedLagrangianField._chain as it was: the jet at s, L's jet
    that it chains, and w, the coefficients' values at s."""
    s = Lc._point(s)
    w_jets = [f.jet(s) for f in Lc.c.coefficients]
    w = [jet.value for jet in w_jets]
    L_jet = Lc.L.field.jet(s + w)
    return jet2_compose(L_jet, seed_jets(s) + w_jets), L_jet, w


def reference_constrained_force(s, curvature, chain, n, m):
    """ConstrainedSystem.rhs as it was written by hand, after its
    curvature coefficients and its chain rule."""
    k = 2 * n + m
    v = s[n + m:]
    B, A0d, A = curvature
    jet, L_jet, ydot = chain
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


def reference_constrained_rhs(system, s):
    """The hand-written ConstrainedSystem.rhs, field reads in its order."""
    n, m = system.L.chart.n, system.L.chart.m
    s = as_floats(s)
    curvature = reference_curvature_coefficients(system.c, s[:n],
                                                 s[n:n + m])
    return reference_constrained_force(s, curvature,
                                       reference_chain(system.Lc, s), n, m)


def reference_constrained_tail(s, A, A0, W, L):
    """The hand-written right-hand side on the constrained tail's inputs,
    its jets wrapped unchecked as a tape field's jet() wraps them."""
    m = len(A0)
    n = len(A) // m
    curvature = reference_curvature(
        [A[a * n:(a + 1) * n] for a in range(m)], A0, n, m)
    w_jets = [Jet2._trusted(*jet) for jet in W]
    L_jet = Jet2._trusted(*L)
    chain = (jet2_compose(L_jet, seed_jets(s) + w_jets), L_jet,
             [jet.value for jet in w_jets])
    return reference_constrained_force(s, curvature, chain, n, m)


def constrained_model(n, m, rng):
    """A seeded constrained system on the (n, m) chart: A and A0 depend on
    x and y, A0 is nonzero, and L couples w to v and to x."""
    def c():
        return round(float(rng.uniform(-0.4, 0.4)), 4)

    chart = BundleChart(n, m)
    x, y = chart.x_names, chart.y_names
    v, w = chart.v_names, chart.w_names
    A = [[f"{c()} + {c()}*{x[i]}*{y[a]} + {c()}*{y[(a + 1) % m]}^2"
          for i in range(n)] for a in range(m)]
    A0 = [f"{c()} + {c()}*{x[a % n]} + {c()}*sin({y[a]})*{x[0]}"
          for a in range(m)]
    terms = [f"0.5*(1 + {abs(c())}*{x[i]}^2)*{v[i]}^2" for i in range(n)]
    terms += [f"0.5*(1 + {abs(c())}*{y[a]}^2)*{w[a]}^2" for a in range(m)]
    terms += [f"{c()}*{w[a]}*{v[a % n]} + {c()}*{w[a]}*{x[(a + 1) % n]}"
              for a in range(m)]
    terms += [f"{c()}*{v[0]}^4", f"-0.5*{x[-1]}^2"]
    L = LagrangianSpec.from_expression(chart, " + ".join(terms))
    return ConstrainedSystem(
        L, AffineSplittingData.from_expressions(chart, A, A0))


def float_bytes(nested):
    """The bytes of every float of nested lists, in order."""
    if isinstance(nested, list):
        return b"".join(map(float_bytes, nested))
    assert type(nested) is float
    return struct.pack("<d", nested)


@pytest.mark.parametrize("n, m", CHARTS)
def test_constrained_rhs_matches_the_reference_bit_for_bit(n, m):
    rng = np.random.default_rng(120 + 10 * n + m)
    system = constrained_model(n, m, rng)
    for _ in range(30):
        s = rng.uniform(-1.0, 1.0, 2 * n + m).tolist()
        want = outcome(reference_constrained_rhs, system, s)
        assert want[0] == "ok"
        assert outcome(system.rhs, 0.0, s) == want
        x, y = s[:n], s[n:n + m]
        assert float_bytes(list(affine_curvature_coefficients(
            system.c, x, y))) == float_bytes(list(
                reference_curvature_coefficients(system.c, x, y)))


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (2, 2)])
def test_curvature_of_a_decomposed_splitting_matches_the_reference(n, m):
    # affine_decompose's A fields are DerivedFields, not tapes
    rng = np.random.default_rng(140 + 10 * n + m)
    data = affine_decompose(constrained_model(n, m, rng).c, samples=5)
    for _ in range(10):
        x, y = (rng.uniform(-1.0, 1.0, n).tolist(),
                rng.uniform(-1.0, 1.0, m).tolist())
        assert float_bytes(list(affine_curvature_coefficients(
            data, x, y))) == float_bytes(list(
                reference_curvature_coefficients(data, x, y)))


def random_constrained_inputs(rng, n, m, draw):
    """Inputs of the constrained tail with entries from draw(shape), L's
    velocity block kept regular: the state, the A and A0 jets, the
    coefficients' jets and L's jet."""
    k = 2 * n + m
    K = k + m
    H = np.array(draw((K, K)))
    H[n + m:k, n + m:k] = 4.0 * np.eye(n) + np.array(draw((n, n)))
    A = [(draw(()), draw((n + m,)), draw(((n + m) ** 2,)))
         for _ in range(m * n)]
    A0 = [(draw(()), draw((n + m,)), draw(((n + m) ** 2,)))
          for _ in range(m)]
    W = [(draw(()), draw((k,)), draw((k * k,))) for _ in range(m)]
    return (draw((k,)), A, A0, W,
            (draw(()), draw((K,)), H.ravel().tolist()))


@pytest.mark.parametrize("n, m", CHARTS)
def test_constrained_tail_matches_the_reference_on_arbitrary_inputs(n, m):
    rng = np.random.default_rng(160 + 10 * n + m)
    tail = nonholonomic._constrained_tail(n, m)

    def draw(shape):
        return rng.uniform(-1.0, 1.0, shape).tolist()

    for _ in range(30):
        args = random_constrained_inputs(rng, n, m, draw)
        want = outcome(reference_constrained_tail, *args)
        assert want[0] == "ok"
        assert outcome(tail, *args) == want


@pytest.mark.parametrize("n, m", CHARTS)
def test_constrained_tail_keeps_the_sign_of_zero_as_the_reference(n, m):
    rng = np.random.default_rng(180 + 10 * n + m)
    tail = nonholonomic._constrained_tail(n, m)
    ok = 0
    for _ in range(100):
        args = random_constrained_inputs(
            rng, n, m, lambda shape: signed_zeros(rng, shape))
        want = outcome(reference_constrained_tail, *args)
        ok += want[0] == "ok"
        assert outcome(tail, *args) == want
    assert ok >= 50


def model_on(chart, L, A, A0):
    return ConstrainedSystem(
        LagrangianSpec.from_expression(chart, L),
        AffineSplittingData.from_expressions(chart, A, A0))


@pytest.mark.parametrize("system, s, kind, message", [
    # a singular velocity block: no v1^2 in L, and w free of v
    (model_on(BundleChart(1, 1), "0.5*w1^2 + x1*v1", [["0"]], ["x1"]),
     [0.1, 0.2, 0.3], "SingularMatrix",
     "condition estimate inf over bound 1.0e+13"),
    # d2Lc/dx dx = L_w d2w/dx2 overflows, outside the rows the force
    # reads; the rows it reads stay finite
    (model_on(BundleChart(1, 1), "0.5*v1^2 + 1e300*w1", [["0"]],
              ["1e10*x1^2"]), [1e-6, 0.0, 0.3], "DomainError",
     "jet has non-finite entries"),
    # L_ww dw/dx overflows, which the runtime chain rule multiplies by
    # the seeds' zeros into nan
    (model_on(BundleChart(1, 1), "0.5*v1^2 + 1e300*w1^2", [["0"]],
              ["1e10*x1"]), [1e-12, 0.0, 0.3], "DomainError",
     "jet has non-finite entries"),
    # the same overflow in the v rows
    (model_on(BundleChart(1, 1), "0.5*v1^2 + 1e300*w1^2", [["1e10"]],
              ["0"]), [0.0, 0.0, 1e-12], "DomainError",
     "jet has non-finite entries"),
    # a state entry that no field reads is not finite
    (model_on(BundleChart(1, 1), "0.5*v1^2 + 0.5*w1^2", [["0"]], ["0"]),
     [math.nan, 0.0, 0.3], "DomainError", "jet has non-finite entries"),
    # a field outside its domain, read before the chain rule
    (model_on(BundleChart(1, 1), "0.5*v1^2 + 0.5*w1^2", [["0"]],
              ["log(y1)"]), [0.1, -0.5, 0.3], "DomainError",
     "field 'log(y1)': log of nonpositive value"),
    # a state of the wrong length
    (model_on(BundleChart(1, 1), "0.5*v1^2 + 0.5*w1^2", [["0"]], ["0"]),
     [0.1, 0.2, 0.3, 0.4], "DimensionMismatch",
     "field 'L_constrained' expects 3 inputs, got 4"),
])
def test_constrained_rhs_errors_match_the_reference(system, s, kind,
                                                    message):
    assert outcome(reference_constrained_rhs, system, s) == (kind, message)
    assert outcome(system.rhs, 0.0, s) == (kind, message)


@pytest.mark.parametrize("L", [
    # a velocity block near the largest float: halving before the sum of
    # the Hessian's average keeps it finite
    "0.8e308*v1^2 + 0.5*w1^2 + 0.1*w1*v1",
    # entries near 2^-1000, through _unit_scale's branch
    "1e-300*(v1^2 + w1^2 + 0.3*w1*x1)",
])
def test_constrained_rhs_near_the_float_range_matches_the_reference(L):
    system = model_on(BundleChart(1, 1), L, [["0.3*y1"]], ["0.2*x1"])
    for s in ([0.1, 0.2, 1e-10], [-0.4, 0.3, 1e-12], [0.5, -0.1, 0.0]):
        want = outcome(reference_constrained_rhs, system, s)
        assert want[0] == "ok"
        assert outcome(system.rhs, 0.0, s) == want


@pytest.mark.parametrize("e", [600, -600])
def test_constrained_tail_rescales_as_the_reference(e):
    # L's jet near 2^600 or 2^-600 takes the _unit_scale branch
    rng = np.random.default_rng(200 + abs(e) + (e > 0))

    def draw(shape):
        return rng.uniform(-1.0, 1.0, shape).tolist()

    for n, m in CHARTS:
        tail = nonholonomic._constrained_tail(n, m)
        for _ in range(10):
            s, A, A0, W, (val, g, H) = random_constrained_inputs(
                rng, n, m, draw)
            L = (val, [x * 2.0 ** e for x in g], [x * 2.0 ** e for x in H])
            want = outcome(reference_constrained_tail, s, A, A0, W, L)
            assert want[0] == "ok"
            assert outcome(tail, s, A, A0, W, L) == want


def test_constrained_rhs_is_the_class_method_the_tracer_patches(
        monkeypatch):
    system = constrained_model(2, 1, np.random.default_rng(10))
    assert "rhs" not in vars(system)
    calls = []
    method = ConstrainedSystem.rhs

    def traced(self, t, s):
        calls.append(t)
        return method(self, t, s)

    monkeypatch.setattr(ConstrainedSystem, "rhs", traced)
    nonholonomic.integrate_constrained(system.L, system.c,
                                       [0.1, 0.2, 0.3, 0.4, 0.5], 0.0, 0.1,
                                       0.1)
    assert calls == [0.0, 0.05, 0.05, 0.1]


def test_one_generated_constrained_tail_per_shape():
    nonholonomic._constrained_tail.cache_clear()
    splitting._curvature.cache_clear()
    system = constrained_model(2, 1, np.random.default_rng(11))
    for _ in range(3):
        system.rhs(0.0, [0.1, 0.2, 0.3, 0.4, 0.5])
        affine_curvature_coefficients(system.c, [0.1, 0.2], [0.3])
    info = nonholonomic._constrained_tail.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    # the tail states the curvature lines, not _curvature's cache
    info = splitting._curvature.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
