"""Dense linear solves, damped Newton, fixed-step RK4, and sampled maxima.

Linear systems here are chart-sized: k is at most the chart dimension
n + m, and 1 to 3 on the shipped models.  Linear solves run in plain
Python floats: LU with partial pivoting and the 1-norm condition number
from the factors (Higham, Accuracy and Stability of Numerical Algorithms,
2nd ed., 2002, ch. 9 and 15), whose pivots also give det.  Each system
shape (k rows, r right-hand sides) is lowered once, on first use, to one
straight-line function with every loop unrolled and every index
resolved; the condition number's k triangular solves still cost O(k^3),
and up to k = 6 a call stays cheaper than LAPACK's solve plus its
condition number (the timings of the straight-line solves in
CHANGES.md).  The contract is strict: a solve is rejected when its
condition number exceeds COND_BOUND, one constant that no caller sets,
and the residual postcondition is always verified.  The generator frames
of reduction.ActionSpec and the fibre metric of reduction.MagneticModel
are held to the same bound.  The function's body is _solve_lines', the
one statement of a solve's finiteness check, power-of-two rescale, LU,
bound and postcondition; the generated EL, magnetic and constrained
right-hand sides (lagrangian.force_lines, reduction._magnetic_tail,
nonholonomic._constrained_tail) inline the same lines, compiled by
generated().
linear_solve reads A as k rows and b as k numbers or k rows, and
returns x laid out like b, as Python floats.

Vectors are lists of Python floats here, as everywhere in the package.
newton_solve and rk4_integrate step their state as such a list.  The
RK4 step is one straight-line function per state length, generated on
first use by generated() like the solve kernels (_rk4_step), and each
stage is summed entry by entry in the order of the array expressions it
replaced, bit for bit.  sample_max hands each residual its draw as a
list of floats and keeps the largest residual as a float, or as a list
of floats.  Every sample draw in the package comes from Generator, numpy's
default generator (SeedSequence seeding a PCG64 stream; O'Neill, "PCG",
HMC-CS-2014-0905, 2014) in plain Python, bit for bit.

Float sums here and in the right-hand sides run left to right, through
dot, total or a generated + chain, never through sum(), which Python
3.12 and later compensate: no result depends on the interpreter's sum().
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

from .errors import (DimensionMismatch, DomainError, NoConvergence,
                     NonFiniteState, SingularMatrix)

# the largest 1-norm condition number a solve accepts, and a frame or
# metric may have
COND_BOUND = 1e13


def as_floats(a):
    """The sequence of numbers a as a new list of Python floats, so that a
    list of ints runs in float arithmetic too.  Raises DimensionMismatch
    when a is not a sequence or an entry is not a number."""
    try:
        return list(map(float, a))
    except TypeError:
        raise DimensionMismatch("expected a 1-D sequence of numbers") \
            from None


def dot(a, b):
    """sum_i a[i] b[i] over two float sequences of one length, accumulated
    from 0.0 in index order: what a numpy loop gives without the fused
    multiply-adds of a BLAS dot, and not the compensated sum() of Python
    3.12 on."""
    s = 0.0
    for p, q in zip(a, b):
        s += p * q
    return s


def total(terms):
    """The sum of the float terms, accumulated from 0.0 left to right."""
    s = 0.0
    for t in terms:
        s += t
    return s


def max_gap(a, b):
    """max_i |a_i - b_i| over two float sequences of one length, nan when
    a gap is nan, as numpy's max gives it (max() alone can pass one by)."""
    gaps = [abs(p - q) for p, q in zip(a, b, strict=True)]
    return math.nan if any(g != g for g in gaps) else max(gaps)


def all_finite(*seqs):
    """Whether every number in the flat sequences seqs is finite.  A finite
    sum proves it in one pass, one sum() per sequence; a sum that is not
    finite (an overflow, an inf or a nan) is rechecked entry by entry."""
    s = 0.0
    for seq in seqs:
        s = sum(seq, s)
    return math.isfinite(s) or all(map(math.isfinite, itertools.chain(*seqs)))


def _unit_scale(big):
    """1.0 when big, the largest |entry| of a matrix (0.0 for none), lies
    in [2^-500, 2^500], where neither |A|_1 nor |A^-1|_1 over- or
    underflows below kappa_1 = 2^500; otherwise the power of two s that
    brings it into [1/2, 1), at most 2^1022 (for a subnormal matrix).
    Multiplying by s is exact barring underflow of entries 2^1074 below
    the largest, and kappa_1 is invariant under it."""
    if 2.0 ** -500 <= big <= 2.0 ** 500:
        return 1.0
    return 2.0 ** -max(math.frexp(big)[1], -1022)


def _over_bound(cond):
    """The error of a solve whose kappa_1 is not <= COND_BOUND."""
    return SingularMatrix(
        f"condition estimate {cond:.3e} over bound {COND_BOUND:.1e}")


def _terms(head, products):
    """head - p1 - p2 - ..., evaluated left to right."""
    return " - ".join([head, *products])


def _sum_of(exprs):
    """e1 + e2 + ..., evaluated left to right."""
    return " + ".join(exprs)


def _total_of(terms):
    """The source of total over the expressions: (0.0 + t1 + t2 + ...)."""
    return f"({_sum_of(['0.0', *terms])})"


def _dot_of(pairs):
    """The source of dot over the (a, b) expression pairs: the total of
    their products a * b."""
    return _total_of(f"{a} * {b}" for a, b in pairs)


def _names(prefix, *shape, index=()):
    """The nested list of the locals prefix{i}_{j}.. over shape, as source
    that serves as an unpacking target and as a list display."""
    if not shape:
        return prefix + "_".join(map(str, index))
    return "[" + ", ".join(_names(prefix, *shape[1:], index=index + (i,))
                           for i in range(shape[0])) + ",]"


def _max_of(exprs):
    """Python's max over the expressions, 0.0 over none."""
    if len(exprs) > 1:
        return f"max({', '.join(exprs)})"
    return exprs[0] if exprs else "0.0"


def _finite_lines(entries, error):
    """The lines of all_finite over the expressions entries, raising error
    (the source of an exception) when an entry is not finite."""
    return [f"if not (_isfinite({_sum_of(entries)}) or "
            f"all(map(_isfinite, ({', '.join(entries)},)))):",
            f"    raise {error}"]


def _solve_lines(k, r, tag=""):
    """The body of a k x k solve with r right-hand sides, as straight-line
    source lines for a generated function to hold (see _solver).  A is
    read from the locals {tag}a{i}_{j}, right-hand side c from
    {tag}b{c}_{i}; the lines leave kappa_1 in cond and x_c in
    {tag}w{c}_{i}, or, for r = 0, det A in det.  The temporaries p, big,
    t, s, z0.., inv, scale, sign and resid are overwritten.

    For r >= 1 the lines raise SingularMatrix when an entry of A or b is
    not finite, when kappa_1 is not <= COND_BOUND (inf at an exactly zero
    pivot), or when x misses max|Ax-b| <= 1e-10 (scale + max|b|); where
    _unit_scale is not 1.0 they solve s A x = s b, with the same kappa_1,
    solution and postcondition.  For r = 0 they factor A as it is, check
    nothing and return (inf, 0.0) at an exactly zero pivot.

    The LU factors P A = L U by partial pivoting, the pivot being the
    first row with the strictly largest |entry|; |A^-1|_1 is the largest
    column sum of U^-1 L^-1 (whose columns are those of A^-1 reordered),
    where column q of L^-1 is zero above row q.  Rows are swapped in
    locals, right-hand sides with them, and every sum is formed in the
    order of the loops it unrolls, so each result is bit for bit that of
    the loop reference in tests/test_numerics.py."""
    n = range(k)
    a = [[f"{tag}a{i}_{j}" for j in n] for i in n]  # A, kept for the residual
    f = [[f"{tag}f{i}_{j}" for j in n] for i in n]  # L below, U on and above
    b = [[f"{tag}b{c}_{i}" for i in n] for c in range(r)]
    w = [[f"{tag}w{c}_{i}" for i in n] for c in range(r)]  # y, then x
    flat_a = list(itertools.chain(*a))
    entries = flat_a + list(itertools.chain(*b))
    body = []
    if r and k:
        body += _finite_lines(entries, "_SingularMatrix('non-finite entries "
                                       "in linear system')")
    if r:  # solve s A x = s b
        body += [f"scale = _unit_scale("
                 f"{_max_of([f'abs({e})' for e in flat_a])})",
                 "if scale != 1.0:"]
        body += [f"    {e} = {e} * scale" for e in entries] or ["    pass"]
    body += [f"{fe} = {ae}" for fe, ae in zip(itertools.chain(*f), flat_a)]
    body += [f"{we} = {be}" for we, be in zip(itertools.chain(*w),
                                             itertools.chain(*b))]
    # where an exactly zero pivot ends
    zero = ["    raise _over_bound(_inf)"] if r else ["    return _inf, 0.0"]
    if not r:
        body.append("sign = 1.0")
    # P A = L U, one column at a time
    for j in n:
        below = range(j + 1, k)
        if below:
            body += [f"p = {j}", f"big = abs({f[j][j]})"]
            for i in below:
                body += [f"t = abs({f[i][j]})", "if t > big:",
                         f"    p = {i}", "    big = t"]
            body += ["if big == 0.0:", *zero]
        else:
            body += [f"if {f[j][j]} == 0.0:", *zero]
        for i in below:
            top = f[j] + [wc[j] for wc in w]
            row = f[i] + [wc[i] for wc in w]
            body += [f"{'if' if i == j + 1 else 'elif'} p == {i}:",
                     f"    {', '.join(top + row)} = "
                     f"{', '.join(row + top)}"] + ([] if r else
                                                  ["    sign = -sign"])
        for i in below:
            body.append(f"{f[i][j]} = {f[i][j]} / {f[j][j]}")
            body += [f"{f[i][c]} = {f[i][c]} - {f[i][j]} * {f[j][c]}"
                     for c in below]
    # kappa_1 = |A|_1 times the largest column sum of U^-1 L^-1
    body.append("inv = 0.0")
    for q in n:
        for i in range(q + 1, k):
            body.append(f"z{i} = " + _terms(
                "0.0", [f[i][q]] + [f"{f[i][j]} * z{j}"
                                    for j in range(q + 1, i)]))
        for i in reversed(n):
            head = f"z{i}" if i > q else "1.0" if i == q else "0.0"
            num = _terms(head, [f"{f[i][j]} * z{j}" for j in range(i + 1, k)])
            body.append(f"z{i} = ({num}) / {f[i][i]}")
        # not max(): an overflow's nan must not slip past
        body += [f"s = {_sum_of([f'abs(z{i})' for i in n])}",
                 "if s > inv or s != s:", "    inv = s"]
    norm = _max_of([_sum_of([f"abs({a[i][j]})" for i in n]) for j in n])
    body.append(f"cond = {norm} * inv")
    if not r:  # nothing to solve and no bound to meet
        body.append(f"det = {' * '.join(['sign', *(f[i][i] for i in n)])}")
        return body
    body += ["if not cond <= _COND_BOUND:", "    raise _over_bound(cond)"]
    # forward and back substitution, then the residual postcondition
    for wc in w:
        body += [f"{wc[i]} = " + _terms(
            wc[i], [f"{f[i][j]} * {wc[j]}" for j in range(i)])
            for i in n if i]
        for i in reversed(n):
            num = _terms(wc[i], [f"{f[i][j]} * {wc[j]}"
                                 for j in range(i + 1, k)])
            body.append(f"{wc[i]} = ({num}) / {f[i][i]}")
    body.append("resid = 0.0")
    for bc, wc in zip(b, w):
        for i in n:
            dot = _sum_of([f"{a[i][j]} * {wc[j]}" for j in n])
            body += [f"t = abs({dot} - {bc[i]})",
                     "if t > resid or t != t:", "    resid = t"]
    bmax = _max_of([f"abs({e})" for e in itertools.chain(*b)])
    body += [f"if not resid <= 1e-10 * (scale + {bmax}):",
             "    raise _SingularMatrix(f'solution residual "
             "{resid / scale:.3e} violates postcondition')"]
    return body


def generated(name, params, body, label, **names):
    """The function `def name(params):` with the source lines body,
    compiled under the file name label.  Its globals are the names that
    _solve_lines' lines use, and names."""
    src = "\n".join([f"def {name}({params}):"]
                    + [f"    {line}" for line in body])
    namespace = {"_inf": math.inf, "_isfinite": math.isfinite,
                 "_unit_scale": _unit_scale, "_over_bound": _over_bound,
                 "_SingularMatrix": SingularMatrix,
                 "_COND_BOUND": COND_BOUND, **names}
    exec(compile(src, label, "exec"), namespace)
    return namespace[name]


@functools.cache
def _solver(k, r):
    """The solve kernel for k x k systems with r right-hand sides, lowered
    to one straight-line Python function and generated on first use:

      solve(a, b) -> (kappa_1, x)

    a is A row by row and b the right-hand sides one after another, as
    flat lists of floats; x is laid out like b.  r = 0 gives (kappa_1,
    det A) instead, det A the product of U's diagonal negated once per row
    swap, 0.0 at an exactly zero pivot.  What the kernel computes and
    raises is _solve_lines'."""
    n = range(k)
    body = [f"{', '.join(f'a{i}_{j}' for i in n for j in n)}, = a"] if k \
        else []
    if k and r:
        body.append(f"{', '.join(f'b{c}_{i}' for c in range(r) for i in n)}"
                    ", = b")
    body += _solve_lines(k, r)
    x = (f"[{', '.join(f'w{c}_{i}' for c in range(r) for i in n)}]" if r
         else "det")
    body.append(f"return cond, {x}")
    return generated("solve", "a, b", body, f"<solve {k}x{k}, {r} rhs>")


def _square(A):
    """The square matrix A, given as k rows of k numbers, as its entries in
    one flat list of floats in row order, and k.  Raises DimensionMismatch
    on any other shape."""
    try:
        k = len(A)
        a = []
        for row in A:
            if len(row) != k:
                raise DimensionMismatch(f"matrix row of {len(row)} entries "
                                        f"in {k} rows is not square")
            a += map(float, row)
    except TypeError:
        raise DimensionMismatch("matrix is not k rows of k numbers") \
            from None
    return a, k


def condition_number(A):
    """The 1-norm condition number kappa_1(A) = |A|_1 |A^-1|_1 of a square
    matrix, the one linear_solve bounds: inf when A is exactly singular,
    nan or inf when an entry of A is not finite.  It lies within a factor
    k of the 2-norm condition number.  Raises DimensionMismatch when A is
    not square."""
    a, k = _square(A)
    scale = _unit_scale(max(map(abs, a)) if a else 0.0)
    if scale != 1.0:
        a = [v * scale for v in a]
    return _solver(k, 0)(a, [])[0]


def det(A):
    """The determinant of a square matrix, given as k rows of k numbers,
    from the factors condition_number forms (0.0 at an exactly zero
    pivot).  Where those factors would over- or underflow (_unit_scale is
    not 1.0), each row is first brought into [1/2, 1) by its own power of
    two, exactly, and the exponents are restored by ldexp, so a normal
    det A survives entries that span more than the float range.  Raises
    DimensionMismatch when A is not square."""
    a, k = _square(A)
    if _unit_scale(max(map(abs, a)) if a else 0.0) == 1.0:
        return _solver(k, 0)(a, [])[1]
    rows = [a[i * k:(i + 1) * k] for i in range(k)]
    exps = [math.frexp(max(map(abs, row)))[1] for row in rows]
    a = [math.ldexp(v, -e) for row, e in zip(rows, exps) for v in row]
    d = _solver(k, 0)(a, [])[1]
    try:
        return math.ldexp(d, sum(exps))
    except OverflowError:
        return math.copysign(math.inf, d)


def positive_definite(A):
    """Whether the symmetric matrix A, given as k rows of k numbers, is
    positive definite: every leading principal minor's det is > 0."""
    return all(det([r[:i] for r in A[:i]]) > 0.0 for i in range(1, len(A) + 1))


def linear_solve(A, b):
    """Solve A x = b for a square A, given as k rows of k numbers, and b of
    k numbers, or k rows of r with one right-hand side per column; x is
    laid out like b, as Python floats: a list of k, or k lists of r.  A
    list of ints solves in float arithmetic.

    Raises DimensionMismatch when the shapes do not fit that, and
    SingularMatrix when A or b has a non-finite entry, when the 1-norm
    condition number exceeds COND_BOUND (inf at an exactly zero pivot), or
    when the solution misses the residual postcondition
    max|Ax-b| <= 1e-10 (1 + max|b|).
    """
    a, k = _square(A)
    try:
        if len(b) != k:
            raise DimensionMismatch(f"right-hand side of {len(b)} rows for "
                                    f"a {k} x {k} matrix")
        one_rhs = not (k and hasattr(b[0], "__len__"))
        if one_rhs:
            b = list(map(float, b))
        else:  # k rows of r: laid out one right-hand side after another
            try:
                cols = list(zip(*b, strict=True))
            except ValueError:
                raise DimensionMismatch("right-hand side rows of unequal "
                                        "lengths") from None
            b = [float(e) for col in cols for e in col]
    except TypeError:
        raise DimensionMismatch("right-hand side is neither k numbers nor "
                                "k rows of numbers") from None
    x = _solver(k, 1 if one_rhs else len(cols))(a, b)[1]
    return x if one_rhs else [x[i::k] for i in range(k)]


_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 50


@dataclass
class NewtonResult:
    """Root as a list of floats, iterations, final max|F| and the
    contraction |dx_2| / |dx_1| of the first two steps (0.0 after at most
    one step, inf if damped), both Python floats."""
    x: list
    iterations: int
    residual: float
    contraction: float


def newton_solve(system, x0, max_iter=_NEWTON_MAX_ITER,
                 max_contraction=math.inf):
    """Damped Newton iteration for F(x) = 0 from x0, any 1-D sequence of
    floats, to max|F| <= 1e-10 in at most max_iter (by default 50)
    iterations.  x is stepped as a list of Python floats: system(x)
    receives that list, which it must not modify, and returns (F(x),
    DF(x)) at once, F as k floats and DF as k rows of k.

    Full steps are halved (at most 20 times) until the residual norm
    decreases.  Each trial point costs one system call, and the Jacobian
    that came with the accepted point drives the next step, so an affine
    residual converges in exactly one iteration and two system calls; the
    last call is at the returned root.  A residual with a non-finite entry
    at x0 goes on to the linear solve, which raises SingularMatrix; at a
    trial point it counts as no decrease.  Raises NoConvergence with the
    iteration count and last residual norm on failure, or as soon as the
    contraction of the first two steps exceeds max_contraction.
    """
    x = as_floats(x0)
    r, J = system(x)
    # not max() alone: max(map(abs, [0.0, nan])) is 0.0
    rnorm = max(map(abs, r), default=0.0) if all_finite(r) else math.inf
    if rnorm <= _NEWTON_TOL:
        return NewtonResult(x, 0, float(rnorm), 0.0)
    first = theta = 0.0
    for it in range(1, max_iter + 1):
        step = linear_solve(J, [-e for e in r])
        lam = 1.0
        accepted = False
        for _ in range(21):
            xn = [a + lam * b for a, b in zip(x, step)]
            rn, Jn = system(xn)
            rn_norm = max(map(abs, rn)) if all_finite(rn) else math.inf
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
            first = max(map(abs, step))
        elif it == 2 and theta == 0.0:
            theta = max(map(abs, step)) / first
        if theta > max_contraction:
            raise NoConvergence(f"contraction {theta:.3g} at iteration {it}",
                                iterations=it, residual=float(rn_norm))
        x, r, J, rnorm = xn, rn, Jn, rn_norm
        if rnorm <= _NEWTON_TOL:
            return NewtonResult(x, it, float(rnorm), theta)
    raise NoConvergence(
        f"no convergence in {max_iter} iterations",
        iterations=max_iter, residual=float(rnorm))


@dataclass
class TrajectoryRecord:
    """Sampled solution: N times, N states of d floats each, and optional
    diagnostics, each a list of N floats; all lists of Python floats."""
    t: list
    states: list
    diagnostics: dict = field(default_factory=dict)

    @property
    def final(self):
        return self.states[-1]


@functools.cache
def _rk4_step(d):
    """One classic RK4 step for states of d floats, lowered to one
    straight-line Python function and generated on first use:

      step(f, t, y, dt) -> the state at t + dt, a list of d floats

    f receives y itself at the first stage and new lists at the others,
    and may return a list, a tuple or an array of d numbers; another
    length raises ValueError at its unpacking.  Each entry is the
    expression of the loop it replaced, y_i + (dt/2) k1_i for a stage and
    y_i + (dt/6) (((k1_i + 2 k2_i) + 2 k3_i) + k4_i) for the step, so the
    result is that loop's, bit for bit (tests/test_numerics.py)."""
    def each(entry):
        # the list display of entry for i = 0, ..., d - 1
        return "[" + ", ".join(entry.format(i=i) for i in range(d)) + "]"

    body = ["h = 0.5 * dt", f"{each('y{i}')} = y",
            f"{each('p{i}')} = f(t, y)", "th = t + h",
            f"{each('q{i}')} = f(th, {each('y{i} + h * p{i}')})",
            f"{each('r{i}')} = f(th, {each('y{i} + h * q{i}')})",
            f"{each('s{i}')} = f(t + dt, {each('y{i} + dt * r{i}')})",
            "c = dt / 6.0", "return " + each(
                "y{i} + c * (((p{i} + 2.0 * q{i}) + 2.0 * r{i}) + s{i})")]
    return generated("step", "f, t, y, dt", body, f"<rk4 step, d={d}>")


# Largest step count rk4_integrate accepts; every stored point is kept
_MAX_STEPS = 10**6


def rk4_integrate(f, t0, t1, y0, dt, diagnostic=None):
    """Classic fixed-step RK4 for y' = f(t, y) from y(t0) = y0 to t1.

    The state is stepped as a list of d Python floats: f(t, y) and
    diagnostic(t, y) receive that list, which they must not modify, and f
    returns d floats (a list, or any sequence of d numbers).  The grid is
    t0 + i*dt; a shorter final step lands exactly on t1.  More than
    _MAX_STEPS steps raise ValueError before the first one.  diagnostic,
    if given, maps (t, y) to a dict of floats recorded at every stored
    point.  Raises NonFiniteState as soon as the state leaves float range.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    span = t1 - t0
    if not span / dt <= _MAX_STEPS:  # also catches inf and nan
        raise ValueError(f"(t1 - t0)/dt = {span / dt:.6g} RK4 steps exceed "
                         f"the maximum of {_MAX_STEPS}")
    y = as_floats(y0)
    n_full = int(math.floor(span / dt + 1e-12))
    rem = span - n_full * dt
    if rem < 1e-12 * max(1.0, abs(span)):
        rem = 0.0
    n_steps = n_full + (1 if rem else 0)
    times = [t0]
    states = [y]
    diags = []
    if diagnostic is not None:
        diags.append(diagnostic(t0, y))
    t = t0
    step = _rk4_step(len(y))
    for i in range(n_steps):
        y = step(f, t, y, dt if i < n_full else rem)
        # recompute t from the grid, not by accumulation
        t = t1 if i + 1 == n_steps else t0 + (i + 1) * dt
        if not all_finite(y):
            raise NonFiniteState(f"state non-finite at t={t}")
        times.append(t)
        states.append(y)
        if diagnostic is not None:
            diags.append(diagnostic(t, y))
    record = TrajectoryRecord(times, states)
    if diagnostic is not None and diags:
        record.diagnostics = {k: [d[k] for d in diags] for k in diags[0]}
    return record


_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed):
    """numpy's SeedSequence(seed).generate_state(4, uint64) for an int
    seed >= 0: the seed's 32-bit words hashed into a pool of four, and
    eight words drawn from the pool, paired low word first."""
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hash_a = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * 0x931E8875 & _MASK32
        value = value * hash_a & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_b = 0x8B51F9DD
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * 0x58F38DED & _MASK32
        value = value * hash_b & _MASK32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class Generator:
    """The draws of numpy's default_rng(seed), bit for bit, in plain
    Python: a PCG64 stream (128-bit LCG state, XSL-RR output) seeded
    through SeedSequence from an int seed >= 0."""

    def __init__(self, seed):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        s0, s1, i0, i1 = _seed_state(seed)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        # from state 0: step, add the seed word, step
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT
                       + self._inc) & _MASK128

    def _next64(self):
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        state = self._state
        value, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        return (value >> rot | value << (-rot & 63)) & _MASK64

    def uniform(self, lo, hi, n):
        """n draws from [lo, hi), as a list of floats: lo + (hi - lo) u,
        u a multiple of 2^-53 from the next 64 bits of the stream."""
        span = hi - lo
        return [lo + span * ((self._next64() >> 11) * 2.0 ** -53)
                for _ in range(n)]


@dataclass
class SampleReport:
    """Max-abs residual over a sampled box, with bookkeeping.

    max_residual is a float, or a list of floats when the residual returns
    several values.
    """
    max_residual: float
    sample_count: int
    seed: int
    skipped: int = 0


def sample_max(residual, samples, seed, width, box=1.0):
    """Elementwise max of residual(z) over `samples` usable draws of z from
    [-box, box]^width; residual receives each draw as a list of floats and
    returns a number or a sequence of numbers.  The max is taken as
    numpy's maximum takes it: a nan, once seen, stays.

    A draw whose residual raises DomainError is skipped and redrawn, up to
    50 draws per sample in total.  seed is an int or a Generator, whose
    stream a caller then shares.  Raises ValueError when the box is too
    wide to draw from (2 box overflows), and DomainError when no draw is
    usable.
    """
    if not math.isfinite(2.0 * box):
        raise ValueError(f"sampling box {box!r} is too wide to draw from")
    rng = seed if isinstance(seed, Generator) else Generator(seed)
    worst = None
    used = skipped = 0
    while used < samples and used + skipped < 50 * samples:
        z = rng.uniform(-box, box, width)
        try:
            r = residual(z)
        except DomainError:
            skipped += 1
            continue
        used += 1
        single = not hasattr(r, "__iter__")
        r = [float(r)] if single else as_floats(r)
        # entry by entry: r, unless worst is larger or nan
        worst = r if worst is None else [
            a if a > b or a != a else b
            for a, b in zip(worst, r, strict=True)]
    if used == 0:
        raise DomainError("no admissible sample points")
    return SampleReport(worst[0] if single else worst, used, seed, skipped)
