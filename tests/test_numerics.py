import builtins
import itertools
import math
import operator
import os
import struct
import subprocess
from pathlib import Path

import numpy as np
import pytest
from interpreters import find_python

from fibresplit import numerics
from fibresplit.bundle import BundleChart
from fibresplit.errors import (DimensionMismatch, NoConvergence,
                               NonFiniteState, SingularMatrix)
from fibresplit.lagrangian import LagrangianSpec
from fibresplit.nonholonomic import ConstrainedSystem
from fibresplit.numerics import (condition_number, det, linear_solve,
                                 newton_solve, positive_definite,
                                 rk4_integrate)
from fibresplit.reduction import MagneticModel, MagneticSystem
from fibresplit.splitting import AffineSplittingData

SRC = Path(numerics.__file__).parents[1]


def test_linear_solve_recovers_known_solution():
    rng = np.random.default_rng(0)
    for _ in range(20):
        A = rng.uniform(-1.0, 1.0, (4, 4)) + 4.0 * np.eye(4)
        x = rng.uniform(-1.0, 1.0, 4)
        got = np.array(linear_solve(A, A @ x))
        assert np.abs(got - x).max() < 1e-12


def test_linear_solve_rejects_singular():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        linear_solve(A, np.array([1.0, 1.0]))


def test_linear_solve_rejects_condition_over_bound():
    with pytest.raises(SingularMatrix, match="over bound 1.0e.13"):
        linear_solve(np.diag([1.0, 1e-14]), np.ones(2))
    # kappa_1 = 1e12 is within the bound
    x = np.array(linear_solve(np.diag([1.0, 1e-12]), np.ones(2)))
    assert np.abs(x - [1.0, 1e12]).max() / 1e12 < 1e-8


def test_linear_solve_rejects_nonfinite():
    A = np.array([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(SingularMatrix):
        linear_solve(A, np.ones(2))


@pytest.mark.parametrize("k", range(1, 7))
def test_linear_solve_matches_lapack(k):
    rng = np.random.default_rng(k)
    for _ in range(10):
        A = rng.uniform(-1.0, 1.0, (k, k)) + np.eye(k)
        for b in (rng.uniform(-1.0, 1.0, k), rng.uniform(-1.0, 1.0, (k, 3))):
            want = np.linalg.solve(A, b)
            got = np.array(linear_solve(A, b))
            assert got.shape == b.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("A, kappa", [
    # |A|_1 = 4, A^-1 = [[3, -1], [-1, 2]] / 5, |A^-1|_1 = 4/5
    ([[2.0, 1.0], [1.0, 3.0]], 3.2),
    # needs a row swap: A^-1 = [[-1, 1], [1, 0]], |A|_1 = |A^-1|_1 = 2
    ([[0.0, 1.0], [1.0, 1.0]], 4.0),
    # A^-1 = [[1, -t], [0, 1]]: kappa_1 = (1 + t)^2, while kappa_2 ~ t^2
    ([[1.0, 1e6], [0.0, 1.0]], (1.0 + 1e6) ** 2),
    ([[1.0, 0.0], [0.0, 1e-10]], 1e10),
])
def test_condition_number_closed_form(A, kappa):
    assert abs(condition_number(A) - kappa) <= 1e-15 * kappa


def test_condition_bound_is_kappa_1():
    # kappa_1 of [[1, t], [0, 1]] is (1 + t)^2, exact in floats here, and
    # 1e13 lies between t = 3162276 and t = 3162277
    b = np.array([1.0, 1.0])
    assert numerics.COND_BOUND == 1e13
    with pytest.raises(SingularMatrix,
                       match=r"^condition estimate 1\.000e\+13 over bound "
                             r"1\.0e\+13$"):
        linear_solve([[1.0, 3162277.0], [0.0, 1.0]], b)
    x = linear_solve([[1.0, 3162276.0], [0.0, 1.0]], b)
    assert x == [1.0 - 3162276.0, 1.0]
    with pytest.raises(TypeError):  # the bound is no argument
        linear_solve([[1.0, 0.0], [0.0, 1.0]], b, cond_bound=math.inf)


@pytest.mark.parametrize("A", [[[1.0, 2.0], [2.0, 4.0]], [[0.0]],
                               [[0.0, 0.0], [0.0, 0.0]],
                               [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0],
                                [0.0, 0.0, 1.0]]])
def test_zero_pivot_is_an_infinite_condition_number(A):
    b = np.ones(len(A))
    with pytest.raises(SingularMatrix,
                       match=r"^condition estimate inf over bound 1\.0e\+13$"):
        linear_solve(A, b)
    assert condition_number(A) == np.inf


@pytest.mark.parametrize("where, bad", [
    ("A", np.nan), ("A", np.inf), ("A", -np.inf),
    ("b", np.nan), ("b", np.inf), ("B", np.nan), ("B", -np.inf)])
def test_linear_solve_rejects_nonfinite_entries(where, bad):
    A, b = np.array([[2.0, 1.0], [1.0, 3.0]]), np.ones(2)
    if where == "A":
        A[1, 0] = bad
    elif where == "b":
        b[1] = bad
    else:
        b = np.ones((2, 2))
        b[1, 1] = bad
    with pytest.raises(SingularMatrix, match="non-finite entries"):
        linear_solve(A, b)


def test_linear_solve_finite_entries_whose_sum_overflows():
    A = np.array([[1e308, 0.0], [0.0, -1e308]])
    x = linear_solve(A, np.array([1e308, 1e308]))
    assert np.array_equal(x, [1.0, -1.0])


@pytest.mark.parametrize("d", [1e308, 1e-310])
def test_well_conditioned_systems_at_the_ends_of_the_float_range(d):
    # kappa_1 = 4, though |A|_1 overflows at d = 1e308 and 1/d at 1e-310
    A = d * np.array([[1.0, 1.0], [0.0, 1.0]])
    assert abs(condition_number(A) - 4.0) <= 4e-15
    x = linear_solve(A, np.array([d, d]))
    assert np.array_equal(x, [0.0, 1.0])


def test_linear_solve_is_invariant_under_power_of_two_scaling():
    rng = np.random.default_rng(5)
    A = rng.uniform(-1.0, 1.0, (4, 4)) + np.eye(4)
    b = rng.uniform(-1.0, 1.0, (4, 2))
    x = linear_solve(A, b)
    for e in (-900, -30, 30, 900):
        s = 2.0 ** e
        assert np.array_equal(linear_solve(A * s, b * s), x)
        assert condition_number(A * s) == condition_number(A)


def test_nan_residual_does_not_pass_the_postcondition():
    # x = (inf, -inf) and 0 * inf makes the residual nan
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SingularMatrix, match="residual nan"):
            linear_solve(np.diag([1e-300, 1e-300]),
                         np.array([1e300, -1e300]))


def test_linear_system_shape_validation():
    with pytest.raises(DimensionMismatch):
        linear_solve(np.ones((2, 3)), np.ones(2))
    with pytest.raises(DimensionMismatch):
        linear_solve(np.eye(2), np.ones((2, 1, 1)))
    with pytest.raises(DimensionMismatch):
        linear_solve(np.eye(1), 1.0)
    # the same checks on rows given as lists
    eye = [[1.0, 0.0], [0.0, 1.0]]
    for A, b in (([[1.0, 0.0], [1.0]], [1.0, 1.0]),     # ragged rows of A
                 (eye, [1.0]), (eye, [1.0, 2.0, 3.0]),  # b of wrong length
                 (eye, [[1.0, 2.0], [1.0]]),            # ragged rows of b
                 (eye, [[1.0], [2.0], [3.0]]),
                 (eye, [[[1.0]], [[2.0]]]), (eye, [1.0, [2.0]])):
        with pytest.raises(DimensionMismatch):
            linear_solve(A, b)
    for A, b in (([[1.0, math.nan], [0.0, 1.0]], [1.0, 1.0]),
                 (eye, [1.0, math.inf]), (eye, [[1.0], [-math.inf]])):
        with pytest.raises(SingularMatrix, match="non-finite entries"):
            linear_solve(A, b)
    # a list of ints solves in float arithmetic, as its float twin does
    x = np.array(linear_solve([[3, 1], [1, 2]], [9, 8]))
    assert x.dtype == np.float64
    assert x.tobytes() == np.array(linear_solve([[3.0, 1.0], [1.0, 2.0]],
                                                [9.0, 8.0])).tobytes()
    # condition_number takes the same square check
    for A in (np.ones((2, 3)), np.ones(2), np.ones((2, 2, 2)), 1.0,
              [[1.0, 0.0], [1.0]]):
        with pytest.raises(DimensionMismatch):
            condition_number(A)


def test_linear_solve_several_right_hand_sides():
    rng = np.random.default_rng(1)
    A = rng.uniform(-1.0, 1.0, (3, 3)) + 3.0 * np.eye(3)
    B = rng.uniform(-1.0, 1.0, (3, 4))
    X = np.array(linear_solve(A, B))
    assert X.shape == (3, 4)
    for c in range(4):
        col = np.array(linear_solve(A, B[:, c]))
        assert np.abs(X[:, c] - col).max() < 1e-14
    # the condition bound holds for every right-hand side at once
    with pytest.raises(SingularMatrix):
        linear_solve(np.diag([1.0, 1e-14]), np.ones((2, 2)))


def test_linear_solve_returns_python_floats_laid_out_like_b():
    A = np.array([[2.0, 0.0], [0.0, 4.0]])
    x = linear_solve(A, np.array([2.0, 4.0]))
    assert type(x) is list and x == [1.0, 1.0]
    assert {type(e) for e in x} == {float}
    X = linear_solve(A, [[2.0, 4.0, 6.0], [4.0, 8.0, 12.0]])
    assert type(X) is list and X == [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]
    assert all(type(row) is list for row in X)
    assert {type(e) for row in X for e in row} == {float}


# The loop PLU and kappa_1 that the generated solve kernels unroll: the
# reference that linear_solve and condition_number must match bit for bit.

def _reference_scaled(A):
    """A as a list of rows, scaled by numerics' power of two, and the scale."""
    a = np.asarray(A, dtype=float).tolist()
    big = max(map(abs, itertools.chain(*a)), default=0.0)
    if 2.0 ** -500 <= big <= 2.0 ** 500:
        return a, 1.0
    scale = 2.0 ** -max(math.frexp(big)[1], -1022)
    return [[v * scale for v in row] for row in a], scale


def _reference_lu_factor(a):
    """P A = L U by partial pivoting, in place; the row order or None."""
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


def _reference_back_substitute(lu, y):
    n = len(lu)
    for i in range(n - 1, -1, -1):
        row = lu[i]
        s = y[i]
        for j in range(i + 1, n):
            s -= row[j] * y[j]
        y[i] = s / row[i]
    return y


def _reference_lu_solve(lu, order, b):
    y = [b[p] for p in order]
    for i, row in enumerate(lu):
        s = y[i]
        for j in range(i):
            s -= row[j] * y[j]
        y[i] = s
    return _reference_back_substitute(lu, y)


def _reference_condition(a, lu, order):
    """|A|_1 times the largest column sum of U^-1 L^-1."""
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
        s = sum(map(abs, _reference_back_substitute(lu, y)))
        if s > inv or s != s:
            inv = s
    return max((sum(map(abs, col)) for col in zip(*a)), default=0.0) * inv


def _reference_condition_number(A):
    a, _ = _reference_scaled(A)
    lu = [row[:] for row in a]
    return _reference_condition(a, lu, _reference_lu_factor(lu))


def _reference_det(A):
    """The product of U's diagonal, negated once per row swap; 0.0 at a
    zero pivot.  Where numerics scales A (_reference_scaled's scale is not
    1.0), each row is first brought into [1/2, 1) by its own power of two,
    and one ldexp by their sum restores the product."""
    a = np.asarray(A, dtype=float).tolist()
    exps = [0] * len(a)
    if _reference_scaled(A)[1] != 1.0:
        exps = [math.frexp(max(map(abs, row)))[1] for row in a]
        a = [[math.ldexp(v, -e) for v in row] for row, e in zip(a, exps)]
    lu = [row[:] for row in a]
    order = _reference_lu_factor(lu)
    if order is None:
        return 0.0
    d = float(np.linalg.det(np.eye(len(lu))[order]))  # the swaps' sign
    for i, row in enumerate(lu):
        d *= row[i]
    try:
        return math.ldexp(d, sum(exps))
    except OverflowError:
        return math.copysign(math.inf, d)


def _reference_solve(A, b):
    """("x", shape, bytes of x) or ("SingularMatrix", message)."""
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        return "SingularMatrix", "non-finite entries in linear system"
    a, scale = _reference_scaled(A)
    cols = [b.tolist()] if b.ndim == 1 else b.T.tolist()
    cols = [[v * scale for v in col] for col in cols]
    lu = [row[:] for row in a]
    order = _reference_lu_factor(lu)
    cond = _reference_condition(a, lu, order)
    if not cond <= 1e13:
        return ("SingularMatrix",
                f"condition estimate {cond:.3e} over bound 1.0e+13")
    xs = [_reference_lu_solve(lu, order, col) for col in cols]
    resid = 0.0
    for x, col in zip(xs, cols):
        for row, bi in zip(a, col):
            r = abs(sum(map(operator.mul, row, x)) - bi)
            if r > resid or r != r:
                resid = r
    bmax = max(map(abs, itertools.chain(*cols)), default=0.0)
    if not resid <= 1e-10 * (scale + bmax):
        return ("SingularMatrix", f"solution residual {resid / scale:.3e} "
                "violates postcondition")
    x = np.array(xs[0] if b.ndim == 1 else np.array(xs).T)
    return "x", x.shape, x.tobytes()


def _solve_outcome(A, b):
    try:
        x = np.array(linear_solve(A, b))
    except SingularMatrix as exc:
        return "SingularMatrix", str(exc)
    return "x", x.shape, x.tobytes()


def _bits(value):
    return struct.pack("<d", value)


def _oracle_systems(k):
    """Seeded k x k systems: random, with tied pivot candidates, with an
    exactly zero pivot, near-singular, and (for k > 1) with a finite
    kappa_1 over the bound."""
    rng = np.random.default_rng(100 + k)
    yield rng.uniform(-1.0, 1.0, (k, k)) + np.eye(k)
    yield rng.uniform(-1.0, 1.0, (k, k))
    # entries in {-1, -1/2, ..., 1}: |entry| ties in every column
    yield np.round(rng.uniform(-1.0, 1.0, (k, k)) * 2.0) / 2.0
    tied = rng.uniform(-1.0, 1.0, (k, k))
    tied[:, 0] = np.where(np.arange(k) % 2, 1.0, -1.0)
    yield tied
    zero_row = rng.uniform(-1.0, 1.0, (k, k))
    zero_row[k // 2] = 0.0
    yield zero_row
    near = rng.uniform(-1.0, 1.0, (k, k))
    near[-1] = near[0] + 1e-9 * near[-1]
    yield near
    graded = rng.uniform(-1.0, 1.0, (k, k)) + np.eye(k)
    graded[-1] *= 1e-14
    yield graded


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_kernels_match_the_loop_reference_bit_for_bit(k, r):
    rng = np.random.default_rng(10 * k + r)
    spread_dets, over_bound = [], 0
    for A in _oracle_systems(k):
        b = rng.uniform(-1.0, 1.0, k if r == 1 else (k, r))
        for e in (0, -900, 900):
            As, bs = A * 2.0 ** e, b * 2.0 ** e
            outcome = _solve_outcome(As, bs)
            assert outcome == _reference_solve(As, bs)
            over_bound += (outcome[0] == "SingularMatrix"
                           and "over bound" in outcome[1]
                           and math.isfinite(condition_number(As)))
            assert _bits(condition_number(As)) == \
                _bits(_reference_condition_number(As))
            assert _bits(det(As)) == _bits(_reference_det(As))
        # rows at 2^600 and 2^-600 in turn: one shared scale would lose
        # the small rows, while det stays finite (within 2^600 of det A)
        rows = [2.0 ** (600 - 1200 * (i % 2)) for i in range(k)]
        As = A * np.array(rows)[:, None]
        d = det(As)
        assert _bits(d) == _bits(_reference_det(As))
        spread_dets.append(d)
    # finite and nonzero for every system but the one with a zero row
    assert sum(math.isfinite(d) and d != 0.0 for d in spread_dets) == 6
    # the graded system, at each scale, reaches the bound's rejection
    assert over_bound == (3 if k > 1 else 0)


@pytest.mark.parametrize("A, b, message", [
    ([[0.0, 1.0], [0.0, 2.0]], [1.0, 1.0],
     "condition estimate inf over bound 1.0e+13"),
    ([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]], [1.0, 1.0, 1.0],
     "condition estimate inf over bound 1.0e+13"),
    # x = (inf, -inf) and 0 * inf makes the residual nan
    (np.diag([1e-300, 1e-300]), [1e300, -1e300],
     "solution residual nan violates postcondition"),
])
def test_kernel_messages_match_the_loop_reference(A, b, message):
    with np.errstate(over="ignore", invalid="ignore"):
        want = _reference_solve(A, b)
        assert want == ("SingularMatrix", message)
        assert _solve_outcome(A, b) == want


def test_condition_number_matches_the_loop_reference_off_the_finite_range():
    for bad in (np.nan, np.inf, -np.inf):
        for where in ((0, 0), (1, 0), (2, 2)):
            A = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
            A[where] = bad
            with np.errstate(invalid="ignore"):
                assert _bits(condition_number(A)) == \
                    _bits(_reference_condition_number(A))


def test_det_against_lapack():
    # on random 1 x 1 to 4 x 4 matrices away from singularity (kappa_1 at
    # most 100), where a relative comparison of determinants is meaningful
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(4000):
        A = rng.uniform(-1.0, 1.0, (rng.integers(1, 5),) * 2)
        if condition_number(A.tolist()) > 100.0:
            continue
        want = np.linalg.det(A)
        assert abs(det(A.tolist()) - want) <= 1e-14 * abs(want)
        checked += 1
    assert checked > 3000


def test_det_of_a_one_by_one_matrix_is_its_entry():
    # LAPACK's det goes through exp(log|a|) and misses many of these
    entries = np.random.default_rng(22).uniform(-1.0, 1.0, 2000).tolist()
    assert [det([[a]]) for a in entries] == entries
    assert sum(np.linalg.det([[a]]) != a for a in entries) > 100


@pytest.mark.parametrize("A, want", [
    ([[1.0, 2.0], [2.0, 4.0]], 0.0),
    ([[0.0, 0.0], [0.0, 1.0]], 0.0),
    ([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]], 0.0),
    # one row swap: the sign flips
    ([[0.0, 1.0], [1.0, 0.0]], -1.0),
    ([[1.0, 3.0], [2.0, 4.0]], -2.0),
    # two swaps (a 3-cycle): the sign stays
    ([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], 1.0),
    ([], 1.0),
    # scaled into range and back, one power of two per row
    ([[2.0 ** 600, 0.0], [0.0, 2.0 ** -300]], 2.0 ** 300),
    # entries 2^1300 apart, wider than the float range, with a normal det
    ([[2.0 ** 600, 0.0], [0.0, 2.0 ** -700]], 2.0 ** -100),
    ([[2.0 ** 600, 3.0 * 2.0 ** 600], [2.0 ** -700, 2.0 ** -699]],
     -(2.0 ** -100)),
    # a det past the float range still overflows
    ([[1e308, 1e308], [0.0, 1e308]], math.inf),
    ([[-1e308, 1e308], [0.0, 1e308]], -math.inf),
])
def test_det_closed_form(A, want):
    got = det(A)
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def test_positive_definite_against_eigenvalues():
    rng = np.random.default_rng(23)
    seen = set()
    for _ in range(2000):
        k = rng.integers(1, 5)
        B = rng.uniform(-1.0, 1.0, (k, k))
        S = B + B.T
        lowest = np.linalg.eigvalsh(S).min()
        if abs(lowest) < 1e-6:  # away from the boundary
            continue
        assert positive_definite(S.tolist()) == (lowest > 0.0)
        seen.add(bool(lowest > 0.0))
    assert seen == {True, False}


@pytest.mark.parametrize("A", [[[-1.0]], [[1.0, 2.0], [2.0, 1.0]], [[0.0]]])
def test_positive_definite_rejects(A):
    assert not positive_definite(A)


def test_positive_definite_across_the_float_range():
    # its 2 x 2 minor, 2^-100, lost every digit to one shared scale
    assert positive_definite([[2.0 ** 600, 0.0], [0.0, 2.0 ** -700]])
    assert not positive_definite([[2.0 ** 600, 0.0], [0.0, -2.0 ** -700]])


def test_one_generated_kernel_per_shape():
    numerics._solver.cache_clear()
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    for _ in range(3):
        linear_solve(A, np.ones(2))
        linear_solve(A, np.ones((2, 3)))
        condition_number(A)
    info = numerics._solver.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 6, 3)
    assert numerics._solver(2, 1) is numerics._solver(2, 1)


def test_newton_affine_converges_in_one_iteration():
    A = np.array([[2.0, 1.0], [0.0, 3.0]])
    b = np.array([1.0, -2.0])
    calls = []

    def system(x):
        calls.append(x.copy())
        return A @ x - b, A

    res = newton_solve(system=system, x0=np.zeros(2))
    assert res.iterations == 1
    assert res.contraction == 0.0
    assert np.abs(A @ res.x - b).max() < 1e-12
    # one call at x0, one at the accepted point; no separate Jacobian call
    assert len(calls) == 2


def test_newton_quadratic_convergence_on_scalar_root():
    res = newton_solve(
        system=lambda x: (np.array([x[0] ** 2 - 2.0]),
                          np.array([[2.0 * x[0]]])),
        x0=np.array([1.0]))
    assert abs(res.x[0] - np.sqrt(2.0)) < 1e-10
    assert res.iterations <= 6
    # steps 0.5 then -1/12 from x0 = 1
    assert abs(res.contraction - 1.0 / 6.0) < 1e-12


def test_newton_contraction_is_inf_after_a_damped_step():
    # the full Newton step from 2 overshoots atan's root to |x| > 3
    res = newton_solve(
        system=lambda x: (np.arctan(x), np.array([[1.0 / (1.0 + x[0] ** 2)]])),
        x0=np.array([2.0]))
    assert abs(res.x[0]) < 1e-10
    assert res.contraction == np.inf


def test_newton_zero_iterations_when_already_solved():
    res = newton_solve(
        system=lambda x: ([x[0] - 1.0], [[1.0]]),
        x0=np.array([1.0]))
    assert res.iterations == 0
    assert res.contraction == 0.0


def test_newton_stops_once_the_caller_would_reject_it():
    calls = []

    def system(x):
        calls.append(x[0])
        return [x[0] * x[0] - 2.0], [[2.0 * x[0]]]

    # sqrt(2) from 1 contracts by 1/6 and converges in 5 iterations
    for limits in ({"max_contraction": 0.1}, {"max_iter": 2}):
        calls.clear()
        with pytest.raises(NoConvergence) as exc:
            newton_solve(system, np.array([1.0]), **limits)
        assert exc.value.iterations == 2
        assert len(calls) == 3
    # a damped step has contraction inf, over any finite bound
    with pytest.raises(NoConvergence) as exc:
        newton_solve(
            system=lambda x: (np.arctan(x),
                              np.array([[1.0 / (1.0 + x[0] ** 2)]])),
            x0=np.array([2.0]), max_contraction=1e300)
    assert exc.value.iterations == 1


def test_newton_reports_no_convergence():
    # residual bounded away from zero, gradient never helps
    with pytest.raises(NoConvergence) as exc:
        newton_solve(
            system=lambda x: (np.array([np.cos(x[0]) + 2.0]),
                              np.array([[-np.sin(x[0]) or 1e-3]])),
            x0=np.array([0.5]))
    assert exc.value.iterations >= 1


def test_newton_steps_lists_and_returns_floats():
    seen = []

    def system(x):
        seen.append(type(x))
        return [x[0] ** 2 - 2.0], [[2.0 * x[0]]]

    res = newton_solve(system, np.array([1.0]))
    assert set(seen) == {list}
    assert type(res.x) is list and type(res.x[0]) is float
    assert type(res.residual) is float and type(res.contraction) is float


@pytest.mark.parametrize("r0", [[0.0, math.nan], [math.nan]])
def test_newton_rejects_a_non_finite_residual_at_x0(r0):
    # max(map(abs, [0.0, nan])) is 0.0: the guard must not read it as solved
    k = len(r0)
    eye = [[float(i == j) for j in range(k)] for i in range(k)]
    with pytest.raises(SingularMatrix, match="non-finite"):
        newton_solve(lambda x: (r0, eye), [0.0] * k)


def test_newton_halves_past_a_non_finite_trial_residual():
    # the first trial point returns [0.0, nan], which is no decrease
    calls = []

    def system(x):
        calls.append(list(x))
        r = [x[0] - 1.0, x[1]]
        if len(calls) == 2:
            r[1] = math.nan
        return r, [[1.0, 0.0], [0.0, 1.0]]

    res = newton_solve(system, [0.0, 0.0])
    assert calls == [[0.0, 0.0], [1.0, 0.0], [0.5, 0.0], [1.0, 0.0]]
    assert res.x == [1.0, 0.0]
    assert (res.iterations, res.residual, res.contraction) == (2, 0.0,
                                                               math.inf)


def test_dot_sums_from_zero_in_index_order():
    # compensated summation, as in sum() from Python 3.12 on, gives 1.0
    assert numerics.dot([1e16, 1.0, -1e16], [1.0, 1.0, 1.0]) == 0.0
    assert repr(numerics.dot([-0.0], [1.0])) == "0.0"  # as sum([-0.0])
    assert numerics.dot([], []) == 0.0


def test_total_sums_from_zero_left_to_right():
    assert numerics.total([1e16, 1.0, -1e16]) == 0.0
    assert repr(numerics.total([-0.0])) == "0.0"  # as sum([-0.0])
    assert numerics.total(iter([0.5, 0.25])) == 0.75
    assert numerics.total([]) == 0.0


_BUILTIN_SUM = sum


def _compensated_sum(iterable, start=0):
    """sum() as Python 3.12 and later compute it over floats: Neumaier's
    compensated summation, from an int start (checked against the 3.12.1
    interpreter on 20,000 random float lists); any other input goes to the
    builtin."""
    items = list(iterable)
    if type(start) is not int or not items \
            or any(type(x) is not float for x in items):
        return _BUILTIN_SUM(items, start)
    s, c = float(start), 0.0
    for x in items:
        t = s + x
        c += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
        s = t
    return s + c if c and math.isfinite(c) else s


def test_right_hand_sides_do_not_depend_on_the_sum_builtin(monkeypatch):
    # each model's sums hold the terms 1e16, 1.0 and -1e16 (1.0, 1e16 and
    # 1.0 for kappa_1's first column), where plain and compensated
    # summation give different floats
    assert _compensated_sum([1e16, 1.0, -1e16]) == 1.0
    assert _compensated_sum([1.0, 1e16, 1.0]) == 1e16 + 2.0
    mag = MagneticSystem(MagneticModel.from_expressions(
        BundleChart(3, 1), upsilon=[[["1e16"], ["1"], ["-1e16"]]]))
    chart = BundleChart(1, 3)
    con = ConstrainedSystem(
        LagrangianSpec.from_expression(
            chart, "0.5*v1^2 + y1 + y2 + y3 + w1 + w2 + w3"),
        AffineSplittingData.from_expressions(
            chart, [["1e16"], ["1"], ["-1e16"]],
            ["1e16*x1", "x1", "-1e16*x1"]))
    A = [[1.0, 0.0, 0.0], [1e16, 1.0, 0.0], [1.0, 0.0, 1.0]]

    def outputs():
        return (mag.rhs(0.0, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]),
                con.rhs(0.0, [0.5, 0.0, 0.0, 0.0, 1.0]),
                struct.pack("<d", condition_number(A)))

    plain = outputs()
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    assert outputs() == plain


@pytest.mark.parametrize("version", ["3.12", "3.13"])
def test_dot_order_holds_where_sum_is_compensated(version):
    exe = find_python(version)
    if exe is None:
        pytest.skip(f"no Python {version} interpreter")
    program = ("from fibresplit.numerics import dot, total\n"
               "print(repr(dot([1e16, 1.0, -1e16], [1.0, 1.0, 1.0])),"
               " repr(total([1e16, 1.0, -1e16])))")
    out = subprocess.run([exe, "-c", program], capture_output=True,
                         text=True, timeout=60, check=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert out.stdout.split() == ["0.0", "0.0"]


def test_rk4_exponential_and_grid():
    rec = rk4_integrate(lambda t, y: y, 0.0, 1.0, np.array([1.0]), 1e-3)
    assert abs(rec.final[0] - np.e) < 1e-10
    assert rec.t[0] == 0.0 and rec.t[-1] == 1.0
    assert abs(rec.t[1] - 1e-3) < 1e-15


def test_rk4_short_final_step_lands_on_t1():
    rec = rk4_integrate(lambda t, y: np.array([1.0]), 0.0, 0.25,
                        np.array([0.0]), 0.1)
    assert rec.t[-1] == 0.25
    assert abs(rec.final[0] - 0.25) < 1e-13
    assert len(rec.t) == 4  # 0, .1, .2, .25


def test_rk4_convergence_order_four():
    # halving dt divides the error by ~16 on y' = y
    def err(dt):
        rec = rk4_integrate(lambda t, y: y, 0.0, 1.0, np.array([1.0]), dt)
        return abs(rec.final[0] - np.e)

    factor = err(0.02) / err(0.01)
    assert 14.0 < factor < 18.0


def test_rk4_diagnostics_recorded_per_point():
    rec = rk4_integrate(
        lambda t, y: [-v for v in y], 0.0, 1.0, np.array([2.0]), 0.1,
        diagnostic=lambda t, y: {"square": float(y[0] ** 2)})
    assert len(rec.diagnostics["square"]) == len(rec.t)
    assert abs(rec.diagnostics["square"][0] - 4.0) < 1e-15


def test_rk4_nonfinite_state_raises():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteState):
            rk4_integrate(lambda t, y: [v * v * v for v in y], 0.0, 10.0,
                          np.array([5.0]), 0.5)


def test_rk4_validates_step_and_span():
    with pytest.raises(ValueError):
        rk4_integrate(lambda t, y: y, 0.0, 1.0, np.array([1.0]), -0.1)
    with pytest.raises(ValueError):
        rk4_integrate(lambda t, y: y, 1.0, 0.0, np.array([1.0]), 0.1)


# The numpy RK4 loop that rk4_integrate's float-list stages replace: the
# reference whose states and diagnostics it must match bit for bit.

def _reference_rk4_step(f, t, y, dt):
    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, y + (0.5 * dt) * k1)
    k3 = f(t + 0.5 * dt, y + (0.5 * dt) * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_rk4(f, t0, t1, y0, dt, diagnostic):
    """Times, states and diagnostics of RK4 on arrays over rk4_integrate's
    grid, f and diagnostic taking the state as an array."""
    span = t1 - t0
    n_full = int(math.floor(span / dt + 1e-12))
    rem = span - n_full * dt
    if rem < 1e-12 * max(1.0, abs(span)):
        rem = 0.0
    n_steps = n_full + (1 if rem else 0)
    y = np.asarray(y0, dtype=float).copy()
    times, states, diags = [t0], [y.copy()], [diagnostic(t0, y)]
    t = t0
    for i in range(n_steps):
        y = _reference_rk4_step(f, t, y, dt if i < n_full else rem)
        t = t1 if i + 1 == n_steps else t0 + (i + 1) * dt
        times.append(t)
        states.append(y.copy())
        diags.append(diagnostic(t, y))
    return np.array(times), np.array(states), diags


def test_rk4_matches_the_array_reference_bit_for_bit():
    rng = np.random.default_rng(15)
    c = rng.uniform(-1.0, 1.0, (5, 5)).tolist()
    d = rng.uniform(0.5, 2.0, 5).tolist()

    def rates(t, y):
        # a nonlinear, time-dependent field on 5 Python floats
        return [c[0][1] * y[1] * y[2] - d[0] * math.sin(y[0]) + math.cos(t),
                c[1][2] * y[2] - d[1] * y[1] ** 3 + c[1][0] * y[3] * y[4],
                math.exp(-y[0] * y[0]) * c[2][3] - d[2] * y[2] / (1.0 + t),
                c[3][4] * y[4] * y[0] - d[3] * math.tanh(y[3]),
                c[4][0] * y[0] * y[1] - d[4] * y[4] + c[4][4] * t * y[2]]

    def energy(t, y):
        return {"energy": sum(v * v for v in y), "first": y[0] * t}

    y0 = rng.uniform(-1.0, 1.0, 5)
    # 53 steps of 0.01 and a shortened last one of 0.007
    t_ref, s_ref, d_ref = _reference_rk4(
        lambda t, y: np.array(rates(t, y.tolist())), 0.0, 0.537, y0, 0.01,
        lambda t, y: energy(t, y.tolist()))
    rec = rk4_integrate(rates, 0.0, 0.537, y0, 0.01, energy)
    assert len(rec.t) == 55 and rec.t[-1] - rec.t[-2] < 0.0071
    assert np.array(rec.t).tobytes() == t_ref.tobytes()
    assert np.array(rec.states).tobytes() == s_ref.tobytes()
    for key in ("energy", "first"):
        want = np.array([dg[key] for dg in d_ref])
        assert np.array(rec.diagnostics[key]).tobytes() == want.tobytes()


@pytest.mark.parametrize("t1", [1e300, np.inf])
def test_rk4_bounds_the_step_count(t1):
    # checked before any step is taken or any per-step list is built
    with pytest.raises(ValueError, match="RK4 steps exceed the maximum"):
        rk4_integrate(lambda t, y: y, 0.0, t1, np.array([1.0]), 1.0)
