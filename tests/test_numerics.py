import numpy as np
import pytest

from fibresplit.errors import (DimensionMismatch, NoConvergence,
                               NonFiniteState, SingularMatrix)
from fibresplit.numerics import (IvpProblem, LinearSystem, NewtonProblem,
                                 condition_number, linear_solve, newton_solve,
                                 rk4_integrate)


def test_linear_solve_recovers_known_solution():
    rng = np.random.default_rng(0)
    for _ in range(20):
        A = rng.uniform(-1.0, 1.0, (4, 4)) + 4.0 * np.eye(4)
        x = rng.uniform(-1.0, 1.0, 4)
        got = linear_solve(LinearSystem(A, A @ x))
        assert np.abs(got - x).max() < 1e-12


def test_linear_solve_rejects_singular():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        linear_solve(LinearSystem(A, np.array([1.0, 1.0])))


def test_linear_solve_rejects_condition_over_bound():
    A = np.diag([1.0, 1e-10])
    with pytest.raises(SingularMatrix):
        linear_solve(LinearSystem(A, np.ones(2)), cond_bound=1e8)
    # same matrix passes with a looser bound
    x = linear_solve(LinearSystem(A, np.ones(2)), cond_bound=1e12)
    assert np.abs(x - [1.0, 1e10]).max() / 1e10 < 1e-8


def test_linear_solve_rejects_nonfinite():
    A = np.array([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(SingularMatrix):
        linear_solve(LinearSystem(A, np.ones(2)))


@pytest.mark.parametrize("k", range(1, 7))
def test_linear_solve_matches_lapack(k):
    rng = np.random.default_rng(k)
    for _ in range(10):
        A = rng.uniform(-1.0, 1.0, (k, k)) + np.eye(k)
        for b in (rng.uniform(-1.0, 1.0, k), rng.uniform(-1.0, 1.0, (k, 3))):
            want = np.linalg.solve(A, b)
            got = linear_solve(LinearSystem(A, b))
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
    A = np.array([[1.0, 1e6], [0.0, 1.0]])  # kappa_1 = 1000002000001
    b = np.array([1.0, 1.0])
    with pytest.raises(SingularMatrix, match="1.000e.12 over bound 1.0e.12"):
        linear_solve(LinearSystem(A, b), cond_bound=1e12)
    x = linear_solve(LinearSystem(A, b), cond_bound=1.000002000001e12)
    assert np.array_equal(x, [1.0 - 1e6, 1.0])


@pytest.mark.parametrize("A", [[[1.0, 2.0], [2.0, 4.0]], [[0.0]],
                               [[0.0, 0.0], [0.0, 0.0]],
                               [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0],
                                [0.0, 0.0, 1.0]]])
def test_zero_pivot_is_an_infinite_condition_number(A):
    b = np.ones(len(A))
    with pytest.raises(SingularMatrix,
                       match=r"^condition estimate inf over bound 1\.0e\+13$"):
        linear_solve(LinearSystem(A, b))
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
        linear_solve(LinearSystem(A, b))


def test_linear_solve_finite_entries_whose_sum_overflows():
    A = np.array([[1e308, 0.0], [0.0, -1e308]])
    x = linear_solve(LinearSystem(A, np.array([1e308, 1e308])))
    assert np.array_equal(x, [1.0, -1.0])


@pytest.mark.parametrize("d", [1e308, 1e-310])
def test_well_conditioned_systems_at_the_ends_of_the_float_range(d):
    # kappa_1 = 4, though |A|_1 overflows at d = 1e308 and 1/d at 1e-310
    A = d * np.array([[1.0, 1.0], [0.0, 1.0]])
    assert abs(condition_number(A) - 4.0) <= 4e-15
    x = linear_solve(LinearSystem(A, np.array([d, d])))
    assert np.array_equal(x, [0.0, 1.0])


def test_linear_solve_is_invariant_under_power_of_two_scaling():
    rng = np.random.default_rng(5)
    A = rng.uniform(-1.0, 1.0, (4, 4)) + np.eye(4)
    b = rng.uniform(-1.0, 1.0, (4, 2))
    x = linear_solve(LinearSystem(A, b))
    for e in (-900, -30, 30, 900):
        s = 2.0 ** e
        assert np.array_equal(linear_solve(LinearSystem(A * s, b * s)), x)
        assert condition_number(A * s) == condition_number(A)


def test_nan_residual_does_not_pass_the_postcondition():
    # x = (inf, -inf) and 0 * inf makes the residual nan
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SingularMatrix, match="residual nan"):
            linear_solve(LinearSystem(np.diag([1e-300, 1e-300]),
                                      np.array([1e300, -1e300])))


def test_linear_system_shape_validation():
    with pytest.raises(DimensionMismatch):
        LinearSystem(np.ones((2, 3)), np.ones(2))
    with pytest.raises(DimensionMismatch):
        LinearSystem(np.eye(2), np.ones((2, 1, 1)))
    with pytest.raises(DimensionMismatch):
        LinearSystem(np.eye(1), 1.0)


def test_linear_solve_several_right_hand_sides():
    rng = np.random.default_rng(1)
    A = rng.uniform(-1.0, 1.0, (3, 3)) + 3.0 * np.eye(3)
    B = rng.uniform(-1.0, 1.0, (3, 4))
    X = linear_solve(LinearSystem(A, B))
    assert X.shape == (3, 4)
    for c in range(4):
        col = linear_solve(LinearSystem(A, B[:, c]))
        assert np.abs(X[:, c] - col).max() < 1e-14
    # the condition bound holds for every right-hand side at once
    with pytest.raises(SingularMatrix):
        linear_solve(LinearSystem(np.diag([1.0, 1e-14]), np.ones((2, 2))))


def test_newton_affine_converges_in_one_iteration():
    A = np.array([[2.0, 1.0], [0.0, 3.0]])
    b = np.array([1.0, -2.0])
    calls = []

    def system(x):
        calls.append(x.copy())
        return A @ x - b, A

    res = newton_solve(NewtonProblem(system=system, x0=np.zeros(2)))
    assert res.iterations == 1
    assert res.contraction == 0.0
    assert np.abs(A @ res.x - b).max() < 1e-12
    # one call at x0, one at the accepted point; no separate Jacobian call
    assert len(calls) == 2


def test_newton_quadratic_convergence_on_scalar_root():
    res = newton_solve(NewtonProblem(
        system=lambda x: (np.array([x[0] ** 2 - 2.0]),
                          np.array([[2.0 * x[0]]])),
        x0=np.array([1.0])))
    assert abs(res.x[0] - np.sqrt(2.0)) < 1e-10
    assert res.iterations <= 6
    # steps 0.5 then -1/12 from x0 = 1
    assert abs(res.contraction - 1.0 / 6.0) < 1e-12


def test_newton_contraction_is_inf_after_a_damped_step():
    # the full Newton step from 2 overshoots atan's root to |x| > 3
    res = newton_solve(NewtonProblem(
        system=lambda x: (np.arctan(x), np.array([[1.0 / (1.0 + x[0] ** 2)]])),
        x0=np.array([2.0])))
    assert abs(res.x[0]) < 1e-10
    assert res.contraction == np.inf


def test_newton_zero_iterations_when_already_solved():
    res = newton_solve(NewtonProblem(
        system=lambda x: (x - 1.0, np.eye(1)),
        x0=np.array([1.0])))
    assert res.iterations == 0
    assert res.contraction == 0.0


def test_newton_stops_once_the_caller_would_reject_it():
    calls = []

    def system(x):
        calls.append(x[0])
        return x * x - 2.0, np.diag(2.0 * x)

    # sqrt(2) from 1 contracts by 1/6 and converges in 5 iterations
    for limits in ({"max_contraction": 0.1}, {"max_iter": 2}):
        calls.clear()
        with pytest.raises(NoConvergence) as exc:
            newton_solve(NewtonProblem(system, np.array([1.0]), **limits))
        assert exc.value.iterations == 2
        assert len(calls) == 3
    # a damped step has contraction inf, over any finite bound
    with pytest.raises(NoConvergence) as exc:
        newton_solve(NewtonProblem(
            system=lambda x: (np.arctan(x),
                              np.array([[1.0 / (1.0 + x[0] ** 2)]])),
            x0=np.array([2.0]), max_contraction=1e300))
    assert exc.value.iterations == 1


def test_newton_reports_no_convergence():
    # residual bounded away from zero, gradient never helps
    with pytest.raises(NoConvergence) as exc:
        newton_solve(NewtonProblem(
            system=lambda x: (np.array([np.cos(x[0]) + 2.0]),
                              np.array([[-np.sin(x[0]) or 1e-3]])),
            x0=np.array([0.5])))
    assert exc.value.iterations >= 1


def test_rk4_exponential_and_grid():
    rec = rk4_integrate(IvpProblem(
        lambda t, y: y, 0.0, 1.0, np.array([1.0]), 1e-3))
    assert abs(rec.final[0] - np.e) < 1e-10
    assert rec.t[0] == 0.0 and rec.t[-1] == 1.0
    assert abs(rec.t[1] - 1e-3) < 1e-15


def test_rk4_short_final_step_lands_on_t1():
    rec = rk4_integrate(IvpProblem(
        lambda t, y: np.array([1.0]), 0.0, 0.25, np.array([0.0]), 0.1))
    assert rec.t[-1] == 0.25
    assert abs(rec.final[0] - 0.25) < 1e-13
    assert len(rec.t) == 4  # 0, .1, .2, .25


def test_rk4_convergence_order_four():
    # halving dt divides the error by ~16 on y' = y
    def err(dt):
        rec = rk4_integrate(IvpProblem(
            lambda t, y: y, 0.0, 1.0, np.array([1.0]), dt))
        return abs(rec.final[0] - np.e)

    factor = err(0.02) / err(0.01)
    assert 14.0 < factor < 18.0


def test_rk4_diagnostics_recorded_per_point():
    rec = rk4_integrate(
        IvpProblem(lambda t, y: -y, 0.0, 1.0, np.array([2.0]), 0.1),
        diagnostic=lambda t, y: {"square": float(y[0] ** 2)})
    assert len(rec.diagnostics["square"]) == len(rec.t)
    assert abs(rec.diagnostics["square"][0] - 4.0) < 1e-15


def test_rk4_nonfinite_state_raises():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteState):
            rk4_integrate(IvpProblem(
                lambda t, y: y ** 3, 0.0, 10.0, np.array([5.0]), 0.5))


def test_rk4_validates_step_and_span():
    with pytest.raises(ValueError):
        rk4_integrate(IvpProblem(lambda t, y: y, 0.0, 1.0,
                                 np.array([1.0]), -0.1))
    with pytest.raises(ValueError):
        rk4_integrate(IvpProblem(lambda t, y: y, 1.0, 0.0,
                                 np.array([1.0]), 0.1))
