import numpy as np
import pytest

from fibresplit.bundle import BundleChart
from fibresplit.errors import DimensionMismatch
from fibresplit.lagrangian import LagrangianSpec
from fibresplit.nonholonomic import (ConstrainedLagrangianField,
                                     ConstrainedSystem,
                                     integrate_constrained)
from fibresplit.splitting import AffineSplittingData, rate_residual

CH1 = BundleChart(1, 1)
CH2 = BundleChart(2, 1)


def constraint(chart, A, A0):
    return AffineSplittingData.from_expressions(chart, A, A0)


def rolling_setup():
    # w = x1 v2: one curvature coefficient equal to 1, drift-free
    L = LagrangianSpec.from_expression(CH2, "0.5*(v1^2 + v2^2 + w1^2)")
    c = constraint(CH2, [["0", "-x1"]], ["0"])
    return L, c


def test_constraint_coefficients_are_w():
    _, c = rolling_setup()
    w = c.h_values([0.5, 0.0], [0.3], [0.2, 0.4])
    assert np.array_equal(w, np.array([0.2]))
    with pytest.raises(DimensionMismatch):
        constraint(CH2, [["0", "0"], ["0", "0"]], ["0"])


def test_constrained_lagrangian_values():
    L = LagrangianSpec.from_expression(CH1, "0.5*(v1^2 + w1^2)")
    free = ConstrainedLagrangianField(L, constraint(CH1, [["0"]], ["0"]))
    s = np.array([0.1, -0.3, 0.5])
    assert abs(free.value(s) - 0.125) < 1e-15
    tilted = ConstrainedLagrangianField(L, constraint(CH1, [["2"]], ["0"]))
    # w = -2v, so the kinetic term carries a factor 1 + 4
    assert abs(tilted.value(s) - 0.625) < 1e-15
    assert abs(tilted.jet(s).hessian[2 * 3 + 2] - 5.0) < 1e-14


def test_constrained_lagrangian_jets_closed_form():
    L = LagrangianSpec.from_expression(CH1, "0.5*(v1^2 + w1^2)")
    Lc = ConstrainedLagrangianField(L, constraint(CH1, [["x1"]], ["y1"]))
    x, y, v = 0.5, 0.3, 0.7
    u = y - x * v
    j = Lc.jet(np.array([x, y, v]))
    assert abs(j.value - (0.5 * v * v + 0.5 * u * u)) < 1e-15
    assert np.allclose(j.gradient, [-u * v, u, v - u * x], atol=1e-14)
    want_hess = [v * v, -v, x * v - u,
                 -v, 1.0, -x,
                 x * v - u, -x, 1.0 + x * x]
    assert np.allclose(j.hessian, want_hess, atol=1e-14)
    with pytest.raises(DimensionMismatch):
        Lc.jet(np.array([0.1, 0.2]))


def test_pure_drift_constraint():
    # A = 0, A0 = 0.8: the fibre coordinate advances linearly, base inert
    L = LagrangianSpec.from_expression(CH1, "0.5*(v1^2 + w1^2)")
    c = constraint(CH1, [["0"]], ["0.8"])
    rec = integrate_constrained(L, c, [0.0, 0.0, 0.3], 0.0, 2.0, 1e-3)
    assert abs(rec.final[1] - 1.6) < 1e-9
    assert abs(rec.final[0] - 0.6) < 1e-12
    assert abs(rec.final[2] - 0.3) < 1e-12


def test_rhs_hand_value():
    L, c = rolling_setup()
    system = ConstrainedSystem(L, c)
    s = np.array([0.5, 0.0, 0.0, 0.2, 0.4])
    rhs = system.rhs(0.0, s)
    assert np.allclose(rhs[:2], [0.2, 0.4], atol=0)
    assert abs(rhs[2] - 0.2) < 1e-15       # dy/dt = x1 v2
    assert abs(rhs[3] - 0.0) < 1e-14       # curvature force cancels dLc/dx1
    assert abs(rhs[4] + 0.032) < 1e-14


def test_rolling_conserves_energy_and_constraint(rolling_record):
    L, c, s0, rec = rolling_record
    system = ConstrainedSystem(L, c)
    ws = [c.h_values(s[:2], s[2:3], s[3:]) for s in rec.states]
    assert max(rate_residual(rec.t, [s[2:3] for s in rec.states], ws)) \
        < 1e-10
    energy = np.asarray(rec.diagnostics["energy"])
    assert np.abs(energy - system.energy(s0)).max() < 1e-9


def test_zero_curvature_reduces_to_constrained_euler_lagrange():
    # constant A, no drift: the motion is plain EL of the constrained
    # Lagrangian, here a harmonic oscillator in the base coordinate
    L = LagrangianSpec.from_expression(
        CH1, "0.5*v1^2 + 0.5*w1^2 - 2.5*x1^2")
    c = constraint(CH1, [["2"]], ["0"])
    rec = integrate_constrained(L, c, [1.0, 0.0, 0.0], 0.0, 1.0, 1e-3)
    assert abs(rec.final[0] - np.cos(1.0)) < 1e-10
    assert abs(rec.final[1] - (2.0 - 2.0 * np.cos(1.0))) < 1e-10


def test_integrate_constrained_rejects_a_short_state():
    L, c = rolling_setup()
    with pytest.raises(DimensionMismatch, match="length 5"):
        integrate_constrained(L, c, [0.5, 0.0, 0.0, 0.2], 0.0, 1.0, 1e-3)
