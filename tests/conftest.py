import pytest

from fibresplit.bundle import BundleChart
from fibresplit.lagrangian import LagrangianSpec
from fibresplit.nonholonomic import (AffineConstraintSpec, ConstrainedState,
                                     integrate_constrained)


@pytest.fixture(scope="session")
def rolling_record():
    """(L, c, ic, rec): the rolling model w = x1 v2 integrated once for
    10 s at dt = 1e-3; the tests that read it must not modify it."""
    chart = BundleChart(2, 1)
    L = LagrangianSpec.from_expression(chart, "0.5*(v1^2 + v2^2 + w1^2)")
    c = AffineConstraintSpec.from_expressions(chart, [["0", "-x1"]], ["0"])
    ic = ConstrainedState([0.5, 0.0], [0.0], [0.2, 0.4])
    return L, c, ic, integrate_constrained(L, c, ic, 0.0, 10.0, 1e-3)
