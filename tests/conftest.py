import pytest

from fibresplit.bundle import BundleChart
from fibresplit.lagrangian import LagrangianSpec
from fibresplit.nonholonomic import integrate_constrained
from fibresplit.splitting import AffineSplittingData


@pytest.fixture(scope="session")
def rolling_record():
    """(L, c, s0, rec): the rolling model w = x1 v2 integrated once for
    10 s at dt = 1e-3; the tests that read it must not modify it."""
    chart = BundleChart(2, 1)
    L = LagrangianSpec.from_expression(chart, "0.5*(v1^2 + v2^2 + w1^2)")
    c = AffineSplittingData.from_expressions(chart, [["0", "-x1"]], ["0"])
    s0 = [0.5, 0.0, 0.0, 0.2, 0.4]
    return L, c, s0, integrate_constrained(L, c, s0, 0.0, 10.0, 1e-3)


@pytest.fixture
def kernel_calls(monkeypatch):
    """count(field) wraps the tape field's generated jet and value kernels
    for the test and returns the dict that counts their calls."""
    def count(field):
        jet, value = field._generated()
        calls = {"jet": 0, "value": 0}

        def counted(name, kernel):
            def call(x):
                calls[name] += 1
                return kernel(x)
            return call

        monkeypatch.setattr(field, "_kernel",
                            (counted("jet", jet), counted("value", value)))
        return calls
    return count
