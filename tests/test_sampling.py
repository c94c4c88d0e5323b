"""Every sampled check draws through numerics.sample_max: a draw outside
the domain is redrawn, and a check with no usable draw raises."""

import numpy as np
import pytest

from fibresplit.bundle import BundleChart
from fibresplit.errors import DomainError
from fibresplit.lagrangian import (LagrangianSpec, defining_relation_check,
                                   homogeneity_of_induced, induced_splitting,
                                   subduce, symmetry_condition_check,
                                   tangency_check)
from fibresplit.numerics import sample_max
from fibresplit.reduction import (ActionSpec, MagneticModel,
                                  connection_test_domega, decoupling_check,
                                  invariance_check, magnetic_lp_system,
                                  principal_check, vilms_principal_check)
from fibresplit.splitting import SplittingSpec, affine_decompose, classify

CH = BundleChart(1, 1)
ACTION = ActionSpec.from_expressions(CH, [["1"]])
# log of a negative number everywhere on the unit box
NOWHERE_L = "0.5*v1^2 + 0.5*w1^2 + log(x1 - 2)"
NOWHERE_H = "0.7*v1 + log(x1 - 2)"
# defined on the half x1 > 0 of the unit box
HALF_L = "0.5*v1^2 + 0.5*w1^2 + log(x1)"


def lag(src):
    return LagrangianSpec.from_expression(CH, src)


def nowhere_h():
    return SplittingSpec.from_expressions(CH, [NOWHERE_H])


CHECKS = {
    "defining_relation": lambda: defining_relation_check(
        lag(NOWHERE_L), nowhere_h(), samples=4),
    "symmetry_condition": lambda: symmetry_condition_check(
        lag(NOWHERE_L), nowhere_h(), samples=4),
    "tangency": lambda: tangency_check(lag(NOWHERE_L), nowhere_h(),
                                       samples=4),
    "subduce": lambda: subduce(lag(NOWHERE_L), nowhere_h(), samples=4),
    "homogeneity_of_induced": lambda: homogeneity_of_induced(
        lag(NOWHERE_L), nowhere_h(), samples=4),
    "branch_probe": lambda: induced_splitting(lag(NOWHERE_L)),
    "invariance": lambda: invariance_check(lag(NOWHERE_L), ACTION,
                                           samples=4),
    "principal": lambda: principal_check(nowhere_h(), ACTION, samples=4),
    "connection_test": lambda: connection_test_domega(nowhere_h(), ACTION,
                                                      samples=4),
    "vilms_principal": lambda: vilms_principal_check(
        nowhere_h(), ACTION, [(0, 0.2)], state_samples=2),
    "classify": lambda: classify(nowhere_h(), samples=4),
    "affine_decompose": lambda: affine_decompose(nowhere_h(), samples=4),
    "decoupling": lambda: decoupling_check(
        magnetic_lp_system(MagneticModel.from_expressions(
            1, 1, A_fibre=["log(x1 - 2)"])), samples=4),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_check_without_usable_samples_raises(name):
    with pytest.raises(DomainError, match="no admissible sample points"):
        CHECKS[name]()


@pytest.mark.parametrize("check", [
    lambda L, h: defining_relation_check(L, h, samples=20),
    lambda L, h: tangency_check(L, h, samples=20),
    lambda L, h: invariance_check(L, ACTION, samples=20),
], ids=["defining_relation", "tangency", "invariance"])
def test_failed_draws_are_redrawn(check):
    L = lag(HALF_L)
    rep = check(L, induced_splitting(L))
    assert rep.sample_count == 20
    assert rep.skipped > 0
    assert rep.max_residual < 1e-9


def test_affine_decompose_redraws_outside_the_domain():
    h = SplittingSpec.from_expressions(CH, ["0.7*v1 + log(x1)"])
    assert affine_decompose(h).reconstruction_residual == 0.0


def test_sample_max_policy():
    def positive_x(z):
        if z[0] <= 0.0:
            raise DomainError("outside")
        return z[0], -z[1]

    rep = sample_max(positive_x, 30, 3, 2, box=0.5)
    assert rep.sample_count == 30 and rep.skipped > 0 and rep.seed == 3
    assert rep.max_residual.shape == (2,)
    assert 0.4 < rep.max_residual[0] <= 0.5

    draws = []

    def never(z):
        draws.append(z)
        raise DomainError("outside")

    with pytest.raises(DomainError):
        sample_max(never, 4, 0, 1)
    assert len(draws) == 200

    # a NaN residual is kept, so the check it feeds fails
    assert np.isnan(sample_max(lambda z: np.nan if z[0] > 0 else 0.0,
                               10, 0, 1).max_residual)

    # a Generator seed shares its stream with the caller
    rng = np.random.default_rng(9)
    sample_max(lambda z: 0.0, 3, rng, 2)
    assert rng.uniform() == np.random.default_rng(9).uniform(size=7)[6]
