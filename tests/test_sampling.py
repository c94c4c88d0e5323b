"""Every sampled check draws through numerics.sample_max: a draw outside
the domain is redrawn, and a check with no usable draw raises."""

import numpy as np
import pytest

from fibresplit.bundle import BundleChart
from fibresplit.errors import DomainError
from fibresplit.lagrangian import (LagrangianSpec, homogeneity_of_induced,
                                   induced_splitting, subduce,
                                   symmetry_condition_check, tangency_check)
from fibresplit.numerics import Generator, sample_max
from fibresplit.reduction import (ActionSpec, MagneticModel, MagneticSystem,
                                  connection_test_domega, decoupling_check,
                                  invariance_check, principal_check,
                                  vilms_principal_check)
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
        MagneticSystem(MagneticModel.from_expressions(
            1, 1, A_fibre=["log(x1 - 2)"])), samples=4),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_check_without_usable_samples_raises(name):
    with pytest.raises(DomainError, match="no admissible sample points"):
        CHECKS[name]()


@pytest.mark.parametrize("check", [
    lambda L, h: symmetry_condition_check(L, h, samples=20),
    lambda L, h: tangency_check(L, h, samples=20),
    lambda L, h: invariance_check(L, ACTION, samples=20),
], ids=["symmetry_condition", "tangency", "invariance"])
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
    assert type(rep.max_residual) is list and len(rep.max_residual) == 2
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
    # entry by entry: a NaN drawn first, and one drawn last, both stay
    calls = []

    def nan_first_and_last(z):
        calls.append(z)
        return (np.nan if len(calls) == 1 else 0.5,
                np.nan if len(calls) == 10 else 0.5)

    rep = sample_max(nan_first_and_last, 10, 0, 1)
    assert len(calls) == 10 and np.isnan(rep.max_residual).all()

    # a Generator seed shares its stream with the caller
    rng = Generator(9)
    sample_max(lambda z: 0.0, 3, rng, 2)
    assert rng.uniform(0.0, 1.0, 1) == Generator(9).uniform(0.0, 1.0, 7)[6:]


def test_sample_max_hands_each_residual_a_list():
    # an int seed draws what numpy's default_rng(seed) draws
    draws = []
    sample_max(lambda z: draws.append(z) or 0.0, 3, 5, 2, box=0.5)
    rng = np.random.default_rng(5)
    assert draws == [rng.uniform(-0.5, 0.5, 2).tolist() for _ in range(3)]
    assert all(type(z) is list and {type(e) for e in z} == {float}
               for z in draws)


# every (lo, hi) the package draws from: the sampling boxes +-box (1 by
# default, 0.5 and 2 in configs), the branch probe's +-0.7 and [-b, b],
# and decoupling_check's (0.1, 0.5)
_BOUNDS = [(-1.0, 1.0), (-0.5, 0.5), (-2.0, 2.0), (-0.7, 0.7), (0.1, 0.5)]
# widths 1 to 4 (n + m) on the largest chart the benchmark sweeps, (3, 2)
_WIDTHS = range(1, 21)
_SEEDS = [*range(200), 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 5]


def test_generator_draws_are_numpys():
    # for each seed, one generator reused across calls of every width and
    # bound, as sample_max, the branch probe, vilms_principal_check and
    # decoupling_check reuse theirs, and a fresh one per call
    for seed in _SEEDS:
        ours, theirs = Generator(seed), np.random.default_rng(seed)
        for width in _WIDTHS:
            lo, hi = _BOUNDS[width % len(_BOUNDS)]
            got = ours.uniform(lo, hi, width)
            assert got == theirs.uniform(lo, hi, width).tolist(), seed
            assert {type(e) for e in got} == {float}
        for lo, hi in _BOUNDS:
            assert Generator(seed).uniform(lo, hi, 3) == \
                np.random.default_rng(seed).uniform(lo, hi, 3).tolist(), seed


def test_generator_seeds_are_non_negative_ints():
    for bad in (-1, 1.5, "1"):
        with pytest.raises((ValueError, TypeError)):
            Generator(bad)
    assert Generator(np.int64(7)).uniform(0.0, 1.0, 2) == \
        Generator(7).uniform(0.0, 1.0, 2)
