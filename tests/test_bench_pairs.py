import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(wall, exit_code=0, result=True):
    metrics = {name: {"value": wall} for name in bench_pairs.END_TO_END}
    return {"exit": exit_code, "invocations": {"a:cmd": wall / 10},
            "result": {"metrics": metrics} if result else None}


def test_summary_drops_a_pair_with_a_failed_run_and_keeps_pairs_aligned():
    parent = [_run(10.0), _run(11.0), _run(12.0, exit_code=1), _run(13.0)]
    change = [_run(9.0), _run(12.0, result=False), _run(11.0), _run(12.0)]
    out = bench_pairs._summary({"parent": parent, "change": change})
    assert out["pairs"] == 2
    assert out["failed_runs"] == {"parent": 1, "change": 1}
    wall = out["wall_cal"]
    # pairs 0 and 3 remain, and the change is lower in both; the runs of
    # one side are never compared with those of another pair
    assert wall["change_lower_in_pairs"] == 2
    assert wall["gain_shown"] is False
    assert wall["parent"]["median"] == 11.5
    assert wall["change"]["median"] == 10.5
    medians = out["invocation_median_s"]["a:cmd"]
    assert medians == pytest.approx({"parent": 1.15, "change": 1.05})


def test_summary_of_no_complete_pair():
    out = bench_pairs._summary({"parent": [_run(1.0, exit_code=2)],
                                "change": [_run(1.0)]})
    assert out["pairs"] == 0
    assert out["failed_runs"] == {"parent": 1, "change": 0}
    assert out["wall_cal"]["parent"] is None
    assert out["wall_cal"]["gain_shown"] is False
    assert out["invocation_median_s"] == {}


def _pairs(parent, change):
    return {"parent": [_run(w) for w in parent],
            "change": [_run(w) for w in change]}


def test_a_gain_is_shown_by_9_of_10_pairs_beyond_the_parents_spread():
    # parent q1, median, q3 = 5.225, 5.5, 5.775; change median 4.85
    parent = [5.0, 5.1, 5.2, 5.3, 5.4, 5.6, 5.7, 5.8, 5.9, 6.0]
    change = [4.4, 4.5, 4.6, 4.7, 4.8, 4.9, 5.0, 5.1, 5.2, 6.1]
    wall = bench_pairs._summary(_pairs(parent, change))["wall_cal"]
    assert wall["change_lower_in_pairs"] == 9
    assert wall["parent"]["q3"] - wall["parent"]["q1"] == pytest.approx(0.55)
    assert wall["parent"]["median"] - wall["change"]["median"] > 0.55
    assert wall["gain_shown"] is True


@pytest.mark.parametrize("change", [
    # 10 of 10 pairs, but the medians 0.05 apart inside the spread of 0.55
    [w - 0.05 for w in [5.0, 5.1, 5.2, 5.3, 5.4, 5.6, 5.7, 5.8, 5.9, 6.0]],
    # medians 0.9 apart, but only 8 of 10 pairs won
    [4.1, 4.2, 4.3, 4.4, 4.5, 4.7, 4.8, 4.9, 6.5, 6.5],
])
def test_no_gain_is_shown_inside_the_spread_or_below_9_pairs(change):
    parent = [5.0, 5.1, 5.2, 5.3, 5.4, 5.6, 5.7, 5.8, 5.9, 6.0]
    wall = bench_pairs._summary(_pairs(parent, change))["wall_cal"]
    assert wall["gain_shown"] is False
