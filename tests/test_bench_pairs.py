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
    assert out["invocation_median_s"] == {}
