import importlib.util
import math
import platform
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

CSV = "trajectory.csv"


def _csv(*rows):
    return ("t,y\n" + "".join(f"{a},{b}\n" for a, b in rows)).encode()


def test_number_drift_of_paired_numbers():
    _, gap = compare_outputs._number_drift(_csv((0, 1.0), (1, 2.0)),
                                           _csv((0, 1.0), (1, 2.5)), CSV)
    assert gap == (0.5, 0.2)


def test_number_drift_is_inf_when_numbers_cannot_be_paired():
    old = _csv((0, 1.0))
    for new in (_csv((0, 1.0), (1, 2.0)), b"t,y\n0,oops\n",
                _csv((0, "nan")), _csv((0, "inf"))):
        line, gap = compare_outputs._number_drift(old, new, CSV)
        assert gap == (math.inf, math.inf), line


def test_last_line_counts_a_file_on_one_side(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    for root in (old, new):
        (root / "cfg" / "cmd").mkdir(parents=True)
    (old / "cfg" / "cmd" / CSV).write_bytes(_csv((0, 1.0)))
    assert compare_outputs.compare(old, new) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == ("largest numeric drift over all runs: absolute inf, "
                    "relative inf")


def test_check_digests_lists_every_run_that_differs(tmp_path, capsys):
    for run, text in (("a/cmd", "0\n"), ("b/cmd", "1\n")):
        (tmp_path / run).mkdir(parents=True)
        (tmp_path / run / "exit.txt").write_text(text)
    runs = compare_outputs.digests(tmp_path)
    assert runs["a/cmd"] != runs["b/cmd"]
    recorded = {"python": platform.python_version(), "runs": dict(runs)}
    assert compare_outputs.check_digests(recorded, runs) == 0
    (tmp_path / "b" / "cmd" / "stdout.txt").write_text("")
    recorded["runs"]["c/cmd"] = runs["a/cmd"]
    assert compare_outputs.check_digests(recorded,
                                         compare_outputs.digests(tmp_path)) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[-3:] == ["b/cmd: differs", "c/cmd: only recorded",
                        "2 runs checked, 2 differ from the record"]
