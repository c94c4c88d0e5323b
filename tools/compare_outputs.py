"""Compare the outputs of two fibresplit source trees, command by command.

    python tools/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are checkouts (or their src/ directories).  Every
fibresplit command runs, at full length and with default arguments, on
each of configs/*.ini and tests/fixtures/*.ini of the checkout holding
this script.  Each tree runs in its own Python subprocess, with the
commands called in-process through fibresplit.cli.main.  Every run's
report.json, trajectory.csv, stdout, stderr and exit code are compared
byte for byte; each difference is listed with a short diff, and the exit
status is 1 when any output differs, 0 when none does.  For a differing
report.json or trajectory.csv, the largest absolute and relative
difference over the numbers that differ is printed too (relative to the
larger magnitude of the pair); the last line gives the largest of each
over all runs, inf where numbers could not be paired (a file on one side
only, unreadable or differently many numbers) or a differing pair holds
a nan or an inf.
"""

import contextlib
import difflib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUTPUTS = ("exit.txt", "stdout.txt", "stderr.txt", "report.json",
           "trajectory.csv")
DIFF_LINES = 12


def _configs():
    return sorted(ROOT.glob("configs/*.ini")) \
        + sorted(ROOT.glob("tests/fixtures/*.ini"))


def _package_dir(tree):
    tree = Path(tree).resolve()
    if (tree / "src" / "fibresplit").is_dir():
        return tree / "src"
    if (tree / "fibresplit").is_dir():
        return tree
    raise SystemExit(f"no fibresplit package under {tree}")


def _run_all(out_root):
    """Worker: run every command on every config under out_root."""
    from fibresplit import cli

    os.chdir(out_root)
    for cfg in _configs():
        for command in cli.COMMANDS:
            rel = Path(f"{cfg.parent.name}-{cfg.stem}", command)
            rel.mkdir(parents=True)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = cli.main([command, "--config", str(cfg),
                                     "--out-dir", str(rel)])
                except SystemExit as exc:
                    code = exc.code
                except Exception:  # a crash is an output to compare too
                    traceback.print_exc()
                    code = "uncaught exception"
            (rel / "exit.txt").write_text(f"{code}\n")
            (rel / "stdout.txt").write_text(out.getvalue())
            (rel / "stderr.txt").write_text(err.getvalue())


def _spawn(tree, out_root):
    # fixed hash seed and BLAS threads: only the source tree may differ
    env = dict(os.environ, PYTHONPATH=str(_package_dir(tree)),
               OPENBLAS_NUM_THREADS="1", PYTHONHASHSEED="0")
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--worker",
         str(out_root)], env=env)


def _short_diff(old, new, name):
    lines = list(difflib.unified_diff(
        old.decode(errors="replace").splitlines(),
        new.decode(errors="replace").splitlines(),
        f"old/{name}", f"new/{name}", n=0, lineterm=""))
    if len(lines) > DIFF_LINES:
        lines = lines[:DIFF_LINES] + [f"... ({len(lines) - DIFF_LINES} more "
                                      f"diff lines)"]
    return ["    " + ln for ln in lines]


def _numbers(name, data):
    """The numbers of a report.json or trajectory.csv, in file order."""
    if name == "report.json":
        out = []

        def walk(node):
            if isinstance(node, dict):
                node = list(node.values())
            if isinstance(node, list):
                for item in node:
                    walk(item)
            elif isinstance(node, (int, float)) \
                    and not isinstance(node, bool):
                out.append(float(node))

        walk(json.loads(data))
        return out
    return [float(tok) for line in data.decode().splitlines()[1:]
            for tok in line.split(",")]


def _number_drift(old, new, name):
    """One line on the numbers that differ, and their largest absolute and
    relative differences: inf when the numbers cannot be paired (unreadable
    or differently many) or a pair holds a nan or an inf."""
    unpaired = (math.inf, math.inf)
    try:
        a, b = _numbers(name, old), _numbers(name, new)
    except ValueError:
        return "    numbers: unreadable", unpaired
    if len(a) != len(b):
        return f"    numbers: {len(a)} in old, {len(b)} in new", unpaired
    pairs = [(x, y) for x, y in zip(a, b)
             if x != y and not (math.isnan(x) and math.isnan(y))]
    if not pairs:
        return "    numbers: all equal", (0.0, 0.0)
    gaps = [(abs(x - y), abs(x - y) / max(abs(x), abs(y))) for x, y in pairs]
    # nan against a number, or inf against anything, is no finite drift
    absolute = max(d if math.isfinite(d) else math.inf for d, _ in gaps)
    relative = max(r if math.isfinite(r) else math.inf for _, r in gaps)
    return (f"    numbers: {len(pairs)} differ, largest absolute "
            f"difference {absolute:.3e}, largest relative {relative:.3e}",
            (absolute, relative))


def compare(old_root, new_root):
    """Print every differing output, then the largest numeric drift over
    all runs; return the number of differences."""
    runs = sorted({p.relative_to(root) for root in (old_root, new_root)
                   for p in Path(root).glob("*/*") if p.is_dir()})
    differences = 0
    drift = (0.0, 0.0)
    for run in runs:
        for name in OUTPUTS:
            old, new = Path(old_root, run, name), Path(new_root, run, name)
            if not old.exists() and not new.exists():
                continue
            old_b = old.read_bytes() if old.exists() else b""
            new_b = new.read_bytes() if new.exists() else b""
            if old.exists() == new.exists() and old_b == new_b:
                continue
            differences += 1
            state = ("only in old" if not new.exists() else
                     "only in new" if not old.exists() else "differs")
            print(f"{run}/{name}: {state}")
            print("\n".join(_short_diff(old_b, new_b, f"{run}/{name}")))
            if name in ("report.json", "trajectory.csv"):
                if state == "differs":
                    line, gap = _number_drift(old_b, new_b, name)
                    print(line)
                else:  # numbers on one side only
                    gap = (math.inf, math.inf)
                drift = (max(drift[0], gap[0]), max(drift[1], gap[1]))
    print(f"{len(runs)} runs compared, {differences} outputs differ")
    print(f"largest numeric drift over all runs: absolute {drift[0]:.3e}, "
          f"relative {drift[1]:.3e}")
    return differences


def main(argv):
    if len(argv) == 2 and argv[0] == "--worker":
        _run_all(argv[1])
        return 0
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        roots = [Path(tmp, "old"), Path(tmp, "new")]
        procs = []
        for tree, root in zip(argv, roots):
            root.mkdir()
            procs.append(_spawn(tree, root))
        codes = [p.wait() for p in procs]
        if any(codes):
            print(f"a worker failed: exit codes {codes}", file=sys.stderr)
            return 2
        return 1 if compare(*roots) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
