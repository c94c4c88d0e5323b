"""Count the dense solves of each benchmark workload by system shape.

    python tools/count_solves.py [--seed 1] [WORKLOAD ...]

Builds the models and invocations of each named perfbench workload
(default: all of them) from --seed, runs every invocation once through
fibresplit.cli.main with numerics.linear_solve and
numerics.condition_number wrapped by a counter, and prints, per
workload, the calls at each system size k and right-hand side layout
(r = 1-D for a vector b, else the number of columns; cond for
condition_number).  The counter sees every module's binding of the two
functions.  perfbench itself is only imported, never modified.
"""

import argparse
import collections
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from fibresplit import cli, numerics  # noqa: E402


@contextlib.contextmanager
def _counted(counts):
    """Wrap linear_solve and condition_number under every module binding."""
    solve, cond = numerics.linear_solve, numerics.condition_number

    def counted_solve(A, b, *args, **kwargs):
        b_shape = np.shape(b)
        counts[len(A), "1-D" if len(b_shape) == 1 else b_shape[1]] += 1
        return solve(A, b, *args, **kwargs)

    def counted_cond(A):
        counts[len(A), "cond"] += 1
        return cond(A)

    swaps = {solve: counted_solve, cond: counted_cond}
    patched = []
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("fibresplit"):
            for name, value in list(vars(mod).items()):
                if any(value is fn for fn in swaps):
                    patched.append((mod, name, value))
                    setattr(mod, name, swaps[value])
    try:
        yield
    finally:
        for mod, name, value in patched:
            setattr(mod, name, value)


def count(workload, seed, out_dir):
    models, invocations = workloads.WORKLOADS[workload](
        np.random.default_rng(seed))
    paths = {}
    for model in models:
        paths[model.name] = Path(out_dir, f"{model.name}.ini")
        paths[model.name].write_text(model.ini, encoding="utf-8")
    counts = collections.Counter()
    with _counted(counts), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for inv in invocations:
            code = cli.main([inv.command, "--config",
                             str(paths[inv.model.name]), "--out-dir",
                             str(Path(out_dir, inv.label.replace(":", "-"))),
                             *inv.args])
            if code != 0:
                raise SystemExit(f"{inv.label} exited with {code}")
    return counts


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*", default=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    for workload in args.workloads:
        with tempfile.TemporaryDirectory() as out_dir:
            counts = count(workload, args.seed, out_dir)
        total = sum(counts.values())
        print(f"{workload} (seed {args.seed}): {total} calls")
        order = {"1-D": 0, "cond": sys.maxsize}
        for (k, r), n in sorted(counts.items(), key=lambda kv: (
                kv[0][0], order.get(kv[0][1], kv[0][1]))):
            print(f"  k={k} r={r:<4} {n:>7}  {100.0 * n / total:5.1f}%")


if __name__ == "__main__":
    main()
