"""fibresplit benchmark: seeded workloads through `fibresplit.cli.main`.

Run from the repository root:

    python3 perfbench/run.py --workload induced --seed 1 --seconds 30 --trace 0

One process runs one workload, in-process, with one BLAS thread.  The
seed draws the models (see workloads.py); a round runs every invocation
of the workload once, and rounds repeat until about --seconds have
passed.

--trace 0 reports the end-to-end metrics, with tracing off:
  setup_s       median subprocess `import fibresplit.cli` plus median
                load+compile of all the run's models, sampled 3 times
                before the first round and once after every round
  wall_cal      median over rounds of the round time (the sum of its
                invocation times) in calibration units
  task_p50_cal  median `cli.main` time over all invocations of the run,
                in calibration units
  peak_rss_mb   peak resident memory of this process
A calibration unit is the mean time of the calibration slices taken in
the same round (see _calibration).  The raw wall_s and task_p50_s are
printed beside them.
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of tracer.py, with trace_overhead_s (median traced minus median
untraced round time).

Every run checks every output: exit code and report status, closed forms
per family (workloads.py), byte-identical report.json and trajectory.csv
across rounds (and between traced and untraced rounds), the kernel
against the Jet2 algebra evaluator at seeded points, and induced
splittings against their closed form at seeded points.  Each invocation,
oracle point and closed-form point is one attempted operation; a wrong
one is a failed operation and makes `correct` false.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.util
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3          # setup samples before the first round
ORACLE_POINTS = 6          # seeded points per compiled field
CLOSED_FORM_POINTS = 5     # seeded points per induced splitting
ORACLE_TOL = 1e-9
CALIBRATION_STEPS = 5000   # one calibration slice, about 20 ms
# Oracle-only expressions in (a, b, c) that reach every tape operation, so a
# wrong kernel branch shows even where the workload's own tapes skip it.
ORACLE_PROBES = (
    "0.5*a^2 + 0.5*b^2 + b^3/6 + b*a^2 - c^-2",
    "sin(a)*exp(b) + sqrt(a^2 + b^2 + 1)*cos(c)",
    "(a + b*c)^3 / (2 + abs(a^2 + 0.5)) + log(2 + c^2) - tan(b/4)*exp(0.3*a)",
    "-(a*b - c)^2 * (1 + b)^1.5",
)


def _args(argv):
    p = argparse.ArgumentParser(description="fibresplit benchmark")
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _environment():
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "FIBRESPLIT_DISABLE_NUMBA": os.environ.get("FIBRESPLIT_DISABLE_NUMBA"),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
        "git_commit": commit,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _import_seconds():
    """Wall time of `import fibresplit.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import fibresplit.cli; "
            "print(time.perf_counter() - t)")
    res = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(res.stdout.strip().splitlines()[-1])


def _calibration():
    """Seconds for a fixed loop of small numpy and float work that runs no
    fibresplit code.  Round and invocation times are also reported in
    units of it, measured in the same round: the loop slows down with the
    machine, so the ratio cancels most of the drift in machine speed that
    shared VMs show, while a change to fibresplit moves it as it moves the
    time."""
    t0 = time.perf_counter()
    a = np.arange(6.0)
    s = 0.0
    for i in range(CALIBRATION_STEPS):
        g = a * 1.0001 + i
        s += float(np.outer(g, g)[1, 2]) * 1e-12 + math.sin(s)
    return time.perf_counter() - t0


def _build(config, model, path):
    cfg = config.load_config(path)
    chart = cfg.chart()
    cfg.simulation()
    built = []
    for name in model.builders:
        builder = getattr(cfg, name)
        built.append(builder() if name == "magnetic" else builder(chart))
    return built


def _tape_fields(objs, TapeField):
    """Every TapeField reachable from the built objects, closures included."""
    found, seen = [], set()

    def walk(obj, depth):
        if id(obj) in seen or depth > 6:
            return
        seen.add(id(obj))
        if isinstance(obj, TapeField):
            found.append(obj)
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                walk(item, depth + 1)
        elif callable(obj) and getattr(obj, "__closure__", None):
            for cell in obj.__closure__:
                walk(cell.cell_contents, depth + 1)
        elif hasattr(obj, "__dict__") and not isinstance(obj, type):
            for value in vars(obj).values():
                walk(value, depth + 1)

    walk(objs, 0)
    return found


def _oracle(fields, rng):
    """Kernel jets against the Jet2 algebra evaluator: list of problems,
    one entry per disagreeing point, and the number of points."""
    from fibresplit.errors import DomainError
    from fibresplit.jets import seed_jets

    problems, points = [], 0
    for f in fields:
        for _ in range(ORACLE_POINTS):
            points += 1
            x = rng.uniform(-1.0, 1.0, f.arity)
            try:
                got = f.jet(x)
            except DomainError:
                got = None
            try:
                ref = f.evaluator(seed_jets(x))
            except DomainError:
                ref = None
            if (got is None) != (ref is None):
                problems.append(f"oracle {f.label!r} at {x}: kernel "
                                f"{'raised' if got is None else 'returned'}, "
                                f"evaluator did not")
                continue
            if got is None:
                continue
            err = max(workloads.rel_error(got.value, ref.value),
                      workloads.rel_error(got.gradient, ref.gradient),
                      workloads.rel_error(got.hessian, ref.hessian))
            if not err <= ORACLE_TOL:
                problems.append(f"oracle {f.label!r} at {x}: relative "
                                f"error {err:.3e}")
    return problems, points


def _closed_form(models, built, rng):
    """Induced splittings at seeded points against the family's closed form."""
    from fibresplit.lagrangian import LagrangianSpec, induced_splitting

    problems, points = [], 0
    for model, objs in zip(models, built):
        if model.h_exact is None:
            continue
        L = next(o for o in objs if isinstance(o, LagrangianSpec))
        h = induced_splitting(L, probe=False)
        n, m = model.info["n"], model.info["m"]
        for _ in range(CLOSED_FORM_POINTS):
            points += 1
            z = rng.uniform(-1.0, 1.0, 2 * n + m)
            x, y, v = z[:n], z[n:n + m], z[n + m:]
            err = workloads.rel_error(h.h_values(x, y, v), model.h_exact(x, y, v))
            if not err <= workloads.CLOSED_TOL:
                problems.append(f"closed form {model.name} at {z}: relative "
                                f"error {err:.3e}")
    return problems, points


def _outputs(out_dir):
    data = {}
    for name in ("report.json", "trajectory.csv"):
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data[name] = fh.read()
    return data


class Runner:
    def __init__(self, cli, invocations, ini_paths, base_dir):
        self.cli = cli
        self.invocations = invocations
        self.ini_paths = ini_paths
        self.base_dir = base_dir
        self.by_label = {inv.label: [] for inv in invocations}
        self.reference = None          # outputs of the first round
        self.problems = []             # (label, cause)
        self.attempted = 0
        self.failed = 0

    def round(self, calibrate=False):
        """Run every invocation once.  Return the invocation times and, with
        `calibrate`, the mean of calibration slices taken before each
        invocation and after the last (else None)."""
        round_dir = os.path.join(self.base_dir, "round")
        shutil.rmtree(round_dir, ignore_errors=True)
        dirs, codes, times, slices = [], [], [], []
        for inv in self.invocations:
            if calibrate:
                slices.append(_calibration())
            out_dir = os.path.join(round_dir, inv.label.replace(":", "-"))
            argv = [inv.command, "--config", self.ini_paths[inv.model.name],
                    "--out-dir", out_dir, *inv.args]
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:   # a crash is a failed invocation
                code = f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t0)
            dirs.append(out_dir)
            codes.append(code)
        if calibrate:
            slices.append(_calibration())
        for inv, t in zip(self.invocations, times):
            self.by_label[inv.label].append(t)
        self._verify(dirs, codes)
        return times, (statistics.fmean(slices) if calibrate else None)

    def _verify(self, dirs, codes):
        outputs = [_outputs(d) for d in dirs]
        first = self.reference is None
        if first:
            self.reference = outputs
        for inv, out_dir, code, out, ref in zip(self.invocations, dirs, codes,
                                               outputs, self.reference):
            self.attempted += 1
            if code != 0:
                causes = [f"exit code {code}"]
            elif "report.json" not in out:
                causes = ["no report.json"]
            elif first:
                causes = inv.check(json.loads(out["report.json"]), out_dir)
            elif out != ref:
                causes = ["outputs differ from the first round"]
            else:
                causes = []
            self.failed += bool(causes)
            self.problems += [(inv.label, c) for c in causes]


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    args = _args(argv)
    if not os.path.isfile(os.path.join(SRC, "fibresplit", "cli.py")):
        print(f"no fibresplit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    env = _environment()
    rng = np.random.default_rng(args.seed)
    models, invocations = workloads.WORKLOADS[args.workload](rng)
    base_dir = os.path.join(
        OUT, f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    shutil.rmtree(base_dir, ignore_errors=True)
    os.makedirs(base_dir)
    try:
        return _run(args, env, models, invocations, base_dir)
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)
        try:
            os.rmdir(OUT)
        except OSError:
            pass


def _run(args, env, models, invocations, base_dir):
    from fibresplit import cli, config
    from fibresplit.exprs import VarContext, compile_field
    from fibresplit.jets import TapeField

    ini_paths = {}
    for model in models:
        path = os.path.join(base_dir, f"{model.name}.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(model.ini)
        ini_paths[model.name] = path

    import_times, compile_times = [], []

    def set_up():
        """One setup sample: a fresh import and a load+compile pass."""
        import_times.append(_import_seconds())
        t0 = time.perf_counter()
        built = [_build(config, m, ini_paths[m.name]) for m in models]
        compile_times.append(time.perf_counter() - t0)
        return built

    for _ in range(SETUP_REPEATS):
        built = set_up()

    runner = Runner(cli, invocations, ini_paths, base_dir)
    plain, traced, layer_rounds = [], [], []
    trc = tracer.Tracer()
    trace_problems = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        # traced rounds alternate sides so neither gets the cold first round
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        for traced_round in (order if args.trace else (False,)):
            if not traced_round:
                plain.append(runner.round(calibrate=True))
                continue
            trc.install()
            try:
                traced.append(runner.round()[0])
            finally:
                trc.uninstall()
            figures = trc.round_figures()
            trace_problems += tracer.self_check(args.workload, figures)
            layer_rounds.append(figures)
        step = time.perf_counter() - t0
        # setup samples spread over the run see the same machine as rounds
        built = set_up()
        # stop where the run ends closest to --seconds of measurement
        if time.perf_counter() - start + step / 2 >= args.seconds:
            break

    walls = [sum(times) for times, _ in plain]
    wall_cal = _median([sum(times) / cal for times, cal in plain])
    task_times = [t for times, _ in plain for t in times]
    task_cal = _median([t / cal for times, cal in plain for t in times])
    import_s = _median(import_times)
    compile_s = _median(compile_times)
    setup_s = import_s + compile_s

    seed_rng = np.random.default_rng(args.seed + 1)
    ctx = VarContext([("probe", ["a", "b", "c"])])
    fields = _tape_fields(built, TapeField) + [
        compile_field(src, ctx) for src in ORACLE_PROBES]
    oracle_problems, oracle_points = _oracle(fields, seed_rng)
    closed_problems, closed_points = _closed_form(models, built, seed_rng)

    problems = list(runner.problems)
    problems += [("oracle", p) for p in oracle_problems]
    problems += [("closed-form", p) for p in closed_problems]
    attempted = runner.attempted + oracle_points + closed_points
    failed = runner.failed + len(oracle_problems) + len(closed_problems)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} rounds={len(plain) + len(traced)} "
          f"invocations/round={len(invocations)} models={len(models)} "
          f"compiled fields={len(fields)}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"failed_frac  {failed / attempted:.6f}  ({failed} failed of "
          f"{attempted} attempted: {runner.attempted} invocations, "
          f"{oracle_points} oracle points, {closed_points} closed-form "
          f"points)")
    for label, times in runner.by_label.items():
        print(f"  {label:<28} median {_median(times):.4f} s over "
              f"{len(times)} calls")
    for label, cause in problems[:40]:
        print(f"FAILED {label}: {cause}")
    for cause in trace_problems[:40]:
        print(f"TRACE CHECK {cause}")

    if args.trace:
        self_times = {
            name: _median([r[name + ".self_s"] for r in layer_rounds])
            for name in tracer.SELF}
        overhead = _median([sum(t) for t in traced]) - _median(walls)
        metrics = tracer.layer_metrics(layer_rounds[0], self_times, overhead)
        print(f"traced rounds {len(traced)}, spans/round "
              f"{layer_rounds[0]['spans']}, untraced round "
              f"{_median(walls):.4f} s, traced round "
              f"{_median([sum(t) for t in traced]):.4f} s")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_cal": (wall_cal, "cal"),
            "task_p50_cal": (task_cal, "cal"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        cal_s = _median([cal for _, cal in plain])
        print(f"setup_s      {setup_s:.4f} s  (import {import_s:.4f} s and "
              f"load+compile {compile_s:.4f} s, medians of "
              f"{len(import_times)})")
        print(f"wall_s       {_median(walls):.4f} s  (median of {len(walls)} "
              f"rounds: {' '.join(f'{t:.3f}' for t in walls)})")
        print(f"task_p50_s   {_median(task_times):.4f} s  (median of "
              f"{len(task_times)} invocations)")
        print(f"calibration  {cal_s:.5f} s  (median of {len(plain)} rounds' "
              f"slice means)")
        print(f"wall_cal     {wall_cal:.2f} cal  (median of round time / "
              f"calibration, {len(plain)} rounds)")
        print(f"task_p50_cal {task_cal:.3f} cal  (median of "
              f"{len(task_times)} invocations)")
        print(f"peak_rss_mb  {rss_mb:.1f} MB")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name:<36} {value:.6g} {unit}")
    correct = failed == 0 and not trace_problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
