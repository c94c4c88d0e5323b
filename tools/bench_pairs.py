"""Run the benchmark on a parent revision and on this checkout, in pairs.

    python tools/bench_pairs.py --parent REV --out BENCH_<pr>.json

The change side is the working tree holding this script.  The parent side
is REV, cloned from this repository into a temporary directory and checked
out there for the run, then removed.  Both sides run their own, unchanged
perfbench/run.py in a fresh process.

For each workload, pair i runs both sides at seed 11 + i with --trace 0;
even pairs run the parent first, odd pairs the change.  After the pairs,
each side makes one --trace 1 run at seed 1.  The output file holds each
run's exit code, env line, per-invocation median times and final JSON
line.  Per workload it summarises the pairs in which both runs succeeded
(exit 0 and a final JSON line): per end-to-end metric and side, the median
and quartiles, with the number of those pairs the change won (lower is
better for every metric) and whether that shows a gain, and each
invocation's median time; and per side, the number of runs that failed.
A gain is shown when the change wins at least 9 of the 10 pairs and its
median lies below the parent's by more than the parent's q3 - q1.
"""

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
END_TO_END = ("setup_s", "wall_cal", "task_p50_cal", "peak_rss_mb")
WORKLOADS = ("induced", "trajectories", "sweep")
PAIRS = 10       # alternating pairs per workload
GAIN_WINS = 9    # pairs the change must win to show a gain
SECONDS = 30     # perfbench --seconds, BENCHMARK.json's run_seconds
SEED0 = 11       # pair seeds, apart from TRACE_SEED
TRACE_SEED = 1   # the seed of the traced counts quoted in CHANGES.md
INVOCATION = re.compile(r"\s+(\S+)\s+median ([0-9.]+) s over")


def _git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                          text=True, check=True).stdout.strip()


def _run(tree, workload, seed, trace):
    """One perfbench run: its exit code, env line, invocations' median
    seconds and final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                         check=False)
    lines = res.stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines
                if line.startswith("env ")), None)
    invocations = {m[1]: float(m[2]) for m in map(INVOCATION.match, lines)
                   if m}
    try:
        final = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        final = None
    if res.returncode != 0 or final is None:
        sys.stderr.write(res.stdout + res.stderr)
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit": res.returncode, "env": env, "invocations": invocations,
            "result": final}


def _succeeded(run):
    return run["exit"] == 0 and run["result"] is not None


def _spread(values):
    if not values:
        return None
    q1, median, q3 = statistics.quantiles(  # one run is its own quartiles
        values * 2 if len(values) == 1 else values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def _gain_shown(parent, change, won):
    """Whether the change won GAIN_WINS pairs and beat the parent's median
    by more than the parent's interquartile range."""
    return (won >= GAIN_WINS and parent["median"] - change["median"]
            > parent["q3"] - parent["q1"])


def _summary(pairs):
    """Over the pairs whose two runs succeeded: per metric, each side's
    median and quartiles, the pairs the change won and whether it shows a
    gain; per invocation, each side's median time.  pairs maps each side
    to its runs in pair order."""
    both = [i for i, runs in enumerate(zip(pairs["parent"], pairs["change"]))
            if all(map(_succeeded, runs))]
    good = {side: [runs[i] for i in both] for side, runs in pairs.items()}
    out = {"pairs": len(both),
           "failed_runs": {side: sum(not _succeeded(run) for run in runs)
                           for side, runs in pairs.items()}}
    for name in END_TO_END:
        value = {side: [run["result"]["metrics"][name]["value"]
                        for run in runs]
                 for side, runs in good.items()}
        won = sum(c < p for p, c in zip(value["parent"], value["change"]))
        parent, change = _spread(value["parent"]), _spread(value["change"])
        out[name] = {"parent": parent, "change": change,
                     "change_lower_in_pairs": won,
                     "gain_shown": _gain_shown(parent, change, won)}
    labels = good["parent"][0]["invocations"] if both else {}
    out["invocation_median_s"] = {
        label: {side: statistics.median(run["invocations"][label]
                                        for run in runs
                                        if label in run["invocations"])
                for side, runs in good.items()}
        for label in labels}
    return out


def bench(parent_tree):
    trees = {"parent": parent_tree, "change": str(ROOT)}
    report = {}
    for workload in WORKLOADS:
        pairs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            for side in order:
                run = _run(trees[side], workload, SEED0 + i, 0)
                run["side"], run["pair"] = side, i
                pairs[side].append(run)
                print(f"{workload} pair {i} {side}: exit {run['exit']}",
                      flush=True)
        traced = [dict(_run(trees[side], workload, TRACE_SEED, 1),
                       side=side)
                  for side in ("parent", "change")]
        report[workload] = {"summary": _summary(pairs),
                            "runs": pairs["parent"] + pairs["change"],
                            "traced": traced}
    return report


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="parent git revision")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    parent_rev = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    header = {
        "script": "tools/bench_pairs.py",
        "settings": {"pairs": PAIRS, "seconds": SECONDS, "seed0": SEED0,
                     "trace_seed": TRACE_SEED},
        "parent": parent_rev,
        "change": _git("rev-parse", "HEAD"),
        "change_has_uncommitted_edits": bool(_git("status", "--porcelain",
                                                  "--", "src", "perfbench")),
    }
    tmp = tempfile.mkdtemp(prefix="bench-parent-")
    try:
        tree = str(Path(tmp) / "parent")
        _git("clone", "--quiet", "--no-checkout", str(ROOT), tree)
        _git("checkout", "--quiet", "--detach", parent_rev, cwd=tree)
        workloads = bench(tree)
    finally:
        shutil.rmtree(tmp)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(dict(header, workloads=workloads), fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
