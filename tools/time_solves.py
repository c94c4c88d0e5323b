"""Per-call cost of chart-sized dense solves, against numpy.

    python tools/time_solves.py

For k = 1..8 it times, on one seeded, well-conditioned k x k system
with a 1-D right-hand side:

  linear_solve     fibresplit.numerics.linear_solve(A, b), A and b arrays
  rows             the same fed A as a list of row lists and b as a list
                   of floats, as the right-hand sides pass them
  np.solve         np.linalg.solve(A, b)
  np.solve+cond    np.linalg.solve(A, b) and np.linalg.cond(A)
  generate         the one-time cost of generating and compiling the
                   k x k, one-right-hand-side solve kernel, in ms

Each per-call figure is in microseconds, the best of 30 slices of about
10 ms; the slices of the four routes alternate, so that all four see
the same drift in machine speed.  The generation cost is the best of 30
fresh generations.  BLAS runs on one thread unless
OPENBLAS_NUM_THREADS is set.
"""

import os
import sys
import time
import timeit
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from fibresplit import numerics  # noqa: E402

KMAX = 8
REPEAT = 30
SLICE_S = 0.01


def _best_us(fns):
    """Best per-call time of each function, in alternating slices."""
    timers = [timeit.Timer(fn) for fn in fns]
    numbers = []
    for timer in timers:
        n, t = timer.autorange()
        numbers.append(max(1, int(n * SLICE_S / t)))
    best = [float("inf")] * len(fns)
    for _ in range(REPEAT):
        for i, (timer, n) in enumerate(zip(timers, numbers)):
            best[i] = min(best[i], timer.timeit(n) / n)
    return [t * 1e6 for t in best]


def _generate_ms(k):
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        numerics._solver.__wrapped__(k, 1)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def main():
    rng = np.random.default_rng(0)
    print(f"{'k':>2} {'linear_solve':>13} {'rows':>6} {'np.solve':>9} "
          f"{'np.solve+cond':>14} {'generate':>9}")
    print(f"{'':>2} {'us':>13} {'us':>6} {'us':>9} {'us':>14} {'ms':>9}")
    for k in range(1, KMAX + 1):
        A = rng.uniform(-1.0, 1.0, (k, k)) + 2.0 * np.eye(k)
        b = rng.uniform(-1.0, 1.0, k)
        A_rows, b_list = A.tolist(), b.tolist()

        def ours():
            numerics.linear_solve(A, b)

        def ours_rows():
            numerics.linear_solve(A_rows, b_list)

        def lapack():
            np.linalg.solve(A, b)

        def lapack_cond():
            np.linalg.solve(A, b)
            np.linalg.cond(A)

        ours()
        us = _best_us([ours, ours_rows, lapack, lapack_cond])
        print(f"{k:>2} {us[0]:>13.1f} {us[1]:>6.1f} {us[2]:>9.1f} "
              f"{us[3]:>14.1f} {_generate_ms(k):>9.2f}")


if __name__ == "__main__":
    main()
