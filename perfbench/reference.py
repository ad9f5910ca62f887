"""A fixed loop that times the machine, not the package.

desk-table's operations take milliseconds and spend them in the Python
interpreter and in numpy calls on small arrays; sparse-file's spend
theirs in the interpreter and in scipy's sparse kernels.  On the 2-core
Xeon virtual machine the benchmark was tuned on, such code ran up to 1.6
times slower for seconds to minutes at a time, whole runs included,
while other tenants of the host were busy; no statistic over one run's
own times removes that.  So those workloads time this loop between their
operations, about once per EVERY_S seconds, and divide each operation's
time by the loop's median time around it (``normalize``).  The loop uses
nothing from greedylsq, so a change to the package moves normalized and
measured times alike.  The runner prints the measured times too.

dense-large is not normalized: its solves wait on memory, and neither
this loop nor a product with a 40 MB matrix tracked them; divided by
either, its times spread more from run to run than measured ones.
"""
import bisect
import statistics
import time

import numpy as np

# Normalized times are given in seconds at a speed at which the loop takes
# this long; on the machine above its median took 1.6 to 2.6 ms.
NOMINAL_S = 0.002
# The loop is timed before an operation once per this many seconds gone
# by since it last ran, at most MAX_BURST times in a row.
EVERY_S = 0.1
MAX_BURST = 5
# An operation is divided by the loop's median over the loops timed this
# close to its midpoint, or over the NEAREST loops if fewer were.
WINDOW_S = 1.0
NEAREST = 5


class SpeedReference:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self.A = np.asfortranarray(rng.standard_normal((1000, 50)))
        self.x = rng.standard_normal(50)
        self.M = rng.standard_normal((20, 20)).tolist()
        self.samples = []  # seconds of each loop
        self.at = []  # midpoint of each loop on the perf_counter clock
        self._last = -float("inf")

    def _loop(self):
        # Greedy coordinate steps with numpy on a small dense matrix, as in
        # a desk-table solve.
        A = self.A
        r = A @ self.x
        for _ in range(100):
            g = A.T @ r
            j = int(np.argmax(np.abs(g)))
            a = A[:, j]
            r -= (float(a @ r) / float(a @ a)) * a
        # Plane rotations on lists of floats, as in the CLI's pure-Python
        # Jacobi eigenvalue routine.
        M = [row[:] for row in self.M]
        n = len(M)
        for p in range(n - 1):
            for q in range(p + 1, n):
                for row in M:
                    mp, mq = row[p], row[q]
                    row[p] = 0.8 * mp - 0.6 * mq
                    row[q] = 0.6 * mp + 0.8 * mq

    def maybe_run(self):
        """Time the loop once per EVERY_S gone by since it last ran."""
        gone = min(time.perf_counter() - self._last, MAX_BURST * EVERY_S)
        for _ in range(int(gone / EVERY_S)):
            t0 = time.perf_counter()
            self._loop()
            self._last = time.perf_counter()
            self.samples.append(self._last - t0)
            self.at.append((t0 + self._last) / 2)


def _level(reference_s, at, mid):
    """The loop's median near the time ``mid``."""
    lo, hi = bisect.bisect_left(at, mid - WINDOW_S), bisect.bisect_right(at, mid + WINDOW_S)
    if hi - lo < NEAREST:
        lo = hi = bisect.bisect_left(at, mid)
        while hi - lo < min(NEAREST, len(at)):
            if hi == len(at) or (lo > 0 and mid - at[lo - 1] < at[hi] - mid):
                lo -= 1
            else:
                hi += 1
    return statistics.median(reference_s[lo:hi])


def normalize(samples, mids, reference_s, at):
    """``samples`` (kind -> label -> seconds of each pass) with each time
    multiplied by NOMINAL_S over the loop's median near it; ``mids`` holds
    the midpoints of the timed operations in the same layout."""
    return {kind: {label: [t * NOMINAL_S / _level(reference_s, at, mid)
                           for t, mid in zip(times, mids[kind][label])]
                   for label, times in by_label.items()}
            for kind, by_label in samples.items()}
