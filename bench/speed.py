"""Scale measured times to a fixed reference speed of the host CPU.

The shared 2-CPU host this benchmark was built on changes speed by up to 2x
for tens of seconds at a time, with no steal time on its CPU, because other
tenants share the cores. Best-of-repeats timings of the same ops then moved
10-20% from run to run. So the bench times a fixed pure-Python kernel
between ops, and it scales each op's time by REFERENCE_S / (the kernel's
median time near that op). The kernel is bench code, so no change to gapforge
can change it. It uses the interpreter paths that gapforge's oracles use:
tuple iteration from itertools.product, dict counting, sorting and Fraction
comparison. On an idle core the kernel takes about REFERENCE_S, and the
scale is close to 1.
"""

from __future__ import annotations

import bisect
import itertools
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.003   # the kernel's time on an idle core of the build host
EVERY_S = 0.05        # probe after this much op time
WINDOW = 5            # probes on each side of an op that set its scale


def kernel():
    best = None
    for x in itertools.product(range(4), repeat=5):
        counts = {}
        for i in range(5):
            key = (x[i] * 3 + x[(i + 1) % 5]) & 7
            counts[key] = counts.get(key, 0) + 1
        value = Fraction(max(sorted(counts), key=counts.get), 7)
        if best is None or value > best:
            best = value
    return best


class Speedometer:
    """Probe times, kept in order, and the scale they give at a moment."""

    def __init__(self):
        self.times = []    # perf_counter() at each probe
        self.seconds = []  # the kernel's time at each probe
        self._since = EVERY_S

    def probe(self):
        start = time.perf_counter()
        kernel()
        self.times.append(start)
        self.seconds.append(time.perf_counter() - start)
        self._since = 0.0

    def tick(self, op_seconds):
        """Count op time; probe once EVERY_S of it has passed."""
        self._since += op_seconds
        if self._since >= EVERY_S:
            self.probe()

    def scale(self, at):
        """REFERENCE_S over the median kernel time of the probes nearest `at`."""
        j = bisect.bisect_left(self.times, at)
        return REFERENCE_S / statistics.median(self.seconds[max(0, j - WINDOW):j + WINDOW])
