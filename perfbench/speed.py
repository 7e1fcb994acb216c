"""The host's speed, sampled while the benchmark runs, and times scaled
to a reference speed.

On a shared 2-core x86-64 container host, a process runs at one of two
speeds that switch every few seconds: the same pure-Python work takes
1.0x or about 1.7x as long.  The process's CPU time moves with its wall
time, so neither clock sees the switch, and how much of a run falls in
the slow state changes from run to run (see README.md).

While a `Speed` is active, a SIGPROF timer interrupts the process every
INTERVAL seconds of CPU time and times a fixed pure-Python probe (about
80 us, so under 2% of the process's time).  An interval of work is then
converted to seconds at the reference speed, the speed at which the probe
takes REF_PROBE_S:

    scaled = (wall - probe time inside it) * REF_PROBE_S / mean probe time near it

where "near" is the interval widened by WINDOW on each side.  Same
process, same thread: the probe runs in the signal handler between
bytecodes of the code being measured.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction
from typing import List, NamedTuple

perf_counter = time.perf_counter

INTERVAL = 0.005
WINDOW = 0.02
# The probe's time (10th percentile) in a calm spell on a 2-core x86-64 (Xeon, 2.1 GHz)
# container under CPython 3.11; a constant, so scaled times of two runs
# compare as their raw times would at one speed.
REF_PROBE_S = 65e-6


def probe():
    """A fixed mix of the kinds of interpreter work dgdm does: a dict with
    tuple keys, Fraction sums with big numerators and denominators, and
    big-integer products and quotients."""
    table = {}
    for i in range(1, 100):
        key = (i % 37, i % 11, i % 5)
        table[key] = table.get(key, 0) + i
    total = Fraction(0)
    for i in range(1, 12):
        total += Fraction(3 ** 30 + i, 7 ** 12 + 2 * i)
    a, b, acc = 3 ** 200, 7 ** 150, 0
    for i in range(20):
        acc += (a * (b + i)) // (i + 1)
    return len(table), total, acc


class Interval(NamedTuple):
    start: float
    end: float
    seconds: float  # wall time minus the probe time inside it


class Speed:
    """Context manager: samples the probe while active and scales intervals."""

    def __init__(self):
        self.at: List[float] = []  # start of each sample
        self.took: List[float] = []  # its duration
        self.spent = 0.0  # total probe time so far

    def _sample(self, signum, frame):
        start = perf_counter()
        probe()
        took = perf_counter() - start
        self.at.append(start)
        self.took.append(took)
        self.spent += took

    def __enter__(self):
        self.previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self.previous)

    def mark(self):
        return perf_counter(), self.spent

    def since(self, mark) -> Interval:
        """The interval from `mark` to now, probe time taken out."""
        start, spent = mark
        end = perf_counter()
        return Interval(start, end, end - start - (self.spent - spent))

    def slowness(self, start: float, end: float) -> float:
        """Mean probe time near [start, end] over REF_PROBE_S; with no
        sample near, the nearest one."""
        a = bisect.bisect_left(self.at, start - WINDOW)
        b = bisect.bisect_right(self.at, end + WINDOW)
        took = self.took[a:b] or self.took[max(a - 1, 0):a + 1]
        return statistics.fmean(took) / REF_PROBE_S

    def scaled(self, interval: Interval) -> float:
        return interval.seconds / self.slowness(interval.start, interval.end)
