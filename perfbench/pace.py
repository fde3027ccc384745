"""The machine's current speed, from fixed reference work that uses nothing of plectic.

Other tenants of a shared virtual machine slow it by 1.5 to 1.9 times, in
stretches of seconds to minutes, often longer than a run (see NOTES.md,
"Run shape and steadiness").  A timed operation is scaled by a reference's
nominal time over its time measured while the operation ran, so it reads
as it would on a machine where the reference takes its nominal time.  A
change to plectic changes the operations, not the references.

Work of different kinds slows by different amounts, so there are two
references.  In-process operations are scaled by ``reference()``, an exact
computation of the kind plectic does (a ``Fraction`` elimination and a
dict-of-monomials product), sampled by ``Meter``.  Process starts (CLI
calls, the import in a set-up) are scaled by ``process_reference_s()``, a
fresh interpreter that imports a fixed set of standard modules, sampled by
``ProcessMeter``.  In a slowed stretch the first slows by about 1.7x, the
second by about 1.3x, as a CLI call does.
"""
import signal
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

# The reference's time on a 2.1 GHz Xeon vCPU when other tenants leave it
# alone (1.4-1.5 ms); slowed stretches read 2.3-2.8 ms.
NOMINAL_S = 0.0015
INTERVAL_S = 0.1  # seconds between two samples of the reference
REPEATS = 3  # the reference's time is its best of this many runs
# The process reference on the same machine: 55-65 ms unhindered, 75-85 ms
# in slowed stretches.
PROCESS_NOMINAL_S = 0.06
PROCESS_REFERENCE = ("-I", "-c", "import argparse, dataclasses, fractions, json, re")


def reference():
    n = 7
    a = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    poly = {(i, j % 3): Fraction(i - j, 3) for i in range(6) for j in range(6)}
    square = {}
    for (i1, j1), v1 in poly.items():
        for (i2, j2), v2 in poly.items():
            key = (i1 + i2, j1 + j2)
            square[key] = square.get(key, 0) + v1 * v2
    return a, square


def reference_s(repeats=REPEATS):
    """The reference's best time over ``repeats`` runs, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        reference()
        best = min(best, perf_counter() - t0)
    return best


class Meter:
    """Samples the reference every INTERVAL_S, also in the middle of an operation.

    A timer signal (SIGALRM) runs the reference between two bytecodes of
    whatever is running, so a long operation is scaled by the speed the
    machine had while it ran, not only just before it.  The seconds the
    samples take are left out of the operation's time.  Use as a context
    manager around the timed passes.
    """

    def __init__(self):
        self.samples = []  # reference seconds, in the order measured
        self.spent = 0.0   # seconds spent sampling
        self._old = None

    def _sample(self, _signum=None, _frame=None):
        t0 = perf_counter()
        self.samples.append(reference_s())
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def start(self):
        """Start an operation's clock."""
        return len(self.samples), self.spent, perf_counter()

    def stop(self, mark):
        """The operation's seconds since ``start``, without sampling, at NOMINAL_S speed.

        The speed is the mean of the last sample before the operation and
        every sample taken during it.
        """
        end = perf_counter()
        n, spent, start = mark
        refs = self.samples[n - 1:]
        return (end - start - (self.spent - spent)) * NOMINAL_S * len(refs) / sum(refs)


def process_reference_s():
    """Seconds from launch to exit of a fresh interpreter running PROCESS_REFERENCE."""
    t0 = perf_counter()
    subprocess.run([sys.executable, *PROCESS_REFERENCE], check=True)
    return perf_counter() - t0


class ProcessMeter:
    """Samples the process reference before and after each operation.

    An operation's scale is PROCESS_NOMINAL_S over the mean of the two; the
    sample after one operation is the sample before the next when that
    starts at once.
    """

    FRESH_S = 0.05  # a sample this recent counts as taken just before

    def __init__(self):
        self.samples = []  # reference seconds, in the order measured
        self._taken_at = None

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        pass

    def _sample(self):
        self.samples.append(process_reference_s())
        self._taken_at = perf_counter()

    def start(self):
        """Start an operation's clock."""
        if self._taken_at is None or perf_counter() - self._taken_at > self.FRESH_S:
            self._sample()
        return len(self.samples), perf_counter()

    def stop(self, mark):
        """The operation's seconds since ``start``, at PROCESS_NOMINAL_S speed."""
        seconds = perf_counter() - mark[1]
        return seconds * self.scale(mark)

    def scale(self, mark):
        """PROCESS_NOMINAL_S over the mean of the samples before and after ``mark``."""
        self._sample()
        refs = self.samples[mark[0] - 1:]
        return PROCESS_NOMINAL_S * len(refs) / sum(refs)
