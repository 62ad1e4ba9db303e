"""Calibration gauge: a fixed slice of exact rational work, interleaved
with the program being measured.

The benchmark host's speed drifts by tens of percent between runs (other
tenants, frequency scaling), so raw wall time cannot compare two commits.
The gauge runs a fixed slice of dict-of-Fraction sparse products from a
SIGALRM interval timer, so the slices land between the program's bytecodes
and see the same machine state the program sees.  From the slices:

    work time          = wall time - time spent in slices
    calibrated seconds = work time * REFERENCE_SLICE_S / mean slice duration

The mean slice duration, not the slice count, sets the scale, so a
program that blocks the main thread cannot shrink its own calibrated time.

This module imports nothing from the package under test, so no program
change can alter the slice's code.  The slice does share the process's
allocator and the CPU caches with the program, so the program's heap can
still move the slice time.  In nine rounds run interleaved on one host, the
median slice took 2.40 ms under audit, 2.56 ms under derive and 2.54 ms
under sample; the same-round ratio to audit ranged 0.89-1.20, so a
workload effect of a few percent could not be told apart from noise.  A
change that alters how much the program allocates, or how large its heap
is, may therefore shift its calibrated times by a few percent with no
change in its work.  Load this module before the package.
"""

import gc
import signal
import time
from fractions import Fraction

# Mean slice duration on the reference host (2-core x86-64 VM, CPython
# 3.11.7), measured once when the benchmark was defined.  Calibrated
# seconds are seconds on that host at that speed.  Never re-measure it:
# it fixes the unit every recorded baseline is written in.
REFERENCE_SLICE_S = 0.0022

INTERVAL_S = 0.02
_REPS = 3


def _operands():
    """Two fixed sparse polynomials in four variables, 12 terms each."""
    left, right = {}, {}
    for i in range(14):
        left[(i % 3, (7 * i) % 4, (5 * i) % 3, i % 2)] = Fraction((37 * i) % 17 - 8, i % 9 + 1)
        right[((3 * i) % 4, i % 2, (11 * i) % 3, (i + 1) % 3)] = Fraction((29 * i) % 13 - 6, i % 7 + 2)
    return left, right


def _slice(left, right):
    for _ in range(_REPS):
        prod = {}
        for e1, c1 in left.items():
            for e2, c2 in right.items():
                key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                s = prod.get(key, 0) + c1 * c2
                if s:
                    prod[key] = s
                else:
                    prod.pop(key, None)


class Gauge:
    """Cumulative slice time and count since start()."""

    def __init__(self):
        self.total_s = 0.0
        self.count = 0
        self._busy = False
        self._left, self._right = _operands()

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        # The cyclic collector stays off during a slice: a collection
        # started by the slice's allocations would scan the program's heap
        # and tie the gauge to the program's memory use.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _slice(self._left, self._right)
        self.total_s += time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.count += 1
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_slice_s(self) -> float:
        if not self.count:
            raise RuntimeError("no calibration slice ran; the measured phase is too short")
        return self.total_s / self.count

    def scale(self) -> float:
        """Factor that turns work seconds on this host, now, into calibrated seconds."""
        return REFERENCE_SLICE_S / self.mean_slice_s()
