"""Gauges the machine's current speed while a timed interval runs.

On a shared host the speed of one core can change by a factor of two
within seconds or minutes, for reasons outside the process (other tenants,
clock changes), while process CPU time stays equal to wall time.  A
``Gauge`` therefore interrupts the timed work every ``PERIOD_S`` seconds
(SIGALRM) to run a small fixed kernel, and reports the interval's time
scaled to the reference speed, at which one kernel run takes ``REF_S``
seconds.  The kernel imports nothing from fullerkit, so no change to the
program can move it; it does the same kind of interpreter work the program
does (BFS words over a cubic rotation system: small lists, tuples, bytes).
Time spent in the kernel is not counted in the interval.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, Sequence, Tuple

PERIOD_S = 0.05     # seconds between kernel runs
REF_S = 0.002       # seconds one kernel run takes at the reference speed
ROOTS = 16          # BFS words per kernel run


def _honeycomb(rows: int, cols: int) -> List[Tuple[int, int, int]]:
    """Rotation system of a honeycomb on a torus: three neighbours per vertex."""
    def v(r: int, c: int) -> int:
        return (r % rows) * cols + (c % cols)
    rot = []
    for r in range(rows):
        for c in range(cols):
            if (r + c) % 2 == 0:
                rot.append((v(r, c + 1), v(r, c - 1), v(r + 1, c)))
            else:
                rot.append((v(r, c - 1), v(r, c + 1), v(r - 1, c)))
    return rot


ROT = _honeycomb(14, 16)


def _bfs_word(rot: Sequence[Tuple[int, int, int]], root: int,
              slot: int) -> bytes:
    n = len(rot)
    label = [-1] * n
    label[root] = 0
    start = [0] * n
    start[root] = slot
    order = [root]
    word = bytearray()
    pos = 0
    nxt = 1
    while pos < len(order):
        v = order[pos]
        pos += 1
        nbrs = rot[v]
        s = start[v]
        for i in (s, (s + 1) % 3, (s + 2) % 3):
            w = nbrs[i]
            if label[w] < 0:
                label[w] = nxt
                nxt += 1
                start[w] = rot[w].index(v)
                order.append(w)
            word.append(label[w])
    return bytes(word)


def kernel() -> bytes:
    """One fixed unit of interpreter work; returns the least word."""
    step = len(ROT) // ROOTS
    return min(_bfs_word(ROT, v, v % 3) for v in range(0, len(ROT), step))


class Gauge:
    """Times intervals and the machine's speed during them.

    ``with gauge:`` times one interval; afterwards ``raw_s`` is its wall
    time less the kernel runs, ``factor`` the mean of ``REF_S`` over each
    kernel run's time, and ``scaled_s`` their product: the interval's time
    at the reference speed.  ``scale`` does the same for a part of the
    last interval.  Intervals of a gauge must not nest.
    """

    def __init__(self) -> None:
        self._times: List[float] = []       # work clock at each kernel run
        self._samples: List[float] = []     # seconds each kernel run took
        self._spent = 0.0
        self._busy = False
        self.raw_s = 0.0
        self.factor = 1.0

    @property
    def scaled_s(self) -> float:
        return self.raw_s * self.factor

    def clock(self) -> float:
        """Seconds, less the kernel runs of the current interval."""
        return time.perf_counter() - self._spent

    def scale(self, t0: float, t1: float) -> float:
        """Seconds from ``t0`` to ``t1`` of the work clock, within the last
        interval, at the reference speed: scaled by the kernel runs made
        between them and the nearest one on either side."""
        lo = max(0, bisect.bisect_right(self._times, t0) - 1)
        hi = bisect.bisect_left(self._times, t1) + 1
        return (t1 - t0) * statistics.fmean(
            REF_S / s for s in self._samples[lo:hi])

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self._times.append(t0 - self._spent)
        self._samples.append(t1 - t0)
        self._spent += time.perf_counter() - t0
        self._busy = False

    def __enter__(self) -> "Gauge":
        self._times, self._samples, self._spent = [], [], 0.0
        self._tick(None, None)      # at least one reading, even for a blink
        self._spent = 0.0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.raw_s = t1 - self._t0 - self._spent
        self.factor = statistics.fmean(REF_S / s for s in self._samples)
