"""A fixed reference loop that measures how fast the host runs right now.

The benchmark's host is a shared virtual machine whose speed moves by up to
2x within minutes, for the benchmark and everything else alike.  A
``Pacer`` times passes of this loop before and after every operation the
benchmark times and, from a timer signal, every ``TICK_S`` seconds during
it; ``run.py`` reports each operation's time as a multiple of the median
pass, rescaled to seconds on a host where one pass takes
``REFERENCE_PASS_S``.  The loop mixes the kinds of work pettylab does
(interpreted Python, Python loops over numpy scalars, small qhull calls,
numpy calls on tiny arrays, and vectorised passes over an 8192-row array)
and uses numpy and scipy only, never pettylab, so a change to the program
cannot change it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.spatial import ConvexHull

# Seconds of one pass on the fixed-speed host that the paced times are
# given for: a round figure within the 13-22 ms that one pass took on a
# 2-vCPU Intel Xeon virtual machine as its speed moved.
REFERENCE_PASS_S = 0.020
# Passes timed before the first operation and after each operation.
PASSES = 3
# Period of the passes timed during an operation.
TICK_S = 0.5

_gen = np.random.default_rng(20250101)
_SMALL = [_gen.normal(size=(12, 3)) for _ in range(40)]
_NODES = _gen.normal(size=(8192, 3))
_COLUMNS = _gen.normal(size=(3, 64))
_CYCLE = _gen.normal(size=(6, 2))
_GRID = np.linspace(-1.0, 1.0, 12)


def _one_pass() -> float:
    t0 = time.perf_counter()
    acc = {}
    for i in range(20000):
        acc[i & 255] = acc.get(i & 255, 0.0) + i * 0.5
    hits = 0
    for x in _GRID:
        for y in _GRID:
            p = np.array([x, y])
            for i in range(len(_CYCLE)):
                a, b = _CYCLE[i], _CYCLE[(i + 1) % len(_CYCLE)]
                if (a[1] > p[1]) != (b[1] > p[1]):
                    hits += p[0] < a[0] + (p[1] - a[1]) / (b[1] - a[1]) * (b[0] - a[0])
    for P in _SMALL:
        ConvexHull(P)
        float(np.max(P @ P[0])) + float(np.linalg.norm(P.mean(axis=0)))
    for _ in range(4):
        float((_NODES @ _COLUMNS).max(axis=1).sum())
    return time.perf_counter() - t0


def block() -> list:
    """Seconds of each of ``PASSES`` passes of the loop."""
    return [_one_pass() for _ in range(PASSES)]


class Pacer:
    """Reference-loop passes around and during a sequence of operations.

    ``start`` arms a timer whose signal handler runs one pass every
    ``TICK_S`` seconds of the operation; the handler runs between Python
    bytecodes of the operation and touches none of its state.  ``halt``
    disarms it and returns the seconds the handler took, which the caller
    subtracts from the operation's time.  ``reference`` then times a block
    and returns the median pass over the block before the operation, the
    passes during it and the block after it."""

    def __init__(self):
        self.last = block()
        self.ticks: list = []
        self.busy = 0.0
        self._handler = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.ticks.append(_one_pass())
        self.busy += time.perf_counter() - t0

    def start(self):
        self.ticks, self.busy = [], 0.0
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def halt(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)
        return self.busy

    def reference(self) -> float:
        before, self.last = self.last, block()
        return statistics.median(before + self.ticks + self.last)
