"""Host-speed calibration for the end-to-end benchmark.

On a shared host the speed of one core wanders by tens of percent over
seconds, and bursts of contention slow it by up to 1.7x for a second or
two.  A sample that runs through such a burst is slower for reasons that
have nothing to do with the program.  A fixed slice of simulator-shaped
work (heap churn, dict updates and small numpy passes) measures the host's
speed at one moment; :class:`Speedometer` runs one every ``INTERVAL_S``
while a sample runs, from a timer signal, and the sample's seconds are
rescaled by the mean slice time to seconds at the reference speed.  The
slices are the benchmark's own code, so no change to ``repro`` can move
them, and the time they take is left out of the sample.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time

# Seconds one slice takes at the reference speed (a 2-vCPU x86-64 VM
# running CPython 3.11); rescaled seconds are seconds on that host.
REFERENCE_S = 0.0009

INTERVAL_S = 0.1


def _slice() -> float:
    import numpy as np

    # A collection of the simulator's heap must not land inside a slice:
    # it would take tens of slices' time and say nothing about the host.
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        heap, table = [], {}
        for i in range(2000):
            heapq.heappush(heap, (i * 2654435761) & 0xFFFF)
            table[i & 255] = i
        while heap:
            heapq.heappop(heap)
        values = np.arange(2048, dtype=float)
        for _ in range(30):
            values = values * 1.0000001
            float(values[:512].sum())
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def calibrate() -> float:
    """Mean seconds of ten slices taken back to back."""
    return statistics.fmean(_slice() for _ in range(10))


class Speedometer:
    """Samples the host speed while the ``with`` block runs.

    ``paused`` is the time the block spent inside slices; ``on_pause`` is
    told each pause so that open trace spans can leave it out too.
    """

    def __init__(self, on_pause=None):
        self.on_pause = on_pause
        self.slices = []
        self.paused = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        self.slices.append(_slice())
        pause = time.perf_counter() - started
        self.paused += pause
        if self.on_pause is not None:
            self.on_pause(pause)

    def __enter__(self) -> "Speedometer":
        self.slices = [_slice()]
        self.paused = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.slices.append(_slice())

    def rescale(self, seconds: float) -> float:
        """``seconds`` measured in the block, at the reference speed."""
        return seconds * REFERENCE_S / statistics.fmean(self.slices)
