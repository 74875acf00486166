"""Host seconds calibrated to a reference speed.

The benchmark runs on shared machines whose speed drifts by tens of per
cent over minutes as other tenants come and go: on the 2-core Xeon it was
written on, the same crash pass took 190 ms in one minute and 350 ms a few
minutes later, in fresh processes alike.  A fixed pure-Python kernel slows
down with it (the ratio between the two stayed within a few per cent), so
the benchmark times the kernel between units of work, never inside one,
and scales every host interval by ``REF_S`` over the median kernel time
sampled near that interval.  The result is in seconds of a machine on which
the kernel takes ``REF_S``; raw host seconds are kept in the run record.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right
from collections import deque

# Kernel time on the machine the benchmark was written on, in a quiet
# minute.  It only sets the scale of the calibrated seconds.
REF_S = 0.024
WINDOW_S = 2.0   # samples this far from an interval calibrate it
BIN_S = 0.1


def reference_kernel() -> int:
    """Integer arithmetic, then dict and deque traffic: the two kinds of
    interpreter work the simulator does.  The pair tracked the workloads
    better than either half alone."""
    total = 0
    for i in range(130_000):
        total += i * i % 7
    table: dict[int, int] = {}
    queue: deque[tuple[int, int]] = deque()
    for i in range(26_000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = i
        queue.append((key, i))
        if len(queue) > 32:
            total += queue.popleft()[1]
        total += table.get(key ^ 1, 0)
    return total


class RefClock:
    def __init__(self, every_s: float = 0.5):
        self.every_s = every_s
        self.times: list[float] = []      # sample midpoints, ascending
        self.durations: list[float] = []
        self._bins: list[float] = []      # REF_S / kernel time, per BIN_S

    def sample(self, force: bool = True) -> None:
        """Time the kernel once; unless forced, only if ``every_s`` has
        passed since the last sample."""
        start = time.perf_counter()
        if not force and self.times and start - self.times[-1] < self.every_s:
            return
        reference_kernel()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.durations.append(end - start)
        self._bins = []

    def seconds(self, start: float, end: float, length: float | None = None) -> float:
        """Calibrated length of the host interval [start, end]; ``length``
        replaces ``end - start`` for work timed elsewhere in that interval."""
        if not self._bins:
            self._build()
        k = int(((start + end) / 2 - self.times[0]) / BIN_S)
        factor = self._bins[min(max(k, 0), len(self._bins) - 1)]
        return (end - start if length is None else length) * factor

    def _build(self) -> None:
        """Per bin, REF_S over the median of the samples within WINDOW_S of
        its centre, or of the nearest sample if none is that close."""
        if not self.times:
            raise RuntimeError("no reference sample taken")
        t0, times, durations = self.times[0], self.times, self.durations
        for k in range(int((times[-1] - t0) / BIN_S) + 1):
            centre = t0 + (k + 0.5) * BIN_S
            near = durations[bisect_left(times, centre - WINDOW_S):
                             bisect_right(times, centre + WINDOW_S)]
            if not near:
                i = min(range(len(times)), key=lambda j: abs(times[j] - centre))
                near = [durations[i]]
            self._bins.append(REF_S / statistics.median(near))
