"""Host speed, measured with a fixed pure-Python kernel.

A shared machine changes speed by tens of percent, and at times twofold,
from one stretch of seconds to the next, as other tenants come and go.
The worker runs this kernel between package calls, at least once a
second, and scales each call's latency to a host on which the kernel
takes REFERENCE_S, using the calibrations just before and just after
the call.  The unscaled figures are reported next to the scaled ones.
"""

from __future__ import annotations

import heapq
import math
import time

#: Seconds the kernel takes on the reference host.  It sets the unit of
#: the scaled timings; it is close to this kernel's usual time on a
#: 2-core x86_64 VM with Python 3.11.
REFERENCE_S = 0.1

#: Most seconds between two calibrations.
EVERY_S = 1.0

_REPEATS = 50
_GRID = 24


def _sweep() -> int:
    """Dijkstra over a weighted torus grid: tuples, dicts and a heap, the
    operations the package's searches are made of."""
    dist = {(0, 0): 0.0}
    heap = [(0.0, 0, 0)]
    while heap:
        d, x, y = heapq.heappop(heap)
        if d > dist[(x, y)]:
            continue
        for nx, ny in (((x + 1) % _GRID, y), ((x - 1) % _GRID, y), (x, (y + 1) % _GRID), (x, (y - 1) % _GRID)):
            nd = d + 1.0 + ((nx * 7 + ny * 13) % 5) * 0.1
            if nd < dist.get((nx, ny), math.inf):
                dist[(nx, ny)] = nd
                heapq.heappush(heap, (nd, nx, ny))
    return len(dist)


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    for _ in range(_REPEATS):
        _sweep()
    return time.perf_counter() - t0


class HostClock:
    """Calibrations taken during one pass, and the scale they give."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = -math.inf

    def tick(self, force: bool = False) -> int:
        """Calibrate if one is due; the index of the latest calibration."""
        if force or time.perf_counter() - self._last >= EVERY_S:
            s = kernel_seconds()
            self.samples.append(s)
            self.spent += s
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def factor(self, i: int) -> float:
        """Scale for a call made between calibrations i and i + 1."""
        after = self.samples[min(i + 1, len(self.samples) - 1)]
        return REFERENCE_S / (0.5 * (self.samples[i] + after))

    def pass_factor(self) -> float:
        return REFERENCE_S / sorted(self.samples)[len(self.samples) // 2]
