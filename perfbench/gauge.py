"""A machine-speed gauge that puts timings on one reference scale.

On a shared machine the speed of one core drifts by up to 1.75x within
tens of seconds, as neighbours come and go. Semimatch slows down with
it, and a run's medians then say more about the neighbours than about
the code. The gauge times a fixed pure-Python kernel (Dijkstra with
``heapq`` over a fixed random graph: list, dict and integer work of the
kind the solvers do) between instances. It reports each instance's
times scaled by ``REFERENCE_S / kernel time``, averaged over the gauge
readings just before and just after the instance. The result is
"reference seconds": the time the instance would take on a machine where
the kernel takes exactly ``REFERENCE_S``. The kernel lives here, outside
the package, so no change to semimatch can move it.

One reading is noisy, so an instance's factor comes from the median of
the four readings around it: two before it and two after it. Garbage
collection is off during a reading, so a collection of the heap the
benchmark has built up is never charged to the kernel.
"""

from __future__ import annotations

import gc
import heapq
from random import Random
from statistics import median
from time import perf_counter, perf_counter_ns

REFERENCE_S = 0.010
INTERVAL_S = 0.25
NODES = 5000
DEGREE = 6


class Gauge:
    """Kernel readings taken at least ``INTERVAL_S`` apart.

    Call :meth:`tick` before each instance and keep what it returns;
    :meth:`factors` then takes a last reading and turns those marks into
    per-instance scale factors.
    """

    def __init__(self) -> None:
        rng = Random(20100416)
        self._adj = [
            [(rng.randrange(NODES), rng.randint(1, 100)) for _ in range(DEGREE)]
            for _ in range(NODES)
        ]
        self.readings: list[float] = []
        self._last = 0.0
        self.read()

    def _kernel(self) -> int:
        adj = self._adj
        dist = {0: 0}
        heap = [(0, 0)]
        done = set()
        while heap:
            d, x = heapq.heappop(heap)
            if x in done:
                continue
            done.add(x)
            for y, w in adj[x]:
                nd = d + w
                if nd < dist.get(y, nd + 1):
                    dist[y] = nd
                    heapq.heappush(heap, (nd, y))
        return len(done)

    def read(self) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter_ns()
            self._kernel()
            self.readings.append((perf_counter_ns() - start) / 1e9)
        finally:
            if collecting:
                gc.enable()
        self._last = perf_counter()

    def tick(self) -> int:
        """Read the gauge if ``INTERVAL_S`` has passed; return the mark
        (index of the latest reading) for the instance about to run."""
        if perf_counter() - self._last >= INTERVAL_S:
            self.read()
        return len(self.readings) - 1

    def factors(self, marks: list[int]) -> list[float]:
        """Scale factor of each marked instance, after two last readings."""
        self.read()
        self.read()
        r = self.readings
        return [REFERENCE_S / median(r[max(m - 1, 0) : m + 3]) for m in marks]

    def bracketed(self, seconds: float) -> float:
        """``seconds`` of a short step that ran right after the latest
        reading, in reference seconds: read again, then scale by the
        mean of the readings just before and just after the step."""
        self.read()
        return seconds * REFERENCE_S * 2 / (self.readings[-2] + self.readings[-1])
