"""Host-speed calibration: a fixed pure-Python kernel timed between points.

The benchmark runs on shared hosts whose speed drifts by up to ~2x over
seconds to minutes, as neighbours load the machine.  A fixed kernel timed
between every two points measures that speed at the moment each point ran,
and :func:`reference_seconds` rescales a point's host time to what it would
have been at the reference speed: the speed at which one kernel sample takes
:data:`REFERENCE_S`.

The kernel uses only the standard library, so no change to the simulator
can make it faster or slower.  Like the simulator it is interpreter-bound,
with random reads and writes over a working set of a few MB and a burst of
small allocations; the collector is off while it runs, so the size of the
simulator's heap does not reach it.  The kernel and :data:`REFERENCE_S` are
fixed: changing either rescales every reported time.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import List

#: one kernel sample's time at the reference speed (about that of a 2-vCPU
#: Xeon VM in its quiet phases)
REFERENCE_S = 0.040
#: arena cells the kernel reads and writes at random
ARENA_CELLS = 150_000
#: random arena reads and writes per sample
DRAWS = 30_000
#: small lists allocated per sample
ALLOCS = 2_500
#: the kernel's own RNG seed
KERNEL_SEED = 12345


class _Cell:
    __slots__ = ("key", "hits")

    def __init__(self, key: int, hits: int) -> None:
        self.key = key
        self.hits = hits


class HostSpeed:
    """Times the calibration kernel; keeps every sample it took."""

    def __init__(self) -> None:
        self._arena = [_Cell(i, 0) for i in range(ARENA_CELLS)]
        self.samples: List[float] = []

    def sample(self) -> float:
        """Run the kernel once; returns (and keeps) its host seconds."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _kernel(self._arena)
            elapsed = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.samples.append(elapsed)
        return elapsed

    def median(self) -> float:
        return float(statistics.median(self.samples))


def _kernel(arena: List[_Cell]) -> int:
    rng = random.Random(KERNEL_SEED)
    top = len(arena) - 1
    total = 0
    for _ in range(DRAWS):
        cell = arena[rng.randint(0, top)]
        total += cell.key
        cell.hits += 1
    buckets = {}
    for i in range(ALLOCS):
        buckets[i] = [_Cell(j, i) for j in range(4)]
    return total + len(buckets)


def reference_seconds(host_s: float, kernel_s: float) -> float:
    """``host_s`` measured while a kernel sample took ``kernel_s``, at the
    reference speed."""
    return host_s * REFERENCE_S / kernel_s
