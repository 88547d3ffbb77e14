"""A fixed reference computation that measures the machine's current speed.

On a shared host, the speed of one core drifts by up to about 45% in phases
of a minute or more; a fixed workload's wall time swings with it.  The
benchmark times this loop right before and right after each draw and scales
the draw's wall times by REFERENCE_NOMINAL_S / (mean of the two), so the
end-to-end times read as seconds on a machine where this loop takes
REFERENCE_NOMINAL_S.  The loop is plain-Python Dijkstra over adjacency lists
of tuples with a dict of settled nodes and a heapq frontier, the same kind of
work as the program's hot loops, so it slows down when they do.  It uses no
program code, so no change to the program can move it.
"""

from __future__ import annotations

import heapq
import random
import time

# The loop's time on the machine the benchmark was calibrated on (2-core
# Intel Xeon VM, Python 3.11); it only sets the scale of the reported times.
REFERENCE_NOMINAL_S = 0.1

_N, _DEG, _SOURCES = 2000, 4, 20


def _graph() -> list[list[tuple[int, float]]]:
    rng = random.Random(20141024)  # fixed: the reference never depends on --seed
    return [[(rng.randrange(_N), rng.expovariate(1.0)) for _ in range(_DEG)] for _ in range(_N)]


_ADJ = _graph()


def _settled(src: int) -> int:
    dist: dict[int, float] = {}
    heap = [(0.0, src)]
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        d, u = pop(heap)
        if u in dist:
            continue
        dist[u] = d
        for v, w in _ADJ[u]:
            if v not in dist:
                push(heap, (d + w, v))
    return len(dist)


def reference_seconds() -> float:
    """Wall time of one pass of the reference loop."""
    t0 = time.perf_counter()
    for src in range(_SOURCES):
        _settled(src)
    return time.perf_counter() - t0
