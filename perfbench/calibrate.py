"""A machine-speed index, measured beside every timed slice.

The boxes this runs on are shared: their speed drops by 20-45 % for
seconds to minutes at a time, whatever the benchmark does (README,
"Estimator", has the measurements).  No statistic of a 20-second run
can average out a slow phase that lasts longer than the run, so every
wall-clock interval is divided by how fast the box was *while it was
measured*: a fixed kernel runs between the timed slices, and
``kernel time / REFERENCE_S`` is the speed index of that moment.

The kernel must slow down under contention the way the program does,
and must not share code with it (or a faster program would cancel
itself out).  A tight arithmetic loop does not qualify -- it stays in
L1 and slows by a third of what the editors do.  This one allocates
small objects, pushes and pops a heap, fills and empties a dict, slices
a string, and then reads and replaces objects at random in a pool too
large for the L2 cache: the mix the editors are made of.  Against it, the
run-to-run spread of a 25-second block fell from 8-10 % to 1-3 % on the
simulator and the TCP rig alike.
"""

from __future__ import annotations

import gc
import heapq
import random
from time import perf_counter
from typing import Sequence

# The kernel's time on the box that cut results/baseline.json, in a quiet
# phase.  Calibrated numbers read as "on that box, undisturbed".
REFERENCE_S = 5.0e-3

CHURN = 1500
POOL_SIZE = 60_000
POOL_READS = 4000


class _Node:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: str, c: tuple[int, int]) -> None:
        self.a = a
        self.b = b
        self.c = c


class Kernel:
    """Call it for one sample: seconds the fixed kernel took, right now."""

    def __init__(self) -> None:
        self._pool = [_Node(i, str(i), (i, i)) for i in range(POOL_SIZE)]
        rng = random.Random(2)
        self._reads = [rng.randrange(POOL_SIZE) for _ in range(POOL_READS)]

    def __call__(self) -> float:
        # No collection may run inside the kernel: its cost grows with the
        # program's heap, and the index must not depend on the program.
        # Everything allocated here is acyclic and freed by refcount.
        collecting = gc.isenabled()
        gc.disable()
        try:
            return self._run()
        finally:
            if collecting:
                gc.enable()

    def _run(self) -> float:
        start = perf_counter()
        heap: list[tuple[int, int, _Node]] = []
        index: dict[str, _Node] = {}
        text = "The quick brown fox jumps over the lazy dog."
        for i in range(CHURN):
            node = _Node(i, str(i), (i, i + 1))
            heapq.heappush(heap, (i * 7919 % 1000, i, node))
            index[node.b] = node
            text = text[: i % 40] + "x" + text[i % 40:]
            if len(text) > 200:
                text = text[:50]
        while heap:
            index.pop(heapq.heappop(heap)[2].b)
        pool = self._pool
        total = 0
        for j, i in enumerate(self._reads):
            node = pool[i]
            total += node.a + len(node.b)
            pool[i] = _Node(node.a + 1, node.b, (j, total))
        return perf_counter() - start


def slice_indexes(kernel_s: Sequence[float]) -> list[float]:
    """The speed index around each timed slice: ``kernel_s`` has one
    sample before every slice and one after the last."""
    return [(before + after) / (2.0 * REFERENCE_S)
            for before, after in zip(kernel_s, kernel_s[1:])]


def calibrated_s(slices_s: Sequence[float], indexes: Sequence[float]) -> float:
    """Total of ``slices_s``, each divided by the speed index around it."""
    if len(indexes) != len(slices_s):
        raise ValueError("need one kernel sample on each side of every slice")
    return sum(elapsed / index for elapsed, index in zip(slices_s, indexes))
