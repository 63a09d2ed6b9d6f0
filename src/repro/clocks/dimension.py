"""The Charron-Bost dimension bound, demonstrated executably.

The paper's Section 1 leans on Charron-Bost (IPL 1991): "the causality
relationship among N communicating processes has in general dimension
N, which induces a lower bound on the size of vector clocks."  The
paper's escape is to *change the relation* (via transformation), not to
beat the bound.

This module makes the bound concrete:

* :func:`crown_execution` builds the standard worst-case computation
  (the "crown" S_N): N processes, each sending one message to every
  other process such that ``send_i -> recv_j`` for all ``j != i`` while
  the sends are pairwise concurrent.  The induced order contains the
  crown poset, whose order dimension is N.
* :func:`projection_is_faithful` checks whether restricting the events'
  full vector timestamps to a subset of coordinates still decides
  happened-before correctly.
* :func:`min_faithful_projection_size` searches all coordinate subsets:
  for the crown over N processes the answer is exactly N -- dropping any
  coordinate breaks some verdict.  The test suite verifies this for
  N = 2..6, and verifies that the *star editor's redefined* computation
  is decidable with 2 coordinates (the paper's whole point).
"""

from __future__ import annotations

from itertools import combinations

from repro.clocks.vector import VectorClock


def crown_execution(n: int) -> tuple[dict[str, VectorClock], dict[str, int]]:
    """The crown computation over ``n`` processes.

    Each process ``i`` performs a send event ``s_i`` (its first event)
    and then receives every other process's message (``r_i`` after all
    receipts).  Then ``s_i -> r_j`` for every ``j != i`` but
    ``s_i || s_j`` and ``r_i || r_j`` -- the crown S_n.

    Returns ``(clocks, sites)``: full vector timestamps and originating
    process for events ``s0..s{n-1}, r0..r{n-1}``.
    """
    if n < 2:
        raise ValueError("the crown needs at least two processes")
    clocks: dict[str, VectorClock] = {}
    sites: dict[str, int] = {}
    sends = []
    for i in range(n):
        vc = VectorClock.zero(n).tick(i)
        clocks[f"s{i}"] = vc
        sites[f"s{i}"] = i
        sends.append(vc)
    for i in range(n):
        # r_i: process i has received every other process's send
        vc = clocks[f"s{i}"]
        for j in range(n):
            if j != i:
                vc = vc.merge(sends[j])
        vc = vc.tick(i)
        clocks[f"r{i}"] = vc
        sites[f"r{i}"] = i
    return clocks, sites


def _hb_projected(
    a: VectorClock, b: VectorClock, coords: tuple[int, ...]
) -> bool:
    """Happened-before decided only from the selected coordinates."""
    a_le_b = all(a[c] <= b[c] for c in coords)
    b_le_a = all(b[c] <= a[c] for c in coords)
    return a_le_b and not b_le_a


def projection_is_faithful(
    clocks: dict[str, VectorClock], coords: tuple[int, ...]
) -> bool:
    """True iff the projected comparison decides every pair correctly."""
    names = list(clocks)
    for x in names:
        for y in names:
            if x == y:
                continue
            full = _hb_projected(clocks[x], clocks[y], tuple(range(len(clocks[x]))))
            projected = _hb_projected(clocks[x], clocks[y], coords)
            if full != projected:
                return False
    return True


def min_faithful_projection_size(clocks: dict[str, VectorClock]) -> int:
    """Smallest number of vector coordinates that still decides causality.

    Exhaustive over coordinate subsets -- fine for the demonstration
    sizes (N <= 8).
    """
    if not clocks:
        raise ValueError("need at least one event")
    n = len(next(iter(clocks.values())))
    for k in range(1, n + 1):
        for coords in combinations(range(n), k):
            if projection_is_faithful(clocks, coords):
                return k
    return n
