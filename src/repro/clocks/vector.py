"""Full vector clocks (Fidge 1988 / Mattern 1989).

These are the ground-truth instrument of the reproduction: the
compressed scheme's every concurrency verdict is checked against plain
vector-clock comparison (paper formula 3) in the test suite.

The implementation keeps clocks as immutable ``tuple[int, ...]`` wrapped
in a small value class; bulk comparisons used by the benchmarks are
vectorised with numpy in :func:`bulk_concurrent`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class Ordering(enum.Enum):
    """Result of comparing two vector clocks."""

    BEFORE = "before"  # a happened-before b
    AFTER = "after"  # b happened-before a
    CONCURRENT = "concurrent"
    EQUAL = "equal"


@dataclass(frozen=True)
class VectorClock:
    """An immutable N-element vector clock.

    ``clock[i]`` counts the events of process ``i`` known to the holder.
    Processes are identified by 0-based index into the vector.
    """

    counts: tuple[int, ...]

    @classmethod
    def zero(cls, n: int) -> "VectorClock":
        """The initial clock for a system of ``n`` processes."""
        if n <= 0:
            raise ValueError(f"system size must be positive, got {n}")
        return cls((0,) * n)

    @classmethod
    def of(cls, counts: Iterable[int]) -> "VectorClock":
        counts = tuple(counts)
        if any(c < 0 for c in counts):
            raise ValueError(f"vector clock entries must be >= 0: {counts}")
        return cls(counts)

    def __post_init__(self) -> None:
        if not self.counts:
            raise ValueError("vector clock must have at least one entry")

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, i: int) -> int:
        return self.counts[i]

    def tick(self, process: int) -> "VectorClock":
        """Advance ``process``'s own component by one (a local event)."""
        if not 0 <= process < len(self.counts):
            raise IndexError(f"process {process} out of range for size {len(self.counts)}")
        counts = list(self.counts)
        counts[process] += 1
        return VectorClock(tuple(counts))

    def merge(self, other: "VectorClock") -> "VectorClock":
        """Component-wise maximum (message receipt)."""
        self._check_size(other)
        return VectorClock(tuple(max(a, b) for a, b in zip(self.counts, other.counts)))

    def sum(self) -> int:
        """Total event count; strictly increases along causal edges."""
        return sum(self.counts)

    def dominates(self, other: "VectorClock") -> bool:
        """``self >= other`` component-wise."""
        self._check_size(other)
        return all(a >= b for a, b in zip(self.counts, other.counts))

    def _check_size(self, other: "VectorClock") -> None:
        if len(self.counts) != len(other.counts):
            raise ValueError(
                f"vector clock size mismatch: {len(self.counts)} vs {len(other.counts)}"
            )

    def size_bytes(self, int_width: int = 4) -> int:
        """Wire size when serialised as fixed-width integers."""
        return int_width * len(self.counts)

    def storage_ints(self) -> int:
        """Resident integers a site pays to hold this clock: N."""
        return len(self.counts)

    def __repr__(self) -> str:
        return f"VC{list(self.counts)}"


def compare(a: VectorClock, b: VectorClock) -> Ordering:
    """Full vector-clock comparison (the textbook partial order)."""
    a._check_size(b)
    a_le_b = True
    b_le_a = True
    for x, y in zip(a.counts, b.counts):
        if x > y:
            a_le_b = False
        if y > x:
            b_le_a = False
    if a_le_b and b_le_a:
        return Ordering.EQUAL
    if a_le_b:
        return Ordering.BEFORE
    if b_le_a:
        return Ordering.AFTER
    return Ordering.CONCURRENT


def happened_before(a: VectorClock, b: VectorClock) -> bool:
    """True iff ``a`` causally precedes ``b``."""
    return compare(a, b) is Ordering.BEFORE


def concurrent(a: VectorClock, b: VectorClock) -> bool:
    """True iff neither clock causally precedes the other."""
    return compare(a, b) is Ordering.CONCURRENT


def bulk_concurrent(clocks_a: Sequence[VectorClock], clocks_b: Sequence[VectorClock]) -> np.ndarray:
    """Vectorised pairwise concurrency check for equal-length sequences.

    Used by the CLAIM-CHECK benchmark to give the *full-vector* baseline
    its best shot (numpy broadcasting rather than a Python loop).
    """
    if len(clocks_a) != len(clocks_b):
        raise ValueError("sequences must have equal length")
    if not clocks_a:
        return np.zeros(0, dtype=bool)
    a = np.array([c.counts for c in clocks_a], dtype=np.int64)
    b = np.array([c.counts for c in clocks_b], dtype=np.int64)
    a_le_b = (a <= b).all(axis=1)
    b_le_a = (b <= a).all(axis=1)
    return ~(a_le_b | b_le_a)
