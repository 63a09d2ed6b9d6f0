"""Timestamp value types for the compressed scheme.

Two timestamp shapes exist in the system (paper Section 3.3):

* :class:`CompressedTimestamp` -- two integers, the only shape ever sent
  on the wire.  For an operation generated at client ``i`` the elements
  mean ``[ops received from site 0, ops generated at i]``; for an
  operation propagated by the notifier to destination ``d`` they mean
  ``[ops sent to d, ops received from d]``.
* :class:`FullTimestamp` -- an N-element snapshot of ``SV_0``, used
  *only* to timestamp operations buffered in the notifier's history
  buffer (never transmitted); it is re-compressed per remote source at
  concurrency-check time (formula 6/7).

:class:`OriginKind` records which side of the star an HB entry came
from, which selects the comparison element in formula (5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OriginKind(enum.Enum):
    """Provenance of a history-buffer entry, relative to the local site."""

    FROM_CENTER = "from-center"  # propagated by the notifier (y = 1 in formula 5)
    LOCAL = "local"  # generated at this site (y = 2 in formula 5)
    FROM_CLIENT = "from-client"  # notifier-side: received from a client


@dataclass(slots=True)
class CompressedTimestamp:
    """The paper's 2-element compressed state vector timestamp.

    A value: shared by every message and history entry that carries it,
    and never mutated.  Not ``frozen`` (a broadcast builds one per
    destination, and a frozen ``__init__`` is an ``object.__setattr__``
    per field): ``tests/unit/test_source_hygiene.py`` fails on a store
    to ``first`` or ``second`` under ``src/`` on anything but ``self``.
    """

    first: int  # T[1]
    second: int  # T[2]

    def __post_init__(self) -> None:
        if self.first < 0 or self.second < 0:
            raise ValueError(f"timestamp elements must be >= 0: {self}")

    def as_paper_list(self) -> list[int]:
        """``[T[1], T[2]]`` in the paper's notation."""
        return [self.first, self.second]

    def __repr__(self) -> str:
        return f"[{self.first},{self.second}]"


@dataclass(frozen=True)
class FullTimestamp:
    """An N-element ``SV_0`` snapshot for notifier-buffered operations."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.counts:
            raise ValueError("full timestamp must have at least one entry")
        if min(self.counts) < 0:
            raise ValueError(f"timestamp entries must be >= 0: {self.counts}")

    def __getitem__(self, site: int) -> int:
        """``T[site]`` with the paper's 1-based site indexing."""
        if not 1 <= site <= len(self.counts):
            raise IndexError(f"site ids are 1..{len(self.counts)}, got {site}")
        return self.counts[site - 1]

    def __len__(self) -> int:
        return len(self.counts)

    def get(self, site: int) -> int:
        """``T[site]``, treating sites newer than the snapshot as zero.

        Under dynamic membership a buffered timestamp may be shorter than
        the current ``SV_0``; a site admitted later had executed nothing
        when the snapshot was taken, so its count is implicitly 0.
        """
        if site < 1:
            raise IndexError(f"site ids start at 1, got {site}")
        return self.counts[site - 1] if site <= len(self.counts) else 0

    def sum_excluding(self, site: int) -> int:
        """``sum_{j != site} T[j]`` -- the compression used in formula (6)/(7)."""
        return sum(self.counts) - self.get(site)

    def as_paper_list(self) -> list[int]:
        return list(self.counts)

    def __repr__(self) -> str:
        return f"[{','.join(str(c) for c in self.counts)}]"
