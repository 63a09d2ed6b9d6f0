"""Generic event model for building causality ground truth.

The reproduction never trusts the compressed scheme on faith: every
session records a log of *events* -- operation generations and
executions (paper Definition 1) -- from which
:mod:`repro.analysis.causality` rebuilds the happened-before relation
with full vector clocks and an explicit dependency DAG.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Hashable, Iterator

from repro.clocks.vector import VectorClock


class EventKind(enum.Enum):
    """The two event kinds of the paper's Definition 1."""

    GENERATE = "generate"  # an operation is generated at its origin site
    EXECUTE = "execute"  # an operation is executed at some site


@dataclass(frozen=True)
class Event:
    """One event in a distributed computation.

    ``op_id`` identifies the *original* operation an event concerns
    (transformed forms keep the original's identity for ground-truth
    purposes; the paper's Fig. 3 treats notifier outputs as fresh
    operations, which the oracle models separately).
    """

    site: int
    seq: int  # 0-based position in the site's local event order
    kind: EventKind
    op_id: Hashable

    def label(self) -> str:
        return f"s{self.site}e{self.seq}:{self.kind.value}:{self.op_id}"


@dataclass
class EventLog:
    """An append-only log of events with site-local ordering.

    Maintains per-site sequence counters and assigns full vector clocks
    as events are appended, so the log doubles as a reference
    vector-clock run over the same computation.
    """

    n_sites: int
    events: list[Event] = field(default_factory=list)
    clocks: dict[Event, VectorClock] = field(default_factory=dict)
    _site_seq: list[int] = field(init=False)
    _site_clock: list[VectorClock] = field(init=False)
    _generation_clock: dict[Hashable, VectorClock] = field(default_factory=dict)
    # Generations no site has executed yet, by generating site.
    _unexecuted: dict[Hashable, int] = field(default_factory=dict)
    _counter: Iterator[int] = field(default_factory=itertools.count)

    def __post_init__(self) -> None:
        if self.n_sites <= 0:
            raise ValueError(f"n_sites must be positive, got {self.n_sites}")
        self._site_seq = [0] * self.n_sites
        self._site_clock = [VectorClock.zero(self.n_sites) for _ in range(self.n_sites)]

    def _append(self, site: int, kind: EventKind, op_id: Hashable) -> Event:
        if not 0 <= site < self.n_sites:
            raise ValueError(f"site {site} out of range for n_sites={self.n_sites}")
        event = Event(site, self._site_seq[site], kind, op_id)
        self._site_seq[site] += 1
        self.events.append(event)
        return event

    def generate(self, site: int, op_id: Hashable) -> Event:
        """Record generation of ``op_id`` at ``site``: once, except that
        a crashed client re-issues the names of its ops the notifier
        never executed -- a re-issue replaces a generation at the same
        site that no other site executed."""
        if op_id in self._generation_clock and self._unexecuted.get(op_id) != site:
            raise ValueError(f"operation {op_id!r} generated twice")
        event = self._append(site, EventKind.GENERATE, op_id)
        clock = self._site_clock[site].tick(site)
        self._site_clock[site] = clock
        self.clocks[event] = clock
        self._generation_clock[op_id] = clock
        self._unexecuted[op_id] = site
        return event

    def execute(self, site: int, op_id: Hashable) -> Event:
        """Record execution of ``op_id`` at ``site``.

        For a remote execution the site's clock merges the operation's
        generation clock first (the message carries it), then ticks --
        the standard vector-clock receive rule.
        """
        if op_id not in self._generation_clock:
            raise ValueError(f"operation {op_id!r} executed before generation was logged")
        if self._unexecuted.get(op_id, site) != site:
            del self._unexecuted[op_id]
        event = self._append(site, EventKind.EXECUTE, op_id)
        merged = self._site_clock[site].merge(self._generation_clock[op_id])
        clock = merged.tick(site)
        self._site_clock[site] = clock
        self.clocks[event] = clock
        return event

    def generation_clock(self, op_id: Hashable) -> VectorClock:
        """The vector clock at ``op_id``'s generation event."""
        return self._generation_clock[op_id]

    def site_clock(self, site: int) -> VectorClock:
        """The site's current clock (its latest event, or zero)."""
        if not 0 <= site < self.n_sites:
            raise ValueError(f"site {site} out of range for n_sites={self.n_sites}")
        return self._site_clock[site]

    def absorb_snapshot(self, site: int, clock: VectorClock) -> None:
        """Merge a state-transfer's causal clock into ``site``'s clock.

        A snapshot (late join or crash recovery, see
        :class:`repro.editor.messages.SnapshotMessage`) delivers the sender's
        entire causal history in bulk; merging the clock captured at
        snapshot time keeps this reference vector-clock run -- and hence
        the concurrency oracle -- exact across the transfer.
        """
        if not 0 <= site < self.n_sites:
            raise ValueError(f"site {site} out of range for n_sites={self.n_sites}")
        self._site_clock[site] = self._site_clock[site].merge(clock)

    def op_ids(self) -> list[Hashable]:
        """All generated operation ids in generation order."""
        order: list[Hashable] = []
        for event in self.events:
            if event.kind is EventKind.GENERATE:
                order.append(event.op_id)
        return order
