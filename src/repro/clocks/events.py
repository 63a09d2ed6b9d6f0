"""Generic event model for building causality ground truth.

The reproduction never trusts the compressed scheme on faith: an
oracle session records a log of *events* -- operation generations and
executions (paper Definition 1), and the two ends of every state
transfer -- from which :mod:`repro.analysis.causality` rebuilds the
happened-before relation with full vector clocks and an explicit
dependency DAG.  A default session or a cluster run keeps no log: its
trace replays one (:func:`repro.obs.analysis.replay_event_log`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Hashable

from repro.clocks.vector import VectorClock


class EventKind(enum.Enum):
    """The two event kinds of the paper's Definition 1, and a state
    transfer's two ends."""

    GENERATE = "generate"  # an operation is generated at its origin site
    EXECUTE = "execute"  # an operation is executed at some site
    SNAPSHOT = "snapshot"  # a site captures its state for a transfer
    INSTALL = "install"  # a site installs a transferred state


TransferKey = tuple[int, int, str]


def transfer_key(destination: int, epoch: int | None,
                 via: str | None) -> TransferKey:
    """The key that pairs a state transfer's snapshot with its install.

    ``(destination, epoch, "join" | "resync" | "failover")``: failover
    re-admission and crash resync both number their snapshots by epoch,
    but a client's crash epochs and the notifier epochs are counted
    apart -- site 3 can both restart into crash epoch 1 and survive into
    notifier epoch 1 -- so the kind separates them; a trace without one
    is a resync.  A join is a transfer like the others: the joiner's
    snapshot embodies the history before it, so its first operations
    follow that history (formula (7) counts it in their ``T[1]``).
    """
    return (destination, epoch or 0, via or "resync")


@dataclass(frozen=True)
class Event:
    """One event in a distributed computation.

    ``op_id`` identifies the *original* operation an event concerns
    (transformed forms keep the original's identity for ground-truth
    purposes; the paper's Fig. 3 treats notifier outputs as fresh
    operations, which the oracle models separately); a state-transfer
    event carries its :func:`transfer_key` there instead.
    """

    site: int
    kind: EventKind
    op_id: Hashable


@dataclass
class EventLog:
    """An append-only log of events; a site's order is its events' order
    in the log.

    Runs full vector clocks as events are appended, so the log doubles
    as a reference vector-clock run over the same computation: every
    event ticks its site's clock, after merging the generation clock (an
    execution) or the snapshot clock (an install) it receives.  Only the
    clocks later events merge are kept: each site's latest, each
    operation's generation clock and each pending snapshot's.
    """

    n_sites: int
    events: list[Event] = field(default_factory=list)
    _site_clock: list[VectorClock] = field(init=False)
    _generation_clock: dict[Hashable, VectorClock] = field(default_factory=dict)
    # Snapshots taken and not yet installed, by transfer key.
    _snapshot_clock: dict[TransferKey, VectorClock] = field(default_factory=dict)
    # Generations no site has executed yet, by generating site.
    _unexecuted: dict[Hashable, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_sites <= 0:
            raise ValueError(f"n_sites must be positive, got {self.n_sites}")
        self._site_clock = [VectorClock.zero(self.n_sites) for _ in range(self.n_sites)]

    def _append(self, site: int, kind: EventKind, op_id: Hashable,
                received: VectorClock | None = None) -> tuple[Event, VectorClock]:
        """Append an event at ``site`` and tick the site's clock, merging
        ``received`` first if the event receives one."""
        if not 0 <= site < self.n_sites:
            raise ValueError(f"site {site} out of range for n_sites={self.n_sites}")
        event = Event(site, kind, op_id)
        self.events.append(event)
        clock = self._site_clock[site]
        if received is not None:
            clock = clock.merge(received)
        clock = clock.tick(site)
        self._site_clock[site] = clock
        return event, clock

    def generate(self, site: int, op_id: Hashable) -> Event:
        """Record generation of ``op_id`` at ``site``: once, except that
        a crashed client re-issues the names of its ops the notifier
        never executed -- a re-issue replaces a generation at the same
        site that no other site executed."""
        if op_id in self._generation_clock and self._unexecuted.get(op_id) != site:
            raise ValueError(f"operation {op_id!r} generated twice")
        event, clock = self._append(site, EventKind.GENERATE, op_id)
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
        event, _ = self._append(site, EventKind.EXECUTE, op_id,
                                self._generation_clock[op_id])
        return event

    def snapshot(self, site: int, key: TransferKey) -> Event:
        """Record ``site`` capturing its state for the transfer ``key``
        (a crash resync or a failover re-admission)."""
        event, clock = self._append(site, EventKind.SNAPSHOT, key)
        self._snapshot_clock[key] = clock
        return event

    def install(self, site: int, key: TransferKey) -> Event:
        """Record ``site`` installing the transfer ``key``.

        A snapshot delivers its sender's entire causal history in bulk,
        so the site's clock merges the latest snapshot taken under
        ``key`` (which this install consumes); an install whose snapshot
        was never logged merges nothing.
        """
        return self._append(site, EventKind.INSTALL, key,
                            self._snapshot_clock.pop(key, None))[0]

    def generation_clock(self, op_id: Hashable) -> VectorClock:
        """The vector clock at ``op_id``'s generation event."""
        return self._generation_clock[op_id]

    def op_ids(self) -> list[Hashable]:
        """All generated operation ids in generation order."""
        return [e.op_id for e in self.events if e.kind is EventKind.GENERATE]
