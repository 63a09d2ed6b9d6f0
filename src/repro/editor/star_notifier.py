"""The star editor's notifier role (site 0, the centre of the star).

The notifier is an :class:`~repro.session.EditorEndpoint` like the
clients: it owns a transport rather than inheriting one.  On top of that
it maintains the full ``SV_0``; on receiving an operation from site
``x`` it determines the concurrent history entries with formula (7),
transforms the operation against them, executes it, and broadcasts the
*transformed* form to every other site with a per-destination compressed
timestamp (formulas 1-2).  This redefinition is what collapses the
causality relation to two dimensions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.clocks.events import EventLog, transfer_key
from repro.clocks.vector import concurrent as vc_concurrent
from repro.core.concurrency import notifier_concurrent
from repro.core.history import HistoryBuffer, HistoryEntry
from repro.core.state_vector import NotifierStateVector
from repro.core.timestamp import CompressedTimestamp, OriginKind
from repro.editor.messages import (
    BroadcastBody,
    ElectMessage,
    OpMessage,
    PromoteMessage,
    ResyncRequest,
    SnapshotMessage,
    StateContribution,
    op_name,
)
from repro.net.reliability import ReliableEndpoint
from repro.net.scheduler import Scheduler
from repro.net.transport import Envelope
from repro.obs.tracer import TraceEventKind, Tracer
from repro.ot.types import get_type
from repro.session import CheckRecord, ConsistencyError, EditorEndpoint

if TYPE_CHECKING:
    from repro.editor.star_client import StarClient


@dataclass(slots=True)
class PendingOp:
    """A broadcast operation awaiting acknowledgement by its destinations.

    One record serves a whole broadcast, in every destination's
    ``sent_to`` deque, until an arrival from a destination transforms it:
    the new form is a new record in that destination's slot alone (copy
    on write), never a store to the shared one.  So a destination's form
    evolves only against its own incoming operations, keeping its path
    context-valid (the Jupiter bridge invariant).
    """

    op: Any
    op_id: str
    origin_site: int


class StarNotifier(EditorEndpoint):
    """Site 0: the notifier at the centre of the star."""

    def __init__(
        self,
        sim: Scheduler,
        n_sites: int,
        ot_type_name: str = "text-positional",
        initial_state: Any = None,
        event_log: EventLog | None = None,
        verify_with_oracle: bool = False,
        record_checks: bool = False,
        reliability: bool = False,
        tracer: Tracer | None = None,
        *,
        pid: int = 0,
        notifier_epoch: int = 0,
        adopt_transport: Any = None,
    ) -> None:
        if verify_with_oracle and event_log is None:
            raise ValueError("verify_with_oracle needs an event log to verify against")
        super().__init__(sim, pid, reliability, tracer, adopt_transport=adopt_transport)
        if n_sites < 1:
            raise ValueError(f"need at least one collaborating site, got {n_sites}")
        self.n_sites = n_sites
        # ``pid`` is 0 for the original notifier; a *promoted* notifier
        # keeps the successor client's site id.  Either way the process
        # plays the paper's "site 0" role -- CheckRecords carry the role
        # id 0 so formula-(7) diagnostics stay uniform across epochs.
        self.notifier_epoch = notifier_epoch
        self.ot = get_type(ot_type_name)
        self.document = self.ot.initial() if initial_state is None else initial_state
        self.sv = NotifierStateVector(n_sites)
        self.hb = HistoryBuffer()  # empty unless diagnostic (repro.core.history)
        # Sites currently receiving broadcasts, in the order a broadcast
        # visits them (sorted once per roster change, not per operation).
        # The original notifier serves everyone from the start; a
        # promoted one re-admits each survivor through the failover
        # snapshot path first.
        self.destinations: tuple[int, ...] = tuple(
            i for i in range(1, n_sites + 1) if i != pid
        )
        # Per destination: broadcast operations the destination has not
        # yet acknowledged, in its form (a PendingOp is shared until
        # transformed).  Every ack drops a prefix: O(acked) not O(n).
        self.sent_to: dict[int, deque[PendingOp]] = {
            i: deque() for i in range(1, n_sites + 1)
        }
        # How many entries have been dropped from each sent_to deque.
        self.acked: dict[int, int] = {i: 0 for i in range(1, n_sites + 1)}
        self.event_log = event_log
        self.verify_with_oracle = verify_with_oracle
        self.record_checks = record_checks
        # Neither flag changes after construction: read the predicate once.
        self._diagnostic = record_checks or verify_with_oracle
        self.checks: list[CheckRecord] = []
        self.executed_op_ids: list[str] = []
        # One (op id, destination, timestamp) per copy sent: per-op,
        # per-destination growth, so only a diagnostic session keeps it.
        # ``None`` otherwise -- a reader on the fast path fails loudly
        # instead of iterating a log that was never written.
        self.broadcast_log: list[tuple[str, int, CompressedTimestamp]] | None = (
            [] if self._diagnostic else None
        )
        # Ops the dead centre acknowledged that the promotion baseline
        # rolled back.
        self.failover_losses = 0

    def _handle_app_message(self, envelope: Envelope) -> None:
        payload = envelope.payload
        source = envelope.source
        if type(payload) is not OpMessage:
            if isinstance(payload, ResyncRequest):
                self._readmit(source, "resync", payload.epoch)
                return
            if isinstance(payload, StateContribution):
                # A member presumed dead during promotion whose report
                # arrives late: it already re-homed to us, so heal it with
                # a failover snapshot rather than leaving it stranded.
                self._readmit(source, "failover", self.notifier_epoch)
                return
            if isinstance(payload, (ElectMessage, PromoteMessage)):
                # Election-window stragglers (e.g. a duplicate suspicion
                # delivered after promotion completed).
                self.transport.stats.stale_epoch_discarded += 1
                return
        message: OpMessage = payload
        first = message.first
        second = message.second
        # FIFO acknowledgement: the source has seen the first T[1]
        # operations ever sent to it; drop them from its pending list.
        already = self.acked[source]
        queue = self.sent_to[source]
        to_drop = first - already
        if to_drop < 0:
            raise ConsistencyError(
                f"notifier: site {source} acknowledged {first} < previously "
                f"acknowledged {already} (FIFO violated?)"
            )
        if to_drop > len(queue):
            raise ConsistencyError(
                f"notifier: site {source} acknowledged {first} operations, "
                f"but only {already + len(queue)} were sent to it"
            )
        # FIFO from the origin: the arrival is its next op, and the link
        # it came on is its origin.  T[2] is a sequence number.
        due = self.sv.counts[source - 1] + 1
        if second != due:
            raise ConsistencyError(
                f"notifier: site {source} sent its operation {second}, "
                f"but {due} was due"
            )
        if message.origin_site != source:
            raise ConsistencyError(
                f"notifier: site {source} sent an operation of site "
                f"{message.origin_site}"
            )
        op_id = op_name(source, second, self.notifier_epoch)
        diagnostic = self._diagnostic
        if diagnostic:
            concurrent_entries = self._concurrency_pass(message.timestamp, source, op_id)
        for _ in range(to_drop):
            queue.popleft()
        self.acked[source] = first
        if diagnostic:
            expected = [entry.op_id for entry in queue]
            actual = [entry.op_id for entry in concurrent_entries]
            if expected != actual:
                raise ConsistencyError(
                    f"notifier: formula (7) concurrent set {actual} != pending "
                    f"set {expected} for {op_id} from site {source}"
                )
            self._prune_history()
        new_op = message.op
        for index, entry in enumerate(queue):
            new_op, updated = self.ot.transform(
                new_op, entry.op, source < entry.origin_site
            )
            if updated is not entry.op:  # copy on write: the record is shared
                queue[index] = PendingOp(updated, entry.op_id, entry.origin_site)
        self._execute_and_broadcast(new_op, source, op_id, first, second)

    def _prune_history(self) -> None:
        """Drop the ``HB_0`` prefix no destination's queue still starts at.

        History retention, as at the clients: an entry no destination
        still owes an ack for is causally before every future arrival.
        Only a prefix goes, so a live head is the head of its debtor's
        queue; a destination that never sends never acknowledges and
        pins ``HB_0`` as it pins its own ``sent_to``.  Run wherever a
        queue shrinks -- an acknowledgement, a re-admission -- so the
        invariant holds at rest; oracle sessions keep everything, and
        fast-path ones keep nothing to prune.
        """
        if self._diagnostic and not self.verify_with_oracle:
            self.hb.prune_head(
                {queue[0].op_id for queue in self.sent_to.values() if queue}
            )

    def _execute_and_broadcast(self, new_op: Any, source: int, op_id: str,
                               first: int, second: int) -> None:
        """Execute ``op_id``, which arrived stamped ``[first, second]``;
        the transformed operation becomes a *new* operation "generated at
        site 0" (paper Section 3.1 / Fig. 3), broadcast to every other
        destination with a per-destination compressed timestamp
        (formulas 1-2)."""
        self.document = self.ot.apply(self.document, new_op)
        self.sv.record_execution_from(source)
        transformed_id = op_name(source, second, self.notifier_epoch, copy=True)
        self.executed_op_ids.append(transformed_id)
        if self.event_log is not None:
            self.event_log.execute(self.pid, op_id)
            self.event_log.generate(self.pid, transformed_id)
        if self.tracer is not None:
            # Execution of the incoming form, then generation of the
            # transformed form "at site 0" -- mirroring the event log.
            self.tracer.emit(
                TraceEventKind.EXECUTED, self.pid, op_id=op_id,
                timestamp=(first, second),
            )
            self.tracer.emit(
                TraceEventKind.TRANSFORMED, self.pid, op_id=transformed_id,
                source_op=op_id,
                timestamp=tuple(self.sv.full_timestamp().as_paper_list()),
            )
        if self._diagnostic:
            self.hb.append(
                HistoryEntry(
                    op=new_op,
                    timestamp=self.sv.full_timestamp(),
                    origin_site=source,
                    origin_kind=OriginKind.FROM_CLIENT,
                    op_id=transformed_id,
                    executed_at=self.sim.now,
                )
            )
        # The copies differ in the timestamp only (formulas 1-2): they
        # share one body, one sum of SV_0 and one PendingOp, so a copy
        # costs its two integers and the message that carries them.
        # Each pair is NotifierStateVector.compress_for_destination's,
        # read off SV_0's column in place.  The rest is bound once per
        # broadcast, not at construction: a transport wrapped later
        # (perfbench's spans) sees every copy.
        counts = self.sv.counts
        total = self.sv.total()
        shared = BroadcastBody()
        log = self.broadcast_log
        send = self.transport.send
        sent_to = self.sent_to
        pending = PendingOp(new_op, transformed_id, source)
        for dest in self.destinations:
            if dest == source:
                continue
            own = counts[dest - 1]
            if log is not None:
                log.append((transformed_id, dest, CompressedTimestamp(total - own, own)))
            send(dest, OpMessage(new_op, total - own, own, source, shared))
            sent_to[dest].append(pending)

    def generate_local(self, op: Any) -> str:
        """A local edit at the *promoted* notifier's own site.

        The centre executes its own operation directly: nothing in the
        centre's history can be concurrent with an operation generated
        on the centre's current document (formula (7) yields no
        concurrent entries -- asserted below), so no transformation is
        needed and the op broadcasts like any client op.  The timestamp
        mirrors the client convention: ``[received, own-including-this]``
        evaluated at the centre.
        """
        if self.pid == 0:
            raise RuntimeError(
                "generate_local is the promoted notifier's path; site 0 has no "
                "client-side editor"
            )
        ts = CompressedTimestamp(
            self.sv.total() - self.sv[self.pid], self.sv[self.pid] + 1
        )
        op_id = op_name(self.pid, ts.second, self.notifier_epoch)
        if self.event_log is not None:
            self.event_log.generate(self.pid, op_id)
        if self.tracer is not None:
            self.tracer.emit(
                TraceEventKind.GENERATED, self.pid, op_id=op_id,
                timestamp=tuple(ts.as_paper_list()),
            )
        if self._diagnostic:
            concurrent_entries = self._concurrency_pass(ts, self.pid, op_id)
            if concurrent_entries:
                raise ConsistencyError(
                    f"notifier: centre-local op {op_id} tested concurrent with "
                    f"{[e.op_id for e in concurrent_entries]}"
                )
        self._execute_and_broadcast(op, self.pid, op_id, ts.first, ts.second)
        return op_id

    def _concurrency_pass(self, ts: CompressedTimestamp, source: int,
                          op_id: str) -> list[HistoryEntry]:
        """Run formula (7) over ``HB_0``; record and (optionally) verify."""
        out: list[HistoryEntry] = []
        for entry in self.hb:
            assert entry.origin_kind is OriginKind.FROM_CLIENT
            verdict = notifier_concurrent(
                ts, source, entry.timestamp, entry.origin_site
            )
            if self.record_checks:
                self.checks.append(CheckRecord(0, op_id, entry.op_id, verdict))
            if self.verify_with_oracle:
                # Formula (6)/(7) is defined over the operations as
                # "originally generated at sites x and y": compare the
                # original client operations' generation clocks.  An
                # entry's SV_0 column of its origin is its ordinal.
                original = op_name(entry.origin_site,
                                   entry.timestamp[entry.origin_site],
                                   self.notifier_epoch)
                oracle = vc_concurrent(
                    self.event_log.generation_clock(op_id),
                    self.event_log.generation_clock(original),
                )
                if oracle != verdict:
                    raise ConsistencyError(
                        f"notifier: compressed verdict {verdict} != oracle {oracle} "
                        f"for ({op_id}, {original})"
                    )
            if verdict:
                out.append(entry)
        return out

    def admit_client(self, client: "StarClient") -> None:
        """Admit a late joiner: grow ``SV_0`` and send the state snapshot.

        The snapshot covers every operation executed so far, so the
        joiner's acknowledgement horizon starts at ``SV_0.total()`` and
        nothing is pending for it; FIFO on the fresh channel guarantees
        the snapshot precedes any subsequent broadcast.
        """
        site_id = self.sv.add_site()
        if client.pid != site_id:
            raise ValueError(
                f"joiner must take the next site id {site_id}, got {client.pid}"
            )
        self.n_sites = site_id
        self._readmit(site_id, "join", 0)

    def _readmit(self, site: int, via: str, epoch: int) -> None:
        """Bring ``site`` (back) in at the snapshot horizon.

        The snapshot covers everything executed at site 0, so nothing
        stays pending for ``site``: ``sent_to``/``acked`` restart at the
        snapshot horizon and FIFO guarantees every later broadcast
        arrives after the snapshot.  ``via`` says who is being admitted:
        ``"join"`` (a fresh site), ``"resync"`` (a crashed-and-restarted
        client whose send window the bump to ``epoch`` already voided;
        the snapshot is seq 0 of that epoch) or ``"failover"`` (a
        survivor under this promoted notifier).  Each carries ``SV_0``;
        the horizon excludes the site's own operations (the notifier
        only ever broadcasts *other* sites' operations to it).
        """
        base = self.sv.total() - self.sv[site]
        self.destinations = tuple(sorted({*self.destinations, site}))
        self.sent_to[site] = deque()
        self.acked[site] = base
        self._prune_history()
        if via != "join":
            self.transport.stats.resyncs_served += 1
        if self.event_log is not None:
            self.event_log.snapshot(self.pid, transfer_key(site, epoch, via))
        if self.tracer is not None:
            self.tracer.emit(
                TraceEventKind.SNAPSHOT, self.pid, peer=site, epoch=epoch, via=via,
            )
        self.send(site, SnapshotMessage(document=self.document,
                                        counts=tuple(self.sv.counts),
                                        notifier_epoch=self.notifier_epoch))

    # -- crash & failover --------------------------------------------------------

    def crash(self) -> None:
        """The centre goes down, permanently.

        Unlike a client crash there is no restart path: recovery is by
        successor election and promotion (see
        :mod:`repro.editor.failover`).  State is deliberately left in
        place -- it is dead weight, useful only to post-mortem tests.
        """
        if not isinstance(self.transport, ReliableEndpoint):
            raise RuntimeError("crash injection requires the reliability protocol")
        self.transport.go_down()
        if self.tracer is not None:
            self.tracer.emit(
                TraceEventKind.CRASHED, self.pid, epoch=self.notifier_epoch,
            )

    @classmethod
    def promoted_from(
        cls,
        client: "StarClient",
        notifier_epoch: int,
        contributions: dict[int, StateContribution | None],
        n_sites: int,
    ) -> "StarNotifier":
        """Build the epoch-``notifier_epoch`` notifier from a successor client.

        The successor's replica is the promotion baseline; ``SV_0`` is
        reconstructed from the successor's per-origin execution counts
        (``SV_0[i]`` = operations from site ``i`` embodied in the
        baseline, with the successor's own column taken from its
        ``SV_i[2]``).  The new notifier *adopts* the client's transport
        and outgoing channels -- the star's spokes deliver to the same
        process, whose editor logic has changed role.  Each contribution's
        acknowledged count is compared with the baseline to account for
        operations the dead centre acknowledged but never relayed
        (``failover_losses``); each contributing member is then
        re-admitted through a failover snapshot.
        """
        notifier = cls(
            client.sim,
            n_sites,
            ot_type_name=client.ot.name,
            initial_state=client.document,
            event_log=client.event_log,
            verify_with_oracle=client.verify_with_oracle,
            record_checks=client.record_checks,
            tracer=client.tracer,
            pid=client.pid,
            notifier_epoch=notifier_epoch,
            adopt_transport=client.transport,
        )
        # Share the spoke channels: outgoing sends must reach the wires
        # the topology attached to the successor process.
        notifier.out_channels = client.out_channels
        for site in range(1, n_sites + 1):
            if site == client.pid:
                notifier.sv.counts[site - 1] = client.sv.generated_locally
            else:
                notifier.sv.counts[site - 1] = client._received_per_origin.get(site, 0)
        # Nothing is in flight to anyone: every member restarts at the
        # snapshot horizon, exactly as in the resync path.
        for site in range(1, n_sites + 1):
            notifier.sent_to[site] = deque()
            notifier.acked[site] = notifier.sv.total() - notifier.sv[site]
        notifier.destinations = ()
        for site, contribution in contributions.items():
            if contribution is None or site == client.pid:
                continue
            # Ops the dead centre acknowledged to their origin (they left
            # its pending list) but that never made it into the baseline
            # are rolled back by the failover; account for them.
            missing = contribution.acknowledged - notifier.sv[site]
            if missing > 0:
                notifier.failover_losses += missing
        notifier.transport.stats.promotions += 1
        if notifier.tracer is not None:
            notifier.tracer.emit(
                TraceEventKind.PROMOTED, notifier.pid, epoch=notifier_epoch,
            )
            notifier.tracer.metrics.inc("failover.lost_ops", notifier.failover_losses)
        for site in sorted(contributions):
            if contributions[site] is not None and site != client.pid:
                notifier._readmit(site, "failover", notifier_epoch)
        return notifier

    def clock_storage_ints(self) -> int:
        """Resident clock-state integers at the notifier: N."""
        return self.sv.storage_ints()
