"""The star editor's client role (sites ``1..N``).

A :class:`StarClient` is an :class:`~repro.session.EditorEndpoint`: a
simulated process that *owns* its transport (raw FIFO by default, the
reliability protocol when the session runs with faults) and implements
the paper's client-side rules on top of it -- execute local operations
immediately, timestamp with the 2-element state vector ``SV_i``,
check incoming notifier operations for concurrency with formula (5),
transform against the not-yet-acknowledged local operations, execute.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from repro.clocks.events import EventLog, transfer_key
from repro.clocks.vector import concurrent as vc_concurrent
from repro.core.concurrency import client_concurrent
from repro.core.history import HistoryBuffer, HistoryEntry
from repro.core.state_vector import ClientStateVector
from repro.core.timestamp import CompressedTimestamp, OriginKind
from repro.editor.messages import (
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
    from repro.editor.failover import Directory
    from repro.editor.star_notifier import StarNotifier

#: Local edits a client queues while the star is leaderless, replayed once
#: the successor's baseline lands; past the bound an edit is counted lost.
DEGRADED_LIMIT = 64


class StarClient(EditorEndpoint):
    """A collaborating site ``i != 0``."""

    def __init__(
        self,
        sim: Scheduler,
        site_id: int,
        ot_type_name: str = "text-positional",
        initial_state: Any = None,
        event_log: EventLog | None = None,
        verify_with_oracle: bool = False,
        record_checks: bool = False,
        joining: bool = False,
        reliability: bool = False,
        tracer: Tracer | None = None,
    ) -> None:
        if site_id <= 0:
            raise ValueError(f"client site ids are 1..N, got {site_id}")
        if verify_with_oracle and event_log is None:
            raise ValueError("verify_with_oracle needs an event log to verify against")
        super().__init__(sim, site_id, reliability, tracer)
        self.ot = get_type(ot_type_name)
        self.document = self.ot.initial() if initial_state is None else initial_state
        self.sv = ClientStateVector(site_id)
        self.hb = HistoryBuffer()  # empty unless diagnostic (repro.core.history)
        # Local operations not yet reflected in a notifier timestamp: the
        # set an arrival is transformed against.  Each element is the
        # HistoryEntry a diagnostic session also buffers, so
        # re-transformation updates the HB; failover reads it too.
        # Acknowledgement pops from the left on every arrival: a deque.
        self.pending: deque[HistoryEntry] = deque()
        self.event_log = event_log
        self.verify_with_oracle = verify_with_oracle
        # Diagnostic trace of every concurrency check: one record per
        # (arrival, retained HB entry), so O(in-flight window) per arrival
        # once the HB is pruned; the list itself is never trimmed.
        self.record_checks = record_checks
        # Neither flag changes after construction: read the predicate once.
        self._diagnostic = record_checks or verify_with_oracle
        self.checks: list[CheckRecord] = []
        self.executed_op_ids: list[str] = []
        # Late joiners start inactive and are activated by the snapshot.
        self.active = not joining
        self.crash_count = 0
        self._recovering = False
        # -- failover state (see repro.editor.failover) ---------------------
        # The pid this spoke currently points at; re-homed on promotion.
        self.center = 0
        self.notifier_epoch = 0
        # The election's surroundings; installed by arm_failover.
        self.failover: Directory | None = None
        # Per-origin counts of executed centre broadcasts (SV_0 without
        # this site's own column): they name each arrival (op_name), and
        # they are the evidence from which a successor rebuilds SV_0.
        self._received_per_origin: dict[int, int] = {}
        self._abandoned: set[int] = set()
        self._elect_epoch = 0
        self._promoting = False
        self.promoted = False
        self._promoted_to: StarNotifier | None = None
        self._failover_pending = False
        self._failover_stash: list[HistoryEntry] = []
        self._buffered_promotion: list[Envelope] = []
        self._awaiting_contrib: set[int] = set()
        self._contributions: dict[int, StateContribution | None] = {}
        # Edits typed while leaderless, at most DEGRADED_LIMIT of them.
        self._degraded_queue: deque[Any] = deque()

    # -- what the surroundings may ask (see repro.editor.failover) ----------------

    def arm_failover(self, directory: "Directory") -> None:
        """Let ``directory`` coordinate this client's elections, whatever
        the transport (over raw sockets an EOF is the crash detector)."""
        self.failover = directory

    @property
    def settled(self) -> bool:
        """No promotion, handoff or replay is in progress or owed."""
        return not (self._promoting or self._failover_pending
                    or self._failover_stash or self._degraded_queue)

    @property
    def live(self) -> "StarClient | StarNotifier":
        """The endpoint holding this site's live replica: the promoted
        notifier once this client took over the centre, else the client."""
        return self._promoted_to if self._promoted_to is not None else self

    # -- local editing -------------------------------------------------------

    def generate(self, op: Any) -> str | None:
        """Generate, execute and propagate a local operation.

        Returns the operation's name (:func:`op_name` of this site and
        its new ``SV_i[2]``).  Per the paper: execute immediately,
        increment ``SV_i[2]``, timestamp with the current ``SV_i``,
        propagate to site 0, and (in a diagnostic session) buffer in the
        local HB.  While the
        client is crashed or awaiting its recovery snapshot the edit is
        dropped (returns ``None``).
        """
        if self.promoted:
            # This site became the centre of the star: local edits route
            # into the promoted notifier's centre-local generation path.
            assert self._promoted_to is not None
            return self._promoted_to.generate_local(op)
        if not self.active:
            if self._failover_pending or self._promoting:
                # Leaderless but alive: queue the edit for replay once
                # the successor's baseline lands.
                if len(self._degraded_queue) < DEGRADED_LIMIT:
                    self._degraded_queue.append(op)
                    self.transport.stats.degraded_queued += 1
                else:
                    self.transport.stats.degraded_overflow += 1
                    self.transport.stats.lost_local_edits += 1
                return None
            if self.transport.crashed or self._recovering:
                # A user edit during an outage is simply lost, like
                # keystrokes into a dead terminal; count it and move on.
                self.transport.stats.lost_local_edits += 1
                return None
            raise RuntimeError(
                f"site {self.pid} has not received its join snapshot yet"
            )
        self.document = self.ot.apply(self.document, op)
        self.sv.record_local_execution()
        ts = self.sv.timestamp()
        op_id = op_name(self.pid, ts.second, self.notifier_epoch)
        entry = HistoryEntry(
            op=op,
            timestamp=ts,
            origin_site=self.pid,
            origin_kind=OriginKind.LOCAL,
            op_id=op_id,
            executed_at=self.sim.now,
        )
        if self._diagnostic:
            self.hb.append(entry)
        self.pending.append(entry)
        self.executed_op_ids.append(op_id)
        if self.event_log is not None:
            self.event_log.generate(self.pid, op_id)
        if self.tracer is not None:
            self.tracer.emit(
                TraceEventKind.GENERATED, self.pid, op_id=op_id,
                timestamp=tuple(ts.as_paper_list()),
            )
        message = OpMessage(op=op, timestamp=ts, origin_site=self.pid)
        self.send(self.center, message)
        return op_id

    # -- receiving from the notifier ------------------------------------------

    def on_message(self, envelope: Envelope) -> None:
        """Drop traffic from an abandoned centre before it touches the
        transport: in-flight packets from the dead notifier must neither
        pollute the holdback buffer of a fresh link nor trigger acks."""
        if envelope.source in self._abandoned:
            self.transport.stats.stale_epoch_discarded += 1
            return
        super().on_message(envelope)

    def _handle_app_message(self, envelope: Envelope) -> None:
        payload = envelope.payload
        # An operation outside a promotion window is nearly all of the
        # traffic: one type test takes it past the control messages.
        if type(payload) is not OpMessage or self._promoting:
            if isinstance(payload, ElectMessage):
                self.elect(payload.notifier_epoch)
                return
            if self._promoting:
                # Collecting contributions; anything else racing the
                # window is either a restarting client's resync (serve
                # it after promotion) or stale traffic.
                if isinstance(payload, StateContribution):
                    self._on_contribution(envelope.source, payload)
                elif isinstance(payload, ResyncRequest):
                    self._buffered_promotion.append(envelope)
                else:
                    self.transport.stats.stale_epoch_discarded += 1
                return
            if isinstance(payload, PromoteMessage):
                self._on_promote(payload)
                return
            if isinstance(payload, SnapshotMessage):
                self._install_snapshot(payload)
                return
        if not self.active:
            raise ConsistencyError(
                f"site {self.pid} received an operation before its snapshot "
                "(FIFO violated?)"
            )
        message: OpMessage = payload
        ts = message.timestamp
        if ts.second > self.sv.generated_locally:
            raise ConsistencyError(
                f"site {self.pid}: the notifier acknowledged {ts.second} local "
                f"operations, but only {self.sv.generated_locally} were generated"
            )
        # FIFO from the centre: T[1] is a sequence number, and the
        # origin is another site.
        due = self.sv.received_from_center + 1
        if ts.first != due:
            raise ConsistencyError(
                f"site {self.pid}: the notifier sent broadcast {ts.first}, "
                f"but {due} was due"
            )
        origin = message.origin_site
        if origin < 1 or origin == self.pid:
            raise ConsistencyError(
                f"site {self.pid}: a broadcast from site {origin}, not another "
                "client site"
            )
        # The k-th broadcast from an origin is that origin's op k (FIFO).
        ordinal = self._received_per_origin.get(origin, 0) + 1
        self._received_per_origin[origin] = ordinal
        op_id = op_name(origin, ordinal, self.notifier_epoch, copy=True)
        # The formula-(5) sweep over the HB is only needed when recording
        # or oracle-verifying checks: formula (5) plus FIFO make the
        # concurrent set equal the unacknowledged-pending set, which the
        # fast path uses directly.  The slow path cross-checks the two.
        diagnostic = self._diagnostic
        concurrent_entries = self._concurrency_pass(ts, op_id) if diagnostic else None
        # FIFO acknowledgement: T[2] local operations are now reflected
        # in the notifier's state; they stop being "pending".
        while self.pending and self.pending[0].timestamp.second <= ts.second:
            self.pending.popleft()
        if concurrent_entries is not None:  # a diagnostic session
            expected = [entry.op_id for entry in self.pending]
            actual = [entry.op_id for entry in concurrent_entries]
            if expected != actual:
                raise ConsistencyError(
                    f"site {self.pid}: formula (5) concurrent set {actual} != "
                    f"pending set {expected} for {op_id}"
                )
            # History retention: everything older than the oldest
            # unacknowledged local operation is causally before every
            # future arrival.  The oracle run keeps the whole history --
            # it is the proof of this rule.
            if not self.verify_with_oracle:
                self.hb.prune_head((self.pending[0].op_id,) if self.pending else ())
        new_op = message.op
        if self.pending and self.tracer is not None:
            # seq: how many unacknowledged entries the arrival transforms
            # against, which formula (5) must find concurrent.
            self.tracer.emit(
                TraceEventKind.TRANSFORMED, self.pid, op_id=op_id,
                source_op=op_name(origin, ordinal, self.notifier_epoch),
                seq=len(self.pending),
            )
        for entry in self.pending:
            new_op, updated = self.ot.transform(
                new_op, entry.op, origin < entry.origin_site
            )
            entry.op = updated
        self.document = self.ot.apply(self.document, new_op)
        self.sv.record_remote_execution()
        if diagnostic:
            self.hb.append(
                HistoryEntry(
                    op=new_op,
                    timestamp=ts,
                    origin_site=origin,
                    origin_kind=OriginKind.FROM_CENTER,
                    op_id=op_id,
                    executed_at=self.sim.now,
                )
            )
        self.executed_op_ids.append(op_id)
        if self.event_log is not None:
            self.event_log.execute(self.pid, op_id)
        if self.tracer is not None:
            self.tracer.emit(
                TraceEventKind.EXECUTED, self.pid, op_id=op_id,
                timestamp=tuple(ts.as_paper_list()),
            )

    def _concurrency_pass(self, ts: CompressedTimestamp, op_id: str) -> list[HistoryEntry]:
        """Run formula (5) over the HB; record and (optionally) verify."""
        out: list[HistoryEntry] = []
        for entry in self.hb:
            verdict = client_concurrent(ts, entry.timestamp, entry.origin_kind)
            if self.record_checks:
                self.checks.append(CheckRecord(self.pid, op_id, entry.op_id, verdict))
            if self.verify_with_oracle:
                oracle = vc_concurrent(
                    self.event_log.generation_clock(op_id),
                    self.event_log.generation_clock(entry.op_id),
                )
                if oracle != verdict:
                    raise ConsistencyError(
                        f"site {self.pid}: compressed verdict {verdict} != oracle "
                        f"{oracle} for ({op_id}, {entry.op_id})"
                    )
            if verdict:
                out.append(entry)
        return out

    def _adopt(self, snapshot: SnapshotMessage) -> None:
        """Take the replica, ``SV_i`` and the per-origin counts from ``SV_0``.

        ``SV_i[1]`` sums the other columns: the snapshot stands in for
        that many broadcasts, so later timestamp arithmetic lines up
        with clients present from the start.  ``SV_i[2]`` is this site's
        column, so later timestamps -- and names -- continue where the
        notifier's formula-(7) bookkeeping expects (a recovering client
        re-issues the ordinals the notifier never executed).
        """
        own = snapshot.counts[self.pid - 1]
        self.document = snapshot.document
        self.notifier_epoch = snapshot.notifier_epoch
        self.sv = ClientStateVector(
            self.pid,
            received_from_center=sum(snapshot.counts) - own,
            generated_locally=own,
        )
        self._received_per_origin = {
            site: count for site, count in enumerate(snapshot.counts, 1)
            if count and site != self.pid
        }

    def _installed(self, epoch: int, via: str) -> None:
        """Log and trace the install of the snapshot just adopted: the
        transfer's receiving end."""
        if self.event_log is not None:
            self.event_log.install(self.pid, transfer_key(self.pid, epoch, via))
        if self.tracer is not None:
            self.tracer.emit(
                TraceEventKind.RECOVERED, self.pid, peer=self.center,
                epoch=epoch, via=via,
            )

    def _install_snapshot(self, snapshot: SnapshotMessage) -> None:
        """Adopt the notifier's state (:meth:`_adopt`) and go live.

        A client mid-handoff (``PromoteMessage`` processed, failover
        snapshot awaited) takes the failover install path instead: the
        successor's baseline replaces the replica wholesale and stashed
        pending operations are replayed against it.
        """
        if self._failover_pending:
            self._install_failover_snapshot(snapshot)
            return
        if self.active:
            raise ConsistencyError(f"site {self.pid} received a second snapshot")
        recovering = self._recovering
        self._adopt(snapshot)
        if recovering:
            self._recovering = False
            self.transport.stats.recoveries += 1
        self.active = True
        if recovering:
            self._installed(self.crash_count, "resync")
        else:
            self._installed(0, "join")

    # -- notifier failover -------------------------------------------------------

    def _reliable_transport(self) -> ReliableEndpoint:
        transport = self.transport
        assert isinstance(transport, ReliableEndpoint)  # failover demands it
        return transport

    def _abandon_center_link(self, peer: int) -> None:
        """Void reliability state toward a dead centre, if any exists.

        Over a raw transport (the TCP cluster without ``--reliability``)
        there is no per-peer link state to void -- the socket EOF already
        tore the connection down -- so this is a no-op there.
        """
        transport = self.transport
        if isinstance(transport, ReliableEndpoint):
            transport.abandon_peer(peer)

    def elect(self, epoch: int, confirmed: bool = False) -> None:
        """The centre is suspected dead: confirm the suspicion, then promote.

        The election is deduplicated by epoch.  Over the reliability
        protocol the suspicion is confirmed with a bounded liveness
        probe before anything irreversible happens -- a retransmit-budget
        give-up can be a false alarm under pathological (but survivable)
        loss.  Over a raw wire transport the trigger is a TCP EOF, which
        is definitive (the kernel observed the peer's socket close), so
        promotion starts immediately; a caller that has its own
        definitive evidence (the cluster coordinator saw the EOF itself)
        passes ``confirmed`` to skip the probe even over reliability.
        """
        if self.failover is None or self.promoted or self._promoting:
            return
        if self._elect_epoch >= epoch:
            return  # duplicate election signal
        self._elect_epoch = epoch
        self.transport.stats.elections += 1
        if self.tracer is not None:
            self.tracer.emit(
                TraceEventKind.ELECTED, self.pid, peer=self.center, epoch=epoch,
            )
        if not confirmed and isinstance(self.transport, ReliableEndpoint):
            self._reliable_transport().probe_peer(
                self.center,
                on_alive=self._election_aborted,
                on_dead=self._begin_promotion,
            )
        else:
            self._begin_promotion(self.center)

    def _election_aborted(self, peer: int) -> None:
        """The centre answered the probe: false alarm, stand down."""
        self._elect_epoch = 0
        if self.failover is not None:
            self.failover.election_aborted(self)

    def _begin_promotion(self, peer: int) -> None:
        """The probe went unanswered: take over as the new centre.

        Abandons the dead centre's link, freezes client-role editing and
        asks every surviving member for a :class:`StateContribution`;
        promotion completes when all have reported (or been given up
        on).
        """
        manager = self.failover
        if manager is None or self.promoted or self._promoting:
            return
        self._promoting = True
        self.active = False
        old_center = self.center
        self._abandoned.add(old_center)
        self._abandon_center_link(old_center)
        # Our own unacknowledged operations are already embodied in our
        # replica -- the promotion baseline; nothing to stash or replay.
        self.pending = deque()
        epoch = self._elect_epoch
        members = manager.begin_promotion(self, epoch)
        self._awaiting_contrib = set(members)
        self._contributions = {}
        for member in members:
            self.send(member, PromoteMessage(successor=self.pid, notifier_epoch=epoch))
        if not self._awaiting_contrib:
            self._finish_promotion()

    def _on_contribution(self, source: int, contribution: StateContribution) -> None:
        if source not in self._awaiting_contrib:
            return  # duplicate or post-deadline report
        self._awaiting_contrib.discard(source)
        self._contributions[source] = contribution
        if not self._awaiting_contrib:
            self._finish_promotion()

    def _member_dead(self, peer: int) -> None:
        """Give up on a member that went silent during collection."""
        if self._promoting and peer in self._awaiting_contrib:
            self._awaiting_contrib.discard(peer)
            self._contributions[peer] = None
            if not self._awaiting_contrib:
                self._finish_promotion()

    def _finish_promotion(self) -> None:
        self._promoting = False
        self.promoted = True
        manager = self.failover
        assert manager is not None
        notifier = manager.complete_promotion(self, self._contributions)
        self._promoted_to = notifier
        # Hand over the resync requests that raced the promotion window.
        buffered, self._buffered_promotion = self._buffered_promotion, []
        for envelope in buffered:
            notifier._handle_app_message(envelope)
        # Edits the user typed during the promotion window route into
        # the promoted notifier's centre-local generation path now.
        self._drain_degraded_queue()

    def _drain_degraded_queue(self) -> None:
        """Replay edits queued while leaderless, exactly once each.

        These operations were never timestamped, sent, or given ids --
        ``generate`` queued the raw edit and returned ``None`` -- so the
        replay is an ordinary generation against the post-failover
        replica (fresh ids, fresh timestamps, no dedup concern).
        """
        queued, self._degraded_queue = self._degraded_queue, deque()
        for op in queued:
            if self._replay(op):
                self.transport.stats.degraded_replayed += 1

    def _replay(self, op: Any) -> bool:
        """Regenerate a buffered local edit on the adopted baseline.

        Positions are clamped to the baseline, mirroring how an editor
        re-applies a locally-buffered edit to a reverted document; an
        edit that still does not apply is counted lost.  True iff the
        edit was generated.
        """
        from repro.ot.operations import Operation, OperationError, clamp_to

        if isinstance(op, Operation) and isinstance(self.document, str):
            op = clamp_to(self.document, op)
        try:
            self.generate(op)
        except OperationError:
            self.transport.stats.lost_local_edits += 1
            return False
        return True

    def _on_promote(self, message: PromoteMessage) -> None:
        """Re-home the spoke to the successor and report our state."""
        if message.notifier_epoch <= self.notifier_epoch:
            return  # duplicate promotion announcement
        self.notifier_epoch = message.notifier_epoch
        old_center, self.center = self.center, message.successor
        self._abandoned.add(old_center)
        self._abandon_center_link(old_center)
        # Unacknowledged local operations may or may not be embodied in
        # the successor's baseline; stash them for dedup-and-replay once
        # the failover snapshot arrives.
        self._failover_stash = list(self.pending)
        self._failover_pending = True
        self.active = False
        if self.tracer is not None:
            self.tracer.emit(
                TraceEventKind.HANDOFF, self.pid, peer=message.successor,
                epoch=message.notifier_epoch,
            )
        acknowledged = self.sv.generated_locally - len(self._failover_stash)
        self.send(self.center, StateContribution(acknowledged))

    def _install_failover_snapshot(self, snapshot: SnapshotMessage) -> None:
        """Adopt the successor's baseline, then replay stashed pendings.

        The baseline replaces the replica wholesale (operations the dead
        centre acknowledged but never relayed are rolled back with it),
        and the per-origin counts carry on from its ``SV_0``.  A stashed
        operation whose ordinal is at most ``SV_0[self]`` is already
        embodied in the baseline (FIFO relay embodies a prefix of each
        origin's operations) and is dropped; the rest are regenerated
        as **new** operations -- new names in the new epoch, fresh
        timestamps, fresh ground-truth generations.
        """
        self._adopt(snapshot)
        self.hb = HistoryBuffer()
        self.pending = deque()
        self._failover_pending = False
        if self._recovering:
            # A crash restart that raced the failover completes here: the
            # successor's baseline is the resync it was waiting for.
            self.transport.stats.recoveries += 1
            self._recovering = False
        self.active = True
        self.transport.stats.handoffs += 1
        self._installed(snapshot.notifier_epoch, "failover")
        embodied = self.sv.generated_locally
        stash, self._failover_stash = self._failover_stash, []
        for entry in stash:
            if entry.timestamp.second <= embodied:
                self.transport.stats.replays_deduped += 1
                continue
            if self._replay(entry.op):
                self.transport.stats.replayed_ops += 1
        # Stashed pendings replayed first (they predate the leaderless
        # window in program order), then the degraded-mode queue.
        self._drain_degraded_queue()

    # -- crash / recovery -------------------------------------------------------

    def crash(self) -> None:
        """Lose all volatile state; messages are dropped until restart."""
        if not isinstance(self.transport, ReliableEndpoint):
            raise RuntimeError("crash injection requires the reliability protocol")
        self.transport.go_down()
        self.active = False
        self._recovering = False
        self.crash_count += 1
        if self.tracer is not None:
            self.tracer.emit(TraceEventKind.CRASHED, self.pid, epoch=self.crash_count)
        self.document = self.ot.initial()
        self.sv = ClientStateVector(self.pid)
        self.hb = HistoryBuffer()
        self.pending = deque()
        # Failover evidence is volatile editor state too.
        self._received_per_origin = {}
        self._failover_pending = False
        self._failover_stash = []
        self._degraded_queue = deque()

    def restart(self) -> None:
        """Come back up and resynchronise through the snapshot path.

        Opens epoch ``crash_count``: the notifier voids the previous
        incarnation's link state when it sees the higher epoch, so stale
        in-flight traffic can never corrupt the restarted session.  The
        resync request itself travels reliably (seq 0 of the new epoch),
        so it survives drops like any other message.
        """
        if not self.transport.crashed:
            raise RuntimeError(f"site {self.pid} is not crashed")
        transport = self._reliable_transport()  # crash() demanded it
        transport.revive()
        self._recovering = True
        # The centre may have moved while we were down; ask the failover
        # manager where the star points now (it also wires the channel).
        if self.failover is not None:
            new_center = self.failover.route_restart(self)
            if new_center != self.center:
                self._abandoned.add(self.center)
                self.center = new_center
        transport.reset_link(self.center, self.crash_count)
        self.send(self.center, ResyncRequest(epoch=self.crash_count))

    # -- gauges ----------------------------------------------------------------

    def clock_storage_ints(self) -> int:
        """Resident clock-state integers: the paper's constant 2."""
        return self.sv.storage_ints()
