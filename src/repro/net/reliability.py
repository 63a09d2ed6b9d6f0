"""The reliability transport layer: FIFO streams over a faulty network.

This module is the bottom layer of the editor protocol stack
(transport -> causality -> integration -> session; see DESIGN.md
"Architecture layers").  It knows nothing about operational
transformation, state vectors, or documents: it moves opaque payloads
between process ids and guarantees the two properties the paper's
formulas (5) and (7) assume -- per-connection FIFO order and no loss --
on top of a network that may drop, duplicate, or delay messages and
whose endpoints may crash (see :mod:`repro.net.faults`).

Editors *own* a transport (composition), they do not inherit one:

* :class:`RawTransport` -- the perfect-network pass-through.  Sends go
  straight onto the FIFO channel, arrivals go straight to the editor's
  ``deliver`` callback.  Zero overhead, byte-for-byte identical wire
  accounting to the paper's model.
* :class:`ReliableEndpoint` -- the reliability protocol.  Every outgoing
  message is wrapped in a sequence-numbered :class:`ReliablePacket`,
  kept until cumulatively acknowledged, deduplicated by ``(source,
  seq)`` at the receiver, and released to ``deliver`` strictly in
  sequence order through a shared
  :class:`~repro.net.holdback.HoldbackQueue`.  Acknowledgements are
  cumulative and paced: every data packet carries one, an isolated
  arrival is answered at once, a burst costs one pure ack per
  ``BASE_RTO / 4``, and so does whatever would only repeat the last
  packet (a duplicate, a packet held above a gap already reported);
  what the sender is *waiting* to hear (the first report of a gap, a
  landed repair, a probe's answer) is never delayed.  Repair is
  proportional to loss: the network never reorders what it delivers, so
  a receiver holding packets above a gap has *proof* the head's earlier
  copy was lost and says so on whatever it sends
  (``ReliablePacket.gap``); the sender resends that head at once, once,
  and the retransmit timer
  (exponential backoff) resends the head only, as the fallback for a
  lost repair, a lost tail or lost acks.  Crashed incarnations are
  fenced by *epochs*: a packet from an older epoch is discarded, a
  packet from a newer epoch voids the previous incarnation's link state.

:func:`build_transport` selects between the two from one ``bool``,
which is how the editor layer stays agnostic of which transport it is
running over.  The protocol's timing and budgets are the module
constants below, the same on every wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Union

from repro.net.holdback import HoldbackOverflow, HoldbackQueue
from repro.net.scheduler import Scheduler
from repro.net.transport import (
    INT_WIDTH,
    Envelope,
    measure_payload_bytes,
    register_sizer,
)
from repro.obs.tracer import Tracer, TraceEventKind

WireSend = Callable[[int, Any], None]
Deliver = Callable[[Envelope], None]
PeerCallback = Callable[[int], None]


@dataclass(slots=True)
class ReliablePacket:
    """The reliability envelope wrapped around every editor message.

    ``seq`` numbers the sender's stream to this destination (``-1`` for
    pure acknowledgements, which are unsequenced); ``epoch`` identifies
    the client incarnation the packet belongs to; ``ack`` is cumulative:
    the highest seq the sender has received *in order* from the
    destination (``-1`` if none).  A ``probe`` is an unsequenced
    liveness heartbeat (``seq == -1``): the receiver answers it with an
    immediate acknowledgement, and *any* arrival from a probed peer
    counts as proof of life.  ``gap`` qualifies ``ack``: the sender is
    holding packets from the destination above seq ``ack + 1``, which
    over a network that never reorders proves every copy of that seq
    sent before them was lost.  It rides the flags byte that carries
    ``probe``, so it costs nothing on either wire.

    Shared by reference and never mutated, like
    :class:`~repro.editor.messages.OpMessage`: the sender's object is
    what the simulator delivers.  Not ``frozen`` -- one is built per
    packet, and a frozen ``__init__`` is an ``object.__setattr__`` per
    field -- so ``tests/unit/test_source_hygiene.py`` holds the rule:
    nothing under ``src/`` stores to one of these field names except on
    ``self``.
    """

    seq: int
    epoch: int
    ack: int
    payload: Any = None
    probe: bool = False
    gap: bool = False

    def __post_init__(self) -> None:
        if self.seq < -1 or self.ack < -1 or self.epoch < 0:
            raise ValueError(f"malformed packet: {self}")
        if self.probe and self.seq != -1:
            raise ValueError(f"probes are unsequenced: {self}")

    @property
    def clock_bytes(self) -> int:
        """The clock the wrapped message carries (none for an ack)."""
        return getattr(self.payload, "clock_bytes", 0)


# Model wire size: seq + epoch + cumulative ack, then the body.
register_sizer(
    ReliablePacket,
    lambda packet: 3 * INT_WIDTH + measure_payload_bytes(packet.payload),
)


# The failure-path constants, one setting for every deployment (DESIGN
# 3.1 tabulates what each bounds).  Times are in scheduler units: virtual
# time in the simulator, seconds on the wall-clock scheduler.
BASE_RTO = 0.5  # initial retransmit timeout; a paced ack waits BASE_RTO / 4
MAX_RTO = 8.0  # backoff ceiling
BACKOFF = 2.0  # timeout multiplier per retry round
MAX_RETRIES = 12  # consecutive rounds without ack progress before giving up
PROBE_INTERVAL = 0.5  # spacing of liveness probes
MAX_PROBES = 5  # unanswered probes before declaring death
HOLDBACK_LIMIT = 1024  # reorder-buffer capacity per endpoint


@dataclass
class ReliabilityStats:
    """Per-endpoint protocol counters (aggregated by the fault report)."""

    sent: int = 0
    retransmits: int = 0
    acks_sent: int = 0
    acks_coalesced: int = 0  # arrivals acknowledged by a later packet
    duplicates_discarded: int = 0
    stale_epoch_discarded: int = 0
    out_of_order_held: int = 0
    dropped_while_crashed: int = 0
    lost_local_edits: int = 0
    recoveries: int = 0  # clients only: completed crash restarts
    resyncs_served: int = 0  # notifier only: recovery snapshots sent
    give_ups: int = 0  # peers declared dead on retransmit-budget exhaustion
    probes_sent: int = 0  # liveness heartbeats transmitted
    handoffs: int = 0  # clients only: completed notifier failovers
    promotions: int = 0  # successor only: notifier roles assumed
    replayed_ops: int = 0  # clients only: pending ops regenerated after failover
    replays_deduped: int = 0  # clients only: pending ops already in the baseline
    stranded_at_crash: int = 0  # unacked data packets voided by go_down()
    elections: int = 0  # elections this endpoint opened or joined
    degraded_queued: int = 0  # local edits queued while leaderless
    degraded_overflow: int = 0  # edits dropped because the degraded queue was full
    degraded_replayed: int = 0  # queued edits regenerated after promotion


@dataclass
class _PeerLink:
    """One endpoint's reliability state toward one peer."""

    epoch: int = 0
    send_seq: int = 0  # next outgoing seq
    unacked: dict[int, Any] = field(default_factory=dict)  # seq -> payload
    rto: float = BASE_RTO
    timer: Any = None  # pending retransmit event, if armed
    recv_next: int = 0  # next seq to release to the editor
    retries: int = 0  # consecutive retransmit rounds without ack progress
    dead: bool = False  # budget exhausted: traffic parked, timer disarmed
    repaired: int = -1  # highest seq resent on a gap report
    repair_run: int = 0  # packets the last gap repair resent
    acked: int = -1  # highest cumulative ack the peer has been sent
    acked_at: float = float("-inf")  # when a packet last raised ``acked``
    told_at: float = float("-inf")  # when a packet last carried ack and gap bit
    ack_timer: Any = None  # pending paced acknowledgement, if armed


@dataclass
class _ProbeState:
    """One in-flight bounded liveness probe toward one peer."""

    remaining: int
    on_alive: PeerCallback
    on_dead: PeerCallback
    timer: Any = None


class RawTransport:
    """The perfect-network transport: a straight pass-through.

    Keeps the same surface as :class:`ReliableEndpoint` (stats, crash
    flag, in-order audit) so the editor layer is transport-agnostic;
    all of it is trivially inert here.
    """

    def __init__(self, *, wire_send: WireSend, deliver: Deliver, pid: int,
                 tracer: Optional[Tracer] = None) -> None:
        self.stats = ReliabilityStats()
        self.crashed = False
        self.wire_send = wire_send
        self.deliver = deliver
        self.pid = pid
        self.tracer = tracer

    def send(self, dest: int, payload: Any) -> None:
        if self.tracer is not None:
            self.tracer.emit(TraceEventKind.SENT, self.pid, peer=dest)
        self.wire_send(dest, payload)

    def on_wire(self, envelope: Envelope) -> None:
        if self.tracer is not None:
            # A perfect FIFO channel delivers every arrival in order.
            self.tracer.emit(TraceEventKind.RELEASED, self.pid,
                             peer=envelope.source, via="direct")
        self.deliver(envelope)

    def delivered_in_order(self) -> bool:
        """Vacuously true: FIFO channels deliver in order by themselves."""
        return True

    def inflight(self) -> int:
        """No send window: nothing is ever awaiting acknowledgement."""
        return 0

    def holdback_depth(self) -> int:
        """No reorder buffer: arrivals deliver immediately."""
        return 0

    def holdback_high_water(self) -> int:
        return 0


class ReliableEndpoint:
    """One process's reliability protocol instance, as a composable object.

    The endpoint talks *down* through ``wire_send`` (raw channel access
    supplied by the owning :class:`~repro.net.process.SimProcess`) and
    *up* through ``deliver`` (the editor's application-message handler).
    It always runs the protocol: :func:`build_transport` picks
    :class:`RawTransport` when reliability is off.
    """

    def __init__(
        self,
        sim: Scheduler,
        pid: int,
        *,
        wire_send: WireSend,
        deliver: Deliver,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.pid = pid
        self.stats = ReliabilityStats()
        self.wire_send = wire_send
        self.deliver = deliver
        self.tracer = tracer
        self.crashed = False
        # Invoked (once per death) when a peer exhausts the retransmit
        # budget -- the failover detector's signal.  Assigned by the
        # session layer; ``None`` means deaths are silent.
        self.on_peer_dead: Optional[PeerCallback] = None
        self._links: dict[int, _PeerLink] = {}
        self._probes: dict[int, _ProbeState] = {}
        # Out-of-order packets held for sequencing, one stream per peer.
        self._holdback: HoldbackQueue[Envelope] = HoldbackQueue(
            capacity=HOLDBACK_LIMIT
        )
        # In-order audit: per source, the (epoch, next seq) the editor
        # must be handed next, checked against each released packet's
        # own header.  Deliberately not link state (and not cleared on
        # crash): the audit must survive link resets and stay
        # independent of recv_next / the holdback queue, the very
        # mechanism it checks.  A violation is remembered for good.
        self._audit_next: dict[int, tuple[int, int]] = {}
        self._audit_violated = False

    # -- sampled gauges --------------------------------------------------------

    def inflight(self) -> int:
        """Unacknowledged packets across every live link: the send window."""
        return sum(len(link.unacked) for link in self._links.values())

    def holdback_depth(self) -> int:
        """Arrivals currently parked in the reorder buffer."""
        return self._holdback.depth

    def holdback_high_water(self) -> int:
        """Peak simultaneous reorder-buffer occupancy this lifetime."""
        return self._holdback.max_held

    # -- sending ---------------------------------------------------------------

    def _link(self, peer: int) -> _PeerLink:
        if peer not in self._links:
            self._links[peer] = _PeerLink()
        return self._links[peer]

    def send(self, dest: int, payload: Any) -> None:
        link = self._link(dest)
        seq = link.send_seq
        link.send_seq += 1
        link.unacked[seq] = payload
        self.stats.sent += 1
        if link.dead:
            # The peer was declared dead: park the packet in the send
            # window without touching the wire.  If the peer ever talks
            # again the link resurrects and the retransmit timer restarts.
            return
        if self.tracer is not None:
            self.tracer.emit(TraceEventKind.SENT, self.pid, peer=dest,
                             epoch=link.epoch, seq=seq)
        self._transmit(dest, link, seq, payload)
        self._arm_timer(dest, link)

    def _transmit(self, dest: int, link: _PeerLink, seq: int, payload: Any) -> None:
        packet = ReliablePacket(seq, link.epoch, link.recv_next - 1, payload,
                                False, self._holdback.holds(dest))
        self._told_recv_next(link)
        self.wire_send(dest, packet)

    def _arm_timer(self, dest: int, link: _PeerLink) -> None:
        if link.timer is None and link.unacked and not link.dead:
            link.timer = self.sim.schedule_after(link.rto, self._on_timer, dest, link)

    def _on_timer(self, dest: int, link: _PeerLink) -> None:
        link.timer = None
        # The link may have been replaced by a crash or an epoch bump
        # since this timer was armed; a stale timer must not touch it.
        if self.crashed or self._links.get(dest) is not link or not link.unacked:
            return
        if link.retries >= MAX_RETRIES:
            self._give_up(dest, link)
            return
        link.retries += 1
        # A full RTO without progress is a suspicion, not proof: resend
        # the head alone.  If only acks were lost, its re-ack covers the
        # whole window; if more is missing, the receiver's gap reports
        # drive the rest.
        self._retransmit(dest, link, next(iter(link.unacked)), via="timer")
        link.rto = min(link.rto * BACKOFF, MAX_RTO)
        self._arm_timer(dest, link)

    def _retransmit(self, dest: int, link: _PeerLink, seq: int, via: str) -> None:
        self.stats.retransmits += 1
        if self.tracer is not None:
            self.tracer.emit(TraceEventKind.RETRANSMITTED, self.pid,
                             peer=dest, epoch=link.epoch, seq=seq, via=via)
        self._transmit(dest, link, seq, link.unacked[seq])

    def _repair_gap(self, dest: int, link: _PeerLink, head: int) -> None:
        """The peer holds packets above ``head``: resend what was lost.

        The network never reorders, so every copy of ``head`` sent
        before the held packets is gone.  Each head is repaired once: a
        later report for the same head says nothing about the repair's
        own fate (the held packets may predate it), so a lost repair is
        the timer's to catch.  A head that directly follows the last
        repaired seq is a run of consecutive losses -- an outage -- and
        the repair doubles (1, 2, 4, ...) so a run of W costs O(log W)
        round trips and fewer than 2W resends.
        """
        run = 2 * link.repair_run if head == link.repaired + 1 else 1
        end = min(head + run, link.send_seq)
        for seq in range(head, end):
            self._retransmit(dest, link, seq, via="gap")
        link.repaired = end - 1
        link.repair_run = end - head

    def _give_up(self, dest: int, link: _PeerLink) -> None:
        """Retransmit budget exhausted: park the link, report the death."""
        link.dead = True
        self.stats.give_ups += 1
        callback = self.on_peer_dead
        if callback is not None:
            callback(dest)

    def _resurrect(self, dest: int, link: _PeerLink) -> None:
        """The peer spoke again: un-park and resume retransmission."""
        link.dead = False
        link.retries = 0
        link.rto = BASE_RTO
        self._arm_timer(dest, link)

    def resume(self, peer: int) -> None:
        """Un-park a link on a third party's word that the peer lives (an
        aborted election): parked at both ends, it would stay silent."""
        link = self._links.get(peer)
        if link is not None and link.dead:
            self._resurrect(peer, link)

    # -- receiving -------------------------------------------------------------

    def on_wire(self, envelope: Envelope) -> None:
        if self.crashed:
            self.stats.dropped_while_crashed += 1
            return
        payload = envelope.payload
        if not isinstance(payload, ReliablePacket):
            if self.tracer is not None:
                self.tracer.emit(TraceEventKind.RELEASED, self.pid,
                                 peer=envelope.source, via="direct")
            self.deliver(envelope)
            return
        self._receive_packet(envelope, payload)

    def _receive_packet(self, envelope: Envelope, packet: ReliablePacket) -> None:
        source = envelope.source
        link = self._link(source)
        # Any arrival is proof of life: resolve an outstanding probe and
        # resurrect a parked link before interpreting the packet itself.
        if link.dead:
            self._resurrect(source, link)
        probe_state = self._probes.pop(source, None)
        if probe_state is not None:
            if probe_state.timer is not None:
                self.sim.cancel(probe_state.timer)
            probe_state.on_alive(source)
        if packet.epoch < link.epoch:
            self.stats.stale_epoch_discarded += 1
            return
        if packet.epoch > link.epoch:
            # The peer restarted into a new incarnation: everything from
            # the old one -- send window, reorder buffer -- is void.
            link = self.reset_link(source, packet.epoch)
        self._process_ack(source, link, packet.ack, packet.gap)
        if packet.seq < 0:  # pure acknowledgement / probe
            if packet.probe:
                # Heartbeat: answer so the prober hears back even when
                # no sequenced traffic is flowing in either direction.
                self._send_ack(source, link)
            return
        if packet.seq < link.recv_next:
            # Duplicate of something already released: re-ack so the
            # sender stops retransmitting (its ack may have been lost).
            # A timer resend comes a full RTO after the ack it missed; a
            # network duplicate comes on the heels of the original.
            self.stats.duplicates_discarded += 1
            self._pace_ack(source, link, repeat=True)
            return
        if packet.seq > link.recv_next:
            # A gap: hold the packet back until retransmission fills it.
            # Releasing it now would reorder the stream and break the
            # FIFO precondition of formulas (5) and (7).
            opened = not self._holdback.holds(source)
            try:
                fresh = self._holdback.hold(source, packet.seq, envelope)
            except HoldbackOverflow:
                if self.tracer is not None:
                    self.tracer.emit(TraceEventKind.HOLDBACK_OVERFLOW,
                                     self.pid, peer=source,
                                     epoch=packet.epoch, seq=packet.seq)
                raise
            if fresh:
                self.stats.out_of_order_held += 1
                if self.tracer is not None:
                    self.tracer.emit(TraceEventKind.HELD_BACK, self.pid,
                                     peer=source, epoch=packet.epoch,
                                     seq=packet.seq)
            else:
                self.stats.duplicates_discarded += 1
            if opened:
                self._send_ack(source, link)
            else:
                # The head is reported and the sender repairs it once:
                # another report is only the retry of a lost first one.
                self._pace_ack(source, link, repeat=True)
            return
        self._release(link, envelope, via="direct")
        drained = False
        while True:
            held = self._holdback.pop(source, link.recv_next)
            if held is None:
                break
            self._release(link, held, via="holdback")
            drained = True
        if drained or self._holdback.holds(source):
            # The sender is waiting on this one: a repair just landed,
            # or a gap above it is still open and must be reported.
            self._send_ack(source, link)
        else:
            self._pace_ack(source, link)

    def _release(self, link: _PeerLink, envelope: Envelope,
                 via: str = "direct") -> None:
        """Hand one in-sequence packet's payload to the editor."""
        link.recv_next += 1
        packet: ReliablePacket = envelope.payload
        self._audit_release(envelope.source, packet.epoch, packet.seq)
        if self.tracer is not None:
            self.tracer.emit(TraceEventKind.RELEASED, self.pid,
                             peer=envelope.source, epoch=packet.epoch,
                             seq=packet.seq, via=via)
        self.deliver(Envelope(envelope.source, envelope.dest, packet.payload,
                              envelope.message_id))

    def _send_ack(self, dest: int, link: _PeerLink) -> None:
        self.stats.acks_sent += 1
        packet = ReliablePacket(-1, link.epoch, link.recv_next - 1, None, False,
                                self._holdback.holds(dest))
        self._told_recv_next(link)
        self.wire_send(dest, packet)

    def _told_recv_next(self, link: _PeerLink) -> None:
        """A packet carrying the cumulative ack is leaving: nothing is owed.

        Only an ack that is *news* to the peer moves ``acked_at``: it is
        ack progress there, which restarts the peer's retransmit clock,
        and that restart is the headroom a paced ack spends.  Data that
        repeats the last ack restarts nothing and buys no delay -- except
        to a packet that would repeat it in turn, which ``told_at`` paces.
        """
        link.told_at = self.sim.now
        if link.acked < link.recv_next - 1:
            link.acked = link.recv_next - 1
            link.acked_at = link.told_at
        if link.ack_timer is not None:
            self.sim.cancel(link.ack_timer)
            link.ack_timer = None

    def _pace_ack(self, dest: int, link: _PeerLink, repeat: bool = False) -> None:
        """Acknowledge an arrival nobody is waiting on.

        At once if the peer has had no news for one interval, so an
        isolated packet's round trip is what it would be with an ack
        per arrival; otherwise one timer, armed for the end of the
        current interval, acknowledges everything that arrives
        meanwhile -- unless reverse data leaves first and carries it.
        The interval is a quarter of the retransmit timeout: the ack
        that opened it restarted the peer's clock, so with one-way
        latency up to ``BASE_RTO / 2`` the next one is never late enough
        to fire a timer on a clean network (DESIGN 3.1).

        ``repeat``: a duplicate, or a packet held above a head already
        reported -- the ack would only say again what the last packet
        told this peer, and is owed only as the retry in case that one
        was lost.  It restarts no clock, so any packet opens its
        interval, news or not, and any packet leaving meanwhile (data
        carries the gap bit too) is the retry.
        """
        now = self.sim.now
        since = link.told_at if repeat else link.acked_at
        due = since + BASE_RTO / 4
        if now >= due:
            self._send_ack(dest, link)
            return
        self.stats.acks_coalesced += 1
        # An in-order arrival is owed nothing if the editor answered
        # from inside deliver(): that data carried its ack (a repeat
        # delivers nothing, so its retry is always owed).  One read of
        # ``now``: a wall-clock scheduler refuses an absolute deadline
        # the clock has passed between two reads.
        if link.ack_timer is None and (repeat or link.acked < link.recv_next - 1):
            link.ack_timer = self.sim.schedule_after(
                due - now, self._on_ack_timer, dest, link)

    def _on_ack_timer(self, dest: int, link: _PeerLink) -> None:
        link.ack_timer = None
        # As in _on_timer: a replaced link owes its peer nothing.
        if self.crashed or self._links.get(dest) is not link:
            return
        self._send_ack(dest, link)

    def _process_ack(self, dest: int, link: _PeerLink, ack: int, gap: bool) -> None:
        unacked = link.unacked
        progress = False
        # Insertion order is seq order: the acknowledged prefix is at the head.
        while unacked:
            head = next(iter(unacked))
            if head > ack:
                break
            del unacked[head]
            progress = True
        if progress:
            link.rto = BASE_RTO  # progress: reset backoff
            link.retries = 0  # progress: refill the retransmit budget
            # Restart the retransmit clock: the surviving packets were all
            # sent more recently than the one just acknowledged, so the
            # old deadline would fire spuriously (a full RTO must elapse
            # *without progress* before we suspect loss).
            if link.timer is not None:
                self.sim.cancel(link.timer)
                link.timer = None
            self._arm_timer(dest, link)
        elif not unacked and link.timer is not None:
            self.sim.cancel(link.timer)
            link.timer = None
        # A report proves a loss only for the current head (a stale one
        # names a seq already acknowledged), and only once per head.
        if gap and link.repaired <= ack and ack + 1 in unacked:
            self._repair_gap(dest, link, ack + 1)

    # -- liveness probing --------------------------------------------------------

    def probe_peer(self, peer: int, on_alive: PeerCallback,
                   on_dead: PeerCallback) -> None:
        """Confirm a liveness suspicion with a bounded heartbeat.

        Sends up to ``MAX_PROBES`` probe packets, ``PROBE_INTERVAL``
        apart.  The first *anything* received from the peer -- an ack,
        a data packet, even stale-epoch traffic -- resolves the probe
        as alive; silence through the whole budget resolves it as dead.
        Unlike a perpetual heartbeat this always quiesces, which the
        discrete-event simulator's run-to-quiescence contract requires.
        A probe already in flight toward ``peer`` is left to finish.
        """
        if peer in self._probes:
            return
        state = _ProbeState(remaining=MAX_PROBES, on_alive=on_alive,
                            on_dead=on_dead)
        self._probes[peer] = state
        self._probe_tick(peer, state)

    def _probe_tick(self, peer: int, state: _ProbeState) -> None:
        state.timer = None
        if self.crashed or self._probes.get(peer) is not state:
            return
        if state.remaining <= 0:
            del self._probes[peer]
            state.on_dead(peer)
            return
        state.remaining -= 1
        self.stats.probes_sent += 1
        link = self._link(peer)
        packet = ReliablePacket(-1, link.epoch, link.recv_next - 1, None, True)
        # Probes ride the ack packet class: like a lost ack, a lost
        # probe forces no retransmission (the next tick re-probes).
        self.wire_send(peer, packet)
        state.timer = self.sim.schedule_after(PROBE_INTERVAL, self._probe_tick, peer, state)

    # -- crash / epoch management ----------------------------------------------

    def go_down(self) -> None:
        """Lose all volatile protocol state; drop traffic until revived."""
        self.crashed = True
        for peer, link in self._links.items():
            self._cancel_timers(link)
            self._holdback.clear(peer)
            # Post-mortem observability: how many sequenced data packets
            # the crash destroyed before the peer acknowledged them.
            self.stats.stranded_at_crash += len(link.unacked)
        self._links = {}
        for state in self._probes.values():
            if state.timer is not None:
                self.sim.cancel(state.timer)
        self._probes = {}

    def abandon_peer(self, peer: int) -> int:
        """Forget a peer entirely: link, reorder buffer, probes.

        Used on notifier failover: a client re-homing to the successor
        must stop retransmitting into the dead centre and must not hold
        the old centre's in-flight packets hostage in its reorder
        buffer.  The in-order audit state is deliberately kept -- what
        was already delivered stays audited.  Returns the number of
        send-window packets voided.
        """
        voided = 0
        link = self._links.pop(peer, None)
        if link is not None:
            self._cancel_timers(link)
            voided = len(link.unacked)
        self._holdback.clear(peer)
        state = self._probes.pop(peer, None)
        if state is not None and state.timer is not None:
            self.sim.cancel(state.timer)
        return voided

    def _cancel_timers(self, link: _PeerLink) -> None:
        """Disarm a link that is being discarded."""
        for timer in (link.timer, link.ack_timer):
            if timer is not None:
                self.sim.cancel(timer)

    def revive(self) -> None:
        """Accept traffic again (the caller then opens a fresh epoch)."""
        self.crashed = False

    def reset_link(self, peer: int, epoch: int) -> _PeerLink:
        """Void the link state and start the given epoch from seq 0."""
        link = _PeerLink(epoch=epoch)
        old = self._links.get(peer)
        if old is not None:
            self._cancel_timers(old)
        self._holdback.clear(peer)
        self._links[peer] = link
        return link

    # -- auditing ----------------------------------------------------------------

    def _audit_release(self, source: int, epoch: int, seq: int) -> None:
        """Check one packet about to be handed to the editor.

        Per source, epochs must never regress and each epoch's sequence
        numbers must be exactly ``0, 1, 2, ...`` in order.
        """
        current_epoch, expected_seq = self._audit_next.get(source, (-1, 0))
        if epoch > current_epoch:
            current_epoch, expected_seq = epoch, 0
        if epoch < current_epoch or seq != expected_seq:
            self._audit_violated = True
        self._audit_next[source] = (current_epoch, expected_seq + 1)

    def delivered_in_order(self) -> bool:
        """Audit: the editor received a gap-free in-order stream.

        The verdict of :meth:`_audit_release` over every packet handed
        to ``deliver`` (taken at release time from the packets
        themselves, not from the holdback machinery).  Any drop leaking
        through, duplicate release, swap, or stale-epoch release makes
        this False, permanently.
        """
        return not self._audit_violated


AnyTransport = Union[RawTransport, ReliableEndpoint]


def build_transport(
    sim: Scheduler,
    pid: int,
    reliability: bool,
    *,
    wire_send: WireSend,
    deliver: Deliver,
    tracer: Optional[Tracer] = None,
) -> AnyTransport:
    """The transport an editor endpoint should own.

    ``False`` selects the zero-overhead :class:`RawTransport` (the
    perfect-network default everywhere faults are not injected), ``True``
    the full protocol.  ``tracer`` hooks the transport into the
    observability layer; the disabled (``None``) path costs one
    attribute check per send/arrival.
    """
    if not reliability:
        return RawTransport(wire_send=wire_send, deliver=deliver, pid=pid,
                            tracer=tracer)
    return ReliableEndpoint(sim, pid, wire_send=wire_send, deliver=deliver,
                            tracer=tracer)
