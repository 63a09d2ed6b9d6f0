"""Loss-proportional repair: what one loss, one lost ack and one outage cost.

Two :class:`ReliableEndpoint`s joined by a scripted wire of fixed
latency (so it never reorders, like every network this layer runs on).
The script drops chosen copies of chosen packets; the tests then count
retransmits exactly and read when the receiver released what.  The
second half pins the acknowledgement policy on the same wire: which
arrivals are answered at once, which share one paced ack (a burst, and
whatever would only repeat the last packet: a duplicate, a packet held
above a gap already reported), what carries an ack or a gap report for
free, and that a discarded link owes nothing.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

import pytest

from repro.editor.star import StarSession
from repro.net.channel import FixedLatency
from repro.net.faults import ChannelFaults, FaultPlan
from repro.net.reliability import ReliabilityConfig, ReliableEndpoint, ReliablePacket
from repro.net.simulator import Simulator
from repro.net.transport import Envelope
from repro.obs.tracer import Tracer, TraceEventKind
from repro.workloads.random_session import RandomSessionConfig, drive_star_session

LATENCY = 0.05
BASE_RTO = ReliabilityConfig().retransmit.base_rto
ACK_INTERVAL = BASE_RTO / 4
SENDER, RECEIVER = 1, 2

Drop = Callable[[int, ReliablePacket, int], bool]  # (source, packet, copy) -> lose it?


class Pair:
    """A sender and a receiver over a scripted lossy, order-keeping wire."""

    def __init__(self, drop: Drop) -> None:
        self.sim = Simulator()
        self.drop = drop
        self.copies: Counter[tuple[int, int]] = Counter()
        self.wire: list[tuple[float, int, ReliablePacket]] = []  # (time, source, packet)
        self.released: list[tuple[str, float]] = []  # (payload, release time)
        self.tracer = Tracer(clock=lambda: self.sim.now)
        self.sender = ReliableEndpoint(
            self.sim, SENDER, ReliabilityConfig(), tracer=self.tracer,
            deliver=lambda env: None)
        self.receiver = ReliableEndpoint(
            self.sim, RECEIVER, ReliabilityConfig(),
            deliver=lambda env: self.released.append((env.payload, self.sim.now)))
        self.sender.wire_send = self._wire(SENDER, self.receiver)
        self.receiver.wire_send = self._wire(RECEIVER, self.sender)

    def _wire(self, source: int, peer: ReliableEndpoint):
        def send(dest: int, packet: ReliablePacket, ts_bytes: int, kind: str) -> None:
            copy = self.copies[source, packet.seq]
            self.copies[source, packet.seq] += 1
            self.wire.append((self.sim.now, source, packet))
            if self.drop(source, packet, copy):
                return
            envelope = Envelope(source=source, dest=dest, payload=packet, kind=kind)
            self.sim.schedule_after(LATENCY, lambda: peer.on_wire(envelope))

        return send

    def send_at(self, *times: float) -> None:
        """Payloads "p0", "p1", ... from the sender, one at each of ``times``."""
        for seq, at in enumerate(times):
            self.sim.schedule(
                at, lambda seq=seq: self.sender.send(RECEIVER, f"p{seq}"))

    def send_stream(self, count: int, spacing: float) -> None:
        """``count`` payloads from the sender, ``spacing`` apart."""
        self.send_at(*(seq * spacing for seq in range(count)))

    def run(self) -> None:
        self.sim.run()
        assert self.sim.pending_events == 0
        assert not self.sender.inflight()

    def retransmits(self) -> list[tuple[str, int, float]]:
        """``(via, seq, time)`` of every retransmit the sender made."""
        return [(event.via, event.seq, event.time)
                for event in self.tracer.events
                if event.kind is TraceEventKind.RETRANSMITTED]

    def pure_acks(self, source: int = RECEIVER) -> list[tuple[float, int, bool]]:
        """``(time, ack, gap)`` of every pure acknowledgement ``source`` sent."""
        return [(pytest.approx(at), packet.ack, packet.gap)
                for at, sender, packet in self.wire
                if sender == source and packet.seq < 0 and not packet.probe]

    def assert_released_in_order(self, count: int) -> None:
        assert [payload for payload, _ in self.released] == [
            f"p{seq}" for seq in range(count)]
        assert self.receiver.delivered_in_order()


def loses(*lost: tuple[int, int]) -> Drop:
    """Drop the listed ``(seq, copy)`` transmissions of the sender's data."""
    return lambda source, packet, copy: (
        source == SENDER and (packet.seq, copy) in lost)


def loses_first_report(*lost: tuple[int, int]) -> Drop:
    """As :func:`loses`, and the receiver's first gap report with them."""
    data, first = loses(*lost), iter([True])

    def drop(source: int, packet: ReliablePacket, copy: int) -> bool:
        if source == RECEIVER and packet.seq < 0 and packet.gap:
            return next(first, False)
        return data(source, packet, copy)

    return drop


def data_from_sender(seq: int, payload: str, epoch: int = 0) -> Envelope:
    """A sequenced packet as it would reach the receiver, for direct injection."""
    return Envelope(source=SENDER, dest=RECEIVER, kind="op",
                    payload=ReliablePacket(seq=seq, epoch=epoch, ack=-1,
                                           payload=payload))


def test_one_loss_on_a_busy_link_costs_exactly_one_retransmit():
    pair = Pair(loses((3, 0)))
    pair.send_stream(10, spacing=0.01)
    pair.run()
    pair.assert_released_in_order(10)
    # Seq 4 proves the loss one round trip after it left; no timer ran.
    assert pair.retransmits() == [("gap", 3, pytest.approx(0.04 + 2 * LATENCY))]
    released_at = dict(pair.released)["p3"]
    assert released_at == pytest.approx(0.04 + 3 * LATENCY)
    assert released_at < 0.03 + BASE_RTO
    assert pair.receiver.stats.duplicates_discarded == 0


def test_lost_acks_cost_one_timer_resend_not_the_window():
    def drop(source: int, packet: ReliablePacket, copy: int) -> bool:
        return source == RECEIVER and pair.sim.now < BASE_RTO

    pair = Pair(drop)
    pair.send_stream(8, spacing=0.0)
    pair.run()
    pair.assert_released_in_order(8)
    # All eight arrived; the head's re-ack is cumulative and covers them.
    assert pair.retransmits() == [("timer", 0, pytest.approx(BASE_RTO))]
    assert pair.receiver.stats.duplicates_discarded == 1


def test_duplicating_loss_free_channel_makes_no_retransmit():
    """No gap report without a loss: duplicates draw acks, never repairs."""
    session = StarSession(
        4,
        latency_factory=lambda src, dst: FixedLatency(LATENCY),
        fault_plan=FaultPlan(seed=5, default=ChannelFaults(dup_p=0.5)),
    )
    drive_star_session(session, RandomSessionConfig(n_sites=4, ops_per_site=12, seed=5))
    session.run()
    report = session.fault_report()
    assert session.converged() and session.reliable_delivery_in_order()
    assert report.duplicated > 20 and report.lost == 0
    assert report.duplicates_discarded > 20
    assert report.retransmits == 0


def test_a_lost_repair_falls_back_to_the_timer():
    pair = Pair(loses((3, 0), (3, 1)))
    pair.send_stream(10, spacing=0.01)
    pair.run()
    pair.assert_released_in_order(10)
    # The head is gap-repaired once; the reports that keep arriving for
    # it were caused by packets older than the repair, so they are not
    # evidence against it and the retransmit timer decides.
    (via_a, seq_a, _), (via_b, seq_b, at_b) = pair.retransmits()
    assert (via_a, seq_a, via_b, seq_b) == ("gap", 3, "timer", 3)
    # The clock restarted at the last ack progress.  Seqs 1 and 2 arrive
    # inside seq 0's ack interval and draw no ack of their own (this
    # read 0.02 + ... when every arrival was acked); seq 4's gap report
    # is immediate and cumulative, so it is what acknowledges seq 2.
    assert at_b == pytest.approx(0.04 + 2 * LATENCY + BASE_RTO)


def test_an_outage_is_repaired_in_logarithmically_many_steps():
    first, width, total = 5, 32, 60
    pair = Pair(loses(*((seq, 0) for seq in range(first, first + width))))
    pair.send_stream(total, spacing=0.01)
    pair.run()
    pair.assert_released_in_order(total)
    repairs = pair.retransmits()
    assert all(via == "gap" for via, _, _ in repairs)
    # 1, 2, 4, 8, 16 cover 31 of the 32; the sixth step overshoots, and
    # the overshoot is bounded by the run it follows.
    assert len({at for _, _, at in repairs}) == 6
    assert [seq for _, seq, _ in repairs] == list(range(first, first + len(repairs)))
    assert width <= len(repairs) < 2 * width
    # Caught up well inside what one retransmit timeout would have cost.
    assert max(at for _, at in pair.released) < (total - 1) * 0.01 + BASE_RTO


def test_a_stale_gap_report_repairs_nothing():
    """A report whose head is already acknowledged is not evidence."""
    pair = Pair(loses())
    pair.send_stream(3, spacing=0.0)
    pair.run()
    pair.sender.send(RECEIVER, "p3")
    pair.sender.on_wire(Envelope(
        source=RECEIVER, dest=SENDER, kind="ack",
        payload=ReliablePacket(seq=-1, epoch=0, ack=1, gap=True)))
    pair.run()
    assert pair.retransmits() == []


# -- the acknowledgement policy -------------------------------------------------


def test_an_isolated_packet_is_acknowledged_on_arrival():
    pair = Pair(loses())
    pair.send_stream(1, spacing=0.0)
    pair.sim.run(until=2 * LATENCY)
    # Its sender hears back after exactly one round trip.
    assert pair.pure_acks() == [(LATENCY, 0, False)]
    assert pair.sender.inflight() == 0
    pair.run()
    assert pair.receiver.stats.acks_coalesced == 0


def test_a_burst_shares_one_paced_ack_per_interval():
    pair = Pair(loses())
    pair.send_stream(10, spacing=0.01)
    pair.run()
    pair.assert_released_in_order(10)
    # The first arrival is answered at once; the nine behind it land
    # inside its interval and share the ack that closes it.
    assert pair.pure_acks() == [(LATENCY, 0, False),
                                (LATENCY + ACK_INTERVAL, 9, False)]
    assert pair.receiver.stats.acks_sent == 2
    assert pair.receiver.stats.acks_coalesced == 9
    assert pair.retransmits() == []


def test_reverse_data_inside_the_interval_carries_the_ack():
    pair = Pair(loses())
    pair.send_stream(2, spacing=0.01)
    pair.sim.run(until=LATENCY + 0.01)
    link = pair.receiver._links[SENDER]
    assert link.ack_timer is not None
    pending = pair.sim.pending_events
    pair.sim.schedule(LATENCY + 0.02, lambda: pair.receiver.send(SENDER, "r0"))
    pair.sim.run(until=LATENCY + 0.02)
    data = [packet for _, source, packet in pair.wire
            if source == RECEIVER and packet.seq >= 0]
    assert [(packet.seq, packet.ack) for packet in data] == [(0, 1)]
    # The paced ack is cancelled; what was added is r0's delivery and
    # the receiver's own retransmit timer.
    assert link.ack_timer is None
    assert pair.sim.pending_events == pending - 1 + 2
    pair.run()
    assert pair.pure_acks() == [(LATENCY, 0, False)]
    assert pair.retransmits() == []


def test_data_that_repeats_the_last_ack_buys_no_delay():
    """Only an ack that is news restarts the peer's retransmit clock, so
    only such a packet opens an interval: pacing behind plain reverse
    data would spend headroom nobody granted (a clean network with
    one-way latency near ``BASE_RTO / 2`` would see a timer resend)."""
    pair = Pair(loses())
    pair.sim.schedule(LATENCY - 0.01, lambda: pair.receiver.send(SENDER, "r0"))
    pair.send_stream(1, spacing=0.0)
    pair.run()
    assert pair.pure_acks() == [(LATENCY, 0, False)]


def test_a_gap_inside_the_interval_is_reported_at_once():
    pair = Pair(loses((1, 0)))
    pair.send_stream(3, spacing=0.01)
    pair.run()
    pair.assert_released_in_order(3)
    assert pair.retransmits() == [("gap", 1, pytest.approx(0.02 + 2 * LATENCY))]
    assert pair.pure_acks() == [
        (LATENCY, 0, False),
        (LATENCY + 0.02, 0, True),  # seq 2 held: the sender is owed the report
        (0.02 + 3 * LATENCY, 2, False),  # the repair drained it: told at once too
    ]


def test_packets_held_above_a_reported_head_share_one_paced_report():
    pair = Pair(loses((1, 0), (1, 1)))
    pair.send_stream(6, spacing=0.01)
    pair.run()
    pair.assert_released_in_order(6)
    # Seq 2 opened the gap and said so; seqs 3-5 land above the same
    # head inside that report's interval, and the sender acts on a
    # head's report once, so all they are owed is one retry of it.
    opened = LATENCY + 0.02
    assert pair.retransmits() == [
        ("gap", 1, pytest.approx(opened + LATENCY)),  # lost: the script's (1, 1)
        ("timer", 1, pytest.approx(2 * LATENCY + BASE_RTO)),
    ]
    assert pair.pure_acks() == [
        (LATENCY, 0, False),
        (opened, 0, True),
        (opened + ACK_INTERVAL, 0, True),
        (3 * LATENCY + BASE_RTO, 5, False),
    ]
    assert pair.receiver.stats.out_of_order_held == 4
    assert pair.receiver.stats.acks_coalesced == 3


def test_a_repair_that_drains_first_leaves_no_repeat_report():
    pair = Pair(loses((1, 0)))
    pair.send_stream(6, spacing=0.01)
    pair.run()
    pair.assert_released_in_order(6)
    # The repair is back one round trip after the report, inside its
    # interval: the ack it draws cancels the retry seqs 3-5 had armed.
    assert 2 * LATENCY < ACK_INTERVAL
    assert pair.retransmits() == [("gap", 1, pytest.approx(0.02 + 2 * LATENCY))]
    assert pair.pure_acks() == [
        (LATENCY, 0, False),
        (LATENCY + 0.02, 0, True),
        (0.02 + 3 * LATENCY, 5, False),
    ]
    assert pair.receiver.stats.acks_coalesced == 3


def test_a_lost_first_report_is_retried_by_the_ack_timer():
    pair = Pair(loses_first_report((1, 0)))
    pair.send_stream(4, spacing=0.01)
    pair.run()
    pair.assert_released_in_order(4)
    # Seq 3, held behind the report that never arrived, armed its retry:
    # the repair is one ack interval late, not one retransmit timeout.
    retried = LATENCY + 0.02 + ACK_INTERVAL
    assert pair.pure_acks()[1:3] == [(LATENCY + 0.02, 0, True), (retried, 0, True)]
    assert pair.retransmits() == [("gap", 1, pytest.approx(retried + LATENCY))]


def test_a_held_arrival_after_a_quiet_interval_reports_at_once():
    pair = Pair(loses((1, 0), (1, 1)))
    late = 0.02 + 2 * ACK_INTERVAL
    pair.send_at(0.0, 0.01, 0.02, late)
    pair.run()
    pair.assert_released_in_order(4)
    # Nothing has told the sender anything since seq 2's report: seq 3
    # is an isolated arrival and its report waits for nobody.
    assert pair.pure_acks()[:3] == [
        (LATENCY, 0, False),
        (LATENCY + 0.02, 0, True),
        (LATENCY + late, 0, True),
    ]
    assert pair.receiver.stats.acks_coalesced == 0


def test_reverse_data_while_holding_carries_the_gap_report():
    pair = Pair(loses_first_report((1, 0)))
    pair.send_stream(4, spacing=0.01)
    pair.sim.run(until=LATENCY + 0.03)
    link = pair.receiver._links[SENDER]
    assert link.ack_timer is not None  # seq 3's retry of the lost report
    pair.sim.schedule(LATENCY + 0.04, lambda: pair.receiver.send(SENDER, "r0"))
    pair.sim.run(until=LATENCY + 0.04)
    (r0,) = [packet for _, source, packet in pair.wire
             if source == RECEIVER and packet.seq >= 0]
    assert (r0.ack, r0.gap) == (0, True)
    assert link.ack_timer is None
    pair.run()
    pair.assert_released_in_order(4)
    # The data was the retry: the sender repaired on its arrival, and
    # the only pure acks are the three any single loss costs.
    assert pair.retransmits() == [("gap", 1, pytest.approx(2 * LATENCY + 0.04))]
    assert pair.pure_acks() == [
        (LATENCY, 0, False),
        (LATENCY + 0.02, 0, True),  # lost
        (3 * LATENCY + 0.04, 3, False),
    ]


def test_duplicates_inside_the_interval_share_one_paced_re_ack():
    """A network duplicate arrives on the heels of the original, whose
    ack is still fresh: however many there are, one re-ack covers them."""
    pair = Pair(loses())
    pair.send_stream(1, spacing=0.0)
    for later in (0.01, 0.02, 0.03):
        pair.sim.schedule(LATENCY + later,
                          lambda: pair.receiver.on_wire(data_from_sender(0, "p0")))
    pair.run()
    assert pair.pure_acks() == [(LATENCY, 0, False),
                                (LATENCY + ACK_INTERVAL, 0, False)]
    assert pair.receiver.stats.duplicates_discarded == 3
    assert pair.receiver.stats.acks_coalesced == 3


def test_a_duplicate_after_a_quiet_interval_is_re_acked_at_once():
    """A timer resend arrives at least ``BASE_RTO`` after the ack it
    missed (end to end: test_lost_acks_cost_one_timer_resend_not_the_window)."""
    pair = Pair(loses())
    pair.send_stream(1, spacing=0.0)
    pair.sim.schedule(LATENCY + ACK_INTERVAL,
                      lambda: pair.receiver.on_wire(data_from_sender(0, "p0")))
    pair.run()
    assert pair.pure_acks() == [(LATENCY, 0, False),
                                (LATENCY + ACK_INTERVAL, 0, False)]
    assert pair.receiver.stats.duplicates_discarded == 1
    assert pair.receiver.stats.acks_coalesced == 0


def test_a_probe_inside_the_interval_is_answered_at_once():
    pair = Pair(loses())
    pair.send_stream(1, spacing=0.0)
    verdicts: list[str] = []
    pair.sim.schedule(0.01, lambda: pair.sender.probe_peer(
        RECEIVER, lambda peer: verdicts.append("alive"),
        lambda peer: verdicts.append("dead")))
    pair.run()
    assert pair.pure_acks() == [(LATENCY, 0, False), (LATENCY + 0.01, 0, False)]
    assert verdicts == ["alive"]


def lone_receiver(*seqs: int):
    """A lone endpoint handed ``seqs`` from the sender at time zero."""
    sim = Simulator()
    sent: list[ReliablePacket] = []
    endpoint = ReliableEndpoint(
        sim, RECEIVER, ReliabilityConfig(),
        wire_send=lambda dest, packet, ts_bytes, kind: sent.append(packet),
        deliver=lambda env: None)
    for seq in seqs:
        endpoint.on_wire(data_from_sender(seq, f"p{seq}"))
    assert endpoint._links[SENDER].ack_timer is not None
    assert sim.pending_events == 1
    return sim, endpoint, sent


def discard_link(endpoint: ReliableEndpoint, how: str,
                 sent: list[ReliablePacket]) -> None:
    if how == "go_down":
        endpoint.go_down()
    elif how == "abandon_peer":
        endpoint.abandon_peer(SENDER)
    else:
        # The peer restarted: its first packet of epoch 1 voids the link
        # (reset_link) and, on a fresh link, is acknowledged at once.
        told = len(sent)
        endpoint.on_wire(data_from_sender(0, "q0", epoch=1))
        assert [(packet.epoch, packet.ack, packet.gap)
                for packet in sent[told:]] == [(1, 0, False)]


DISCARDS = ["go_down", "abandon_peer", "epoch_bump"]


@pytest.mark.parametrize("discard", DISCARDS)
def test_a_discarded_link_owes_no_ack(discard):
    # Seq 0 was acked on arrival; seq 1 is owed a paced ack.
    sim, endpoint, sent = lone_receiver(0, 1)
    assert [packet.ack for packet in sent] == [0]
    discard_link(endpoint, discard, sent)
    assert sim.pending_events == 0
    told = len(sent)
    assert sim.run() == 0 and len(sent) == told


@pytest.mark.parametrize("discard", DISCARDS)
def test_a_discarded_link_owes_no_repeat_report(discard):
    # Seq 1 opened a gap and reported it; seq 2, held above the same
    # head, is owed the paced retry of that report.
    sim, endpoint, sent = lone_receiver(1, 2)
    assert [(packet.ack, packet.gap) for packet in sent] == [(-1, True)]
    assert endpoint.holdback_depth() == 2
    discard_link(endpoint, discard, sent)
    assert sim.pending_events == 0 and endpoint.holdback_depth() == 0
    told = len(sent)
    assert sim.run() == 0 and len(sent) == told
