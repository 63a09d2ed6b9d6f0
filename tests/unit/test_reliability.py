"""Loss-proportional repair: what one loss, one lost ack and one outage cost.

Two :class:`ReliableEndpoint`s joined by a scripted wire of fixed
latency (so it never reorders, like every network this layer runs on).
The script drops chosen copies of chosen packets; the tests then count
retransmits exactly and read when the receiver released what.
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
BASE_RTO = ReliabilityConfig().base_rto
SENDER, RECEIVER = 1, 2

Drop = Callable[[int, ReliablePacket, int], bool]  # (source, packet, copy) -> lose it?


class Pair:
    """A sender and a receiver over a scripted lossy, order-keeping wire."""

    def __init__(self, drop: Drop) -> None:
        self.sim = Simulator()
        self.drop = drop
        self.copies: Counter[tuple[int, int]] = Counter()
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
            if self.drop(source, packet, copy):
                return
            envelope = Envelope(source=source, dest=dest, payload=packet, kind=kind)
            self.sim.schedule_after(LATENCY, lambda: peer.on_wire(envelope))

        return send

    def send_stream(self, count: int, spacing: float) -> None:
        """``count`` payloads "p0", "p1", ... from the sender, ``spacing`` apart."""
        for seq in range(count):
            self.sim.schedule(
                seq * spacing,
                lambda seq=seq: self.sender.send(RECEIVER, f"p{seq}"))

    def run(self) -> None:
        self.sim.run()
        assert self.sim.pending_events == 0
        assert not self.sender.inflight()

    def retransmits(self) -> list[tuple[str, int, float]]:
        """``(via, seq, time)`` of every retransmit the sender made."""
        return [(event.via, event.seq, event.time)
                for event in self.tracer.by_kind(TraceEventKind.RETRANSMITTED)]

    def assert_released_in_order(self, count: int) -> None:
        assert [payload for payload, _ in self.released] == [
            f"p{seq}" for seq in range(count)]
        assert self.receiver.delivered_in_order()


def loses(*lost: tuple[int, int]) -> Drop:
    """Drop the listed ``(seq, copy)`` transmissions of the sender's data."""
    return lambda source, packet, copy: (
        source == SENDER and (packet.seq, copy) in lost)


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
    # The clock restarted at the last ack progress: seq 2's ack.
    assert at_b == pytest.approx(0.02 + 2 * LATENCY + BASE_RTO)


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
