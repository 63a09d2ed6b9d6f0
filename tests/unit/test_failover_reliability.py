"""Unit tests for the failover-detection primitives of the transport.

Three mechanisms were added to :mod:`repro.net.reliability` for notifier
failover, each tested here in isolation (the end-to-end election and
promotion protocol lives in ``tests/integration/test_failover.py``):

* the bounded retransmit budget -- after ``MAX_RETRIES`` consecutive
  rounds without acknowledgement progress the endpoint declares the
  peer dead (``on_peer_dead`` fires once), parks the link, and
  resurrects it automatically if the peer ever speaks again;
* the bounded liveness probe (:meth:`ReliableEndpoint.probe_peer`)
  used to confirm a death suspicion before electing a successor;
* the hold-back queue capacity bound (:class:`HoldbackOverflow`).

Every budget is the module constant production runs.
"""

from __future__ import annotations

import math

import pytest

from repro.net.faults import ChannelFaults, FaultPlan, NotifierCrash
from repro.net.holdback import HoldbackOverflow, HoldbackQueue
from repro.net.reliability import (
    BASE_RTO,
    HOLDBACK_LIMIT,
    MAX_PROBES,
    MAX_RETRIES,
    PROBE_INTERVAL,
    ReliablePacket,
    ReliableEndpoint,
)
from repro.net.simulator import Simulator
from repro.net.transport import Envelope


def blackhole(dest, payload):
    """A wire that loses everything: the peer never hears us."""


def make_endpoint(sim, pid=1, wire_send=blackhole):
    delivered = []
    endpoint = ReliableEndpoint(
        sim, pid, wire_send=wire_send, deliver=delivered.append
    )
    return endpoint, delivered


def arrival(endpoint, source, packet):
    """Feed one packet into the endpoint as if the network delivered it."""
    endpoint.on_wire(
        Envelope(source=source, dest=endpoint.pid, payload=packet)
    )


class TestRetransmitBudget:
    def test_budget_exhaustion_reports_the_death_once(self):
        sim = Simulator()
        endpoint, _ = make_endpoint(sim)
        deaths = []
        endpoint.on_peer_dead = deaths.append
        endpoint.send(9, "payload")
        sim.run()
        assert deaths == [9]
        assert endpoint.stats.give_ups == 1
        assert endpoint.stats.retransmits == MAX_RETRIES  # exactly the budget

    def test_give_up_quiesces_the_simulator(self):
        """A dead link must not keep a retransmit timer armed forever."""
        sim = Simulator()
        endpoint, _ = make_endpoint(sim)
        endpoint.on_peer_dead = lambda peer: None
        endpoint.send(9, "payload")
        sim.run()
        assert sim.pending_events == 0

    def test_sends_to_a_dead_peer_are_parked_not_wired(self):
        sim = Simulator()
        wired = []
        endpoint, _ = make_endpoint(
            sim, wire_send=lambda dest, payload: wired.append(payload),
        )
        endpoint.on_peer_dead = lambda peer: None
        endpoint.send(9, "first")
        sim.run()
        before = len(wired)
        endpoint.send(9, "second")  # parked in the send window
        sim.run()
        assert len(wired) == before
        assert endpoint.stats.sent == 2

    def test_any_arrival_resurrects_a_parked_link(self):
        sim = Simulator()
        wired = []
        endpoint, _ = make_endpoint(
            sim, wire_send=lambda dest, payload: wired.append(payload),
        )
        endpoint.on_peer_dead = lambda peer: None
        endpoint.send(9, "first")
        sim.run()
        endpoint.send(9, "second")  # parked while dead
        parked = len(wired)
        # The peer speaks (a bare ack of nothing): proof of life.
        arrival(endpoint, 9, ReliablePacket(seq=-1, epoch=0, ack=-1))
        sim.run(until=sim.now + 2 * BASE_RTO)  # the window retransmits
        assert len(wired) > parked
        assert endpoint.stats.give_ups == 1  # the death was not re-reported

    def test_ack_progress_refills_the_budget(self):
        sim = Simulator()
        endpoint, _ = make_endpoint(sim)
        deaths = []
        endpoint.on_peer_dead = deaths.append
        endpoint.send(9, "payload")
        sim.run(until=1.5 * BASE_RTO)  # burn part of the budget (one round)
        assert endpoint.stats.retransmits >= 1
        arrival(endpoint, 9, ReliablePacket(seq=-1, epoch=0, ack=0))  # acked
        sim.run()
        assert deaths == []
        assert endpoint.stats.give_ups == 0


class TestLivenessProbe:
    def test_silence_through_the_budget_means_dead(self):
        sim = Simulator()
        endpoint, _ = make_endpoint(sim)
        alive, dead = [], []
        endpoint.probe_peer(9, on_alive=alive.append, on_dead=dead.append)
        sim.run()
        assert dead == [9] and alive == []
        assert endpoint.stats.probes_sent == MAX_PROBES
        assert sim.pending_events == 0  # bounded: the probe quiesced

    def test_any_arrival_resolves_the_probe_as_alive(self):
        sim = Simulator()
        endpoint, _ = make_endpoint(sim)
        alive, dead = [], []
        endpoint.probe_peer(9, on_alive=alive.append, on_dead=dead.append)
        sim.schedule(
            1.5 * PROBE_INTERVAL,
            lambda: arrival(endpoint, 9, ReliablePacket(seq=-1, epoch=0, ack=-1)),
        )
        sim.run()
        assert alive == [9] and dead == []
        assert endpoint.stats.probes_sent < MAX_PROBES

    def test_two_live_endpoints_answer_each_others_probes(self):
        sim = Simulator()
        a = ReliableEndpoint(sim, 1, wire_send=blackhole, deliver=lambda env: None)
        b = ReliableEndpoint(sim, 2, wire_send=blackhole, deliver=lambda env: None)

        def wire(src, dst):
            def send(dest, payload):
                env = Envelope(source=src.pid, dest=dest, payload=payload)
                sim.schedule_after(0.02, lambda: dst.on_wire(env))

            return send

        a.wire_send = wire(a, b)
        b.wire_send = wire(b, a)
        alive, dead = [], []
        a.probe_peer(2, on_alive=alive.append, on_dead=dead.append)
        sim.run()
        assert alive == [2] and dead == []

    def test_probe_packets_are_unsequenced(self):
        with pytest.raises(ValueError):
            ReliablePacket(seq=3, epoch=0, ack=-1, probe=True)


class TestHoldbackCapacity:
    def test_overflow_raises_at_the_high_water_mark(self):
        queue = HoldbackQueue(capacity=2)
        queue.hold("s", 5, "a")
        queue.hold("s", 7, "b")
        with pytest.raises(HoldbackOverflow) as excinfo:
            queue.hold("s", 9, "c")
        assert str(excinfo.value) == (
            "hold-back queue over capacity 2: cannot hold (stream='s', seq=9)")
        assert len(queue) == 2  # the overflowing item was not held

    def test_pop_frees_capacity(self):
        queue = HoldbackQueue(capacity=1)
        queue.hold("s", 5, "a")
        assert queue.pop("s", 5) == "a"
        assert queue.hold("s", 6, "b")  # no overflow after the pop

    def test_duplicate_slot_is_rejected_before_the_capacity_check(self):
        queue = HoldbackQueue(capacity=1)
        queue.hold("s", 5, "a")
        assert queue.hold("s", 5, "dup") is False  # no HoldbackOverflow

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            HoldbackQueue(capacity=0)

    def test_endpoint_holdback_limit_bounds_the_reorder_buffer(self):
        sim = Simulator()
        endpoint, _ = make_endpoint(sim)
        # seq 0 never arrives: everything above it is held back.
        for seq in range(1, HOLDBACK_LIMIT + 1):
            arrival(endpoint, 9, ReliablePacket(seq=seq, epoch=0, ack=-1, payload="x"))
        with pytest.raises(HoldbackOverflow):
            arrival(endpoint, 9, ReliablePacket(
                seq=HOLDBACK_LIMIT + 1, epoch=0, ack=-1, payload="x"))


class TestConfigAndPlanValidation:
    def test_an_outage_must_end(self):
        for end in (math.inf, math.nan):
            with pytest.raises(ValueError):
                ChannelFaults(outages=((3.0, end),))

    def test_notifier_crash_validated(self):
        with pytest.raises(ValueError):
            NotifierCrash(at=-1.0)

    def test_fault_plan_carries_the_notifier_crash(self):
        plan = FaultPlan(notifier_crash=NotifierCrash(at=3.0))
        assert plan.notifier_crash.at == 3.0
        assert FaultPlan().notifier_crash is None
