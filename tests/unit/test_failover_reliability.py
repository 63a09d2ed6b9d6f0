"""Unit tests for the failover-detection primitives of the transport.

Three mechanisms were added to :mod:`repro.net.reliability` for notifier
failover, each tested here in isolation (the end-to-end election and
promotion protocol lives in ``tests/integration/test_failover.py``):

* the bounded retransmit budget -- after ``max_retries`` consecutive
  rounds without acknowledgement progress the endpoint declares the
  peer dead (``on_peer_dead`` fires once), parks the link, and
  resurrects it automatically if the peer ever speaks again;
* the bounded liveness probe (:meth:`ReliableEndpoint.probe_peer`)
  used to confirm a death suspicion before electing a successor;
* the hold-back queue capacity bound (:class:`HoldbackOverflow`).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.net.faults import FaultPlan, NotifierCrash
from repro.net.holdback import HoldbackOverflow, HoldbackQueue
from repro.net.reliability import (
    ReliabilityConfig,
    ReliablePacket,
    ReliableEndpoint,
    RetransmitPolicy,
)
from repro.net.simulator import Simulator
from repro.net.transport import Envelope


def blackhole(dest, payload, ts_bytes, kind):
    """A wire that loses everything: the peer never hears us."""


FAST = RetransmitPolicy(base_rto=0.1, max_rto=0.4)


def make_endpoint(sim, pid=1, wire_send=blackhole, max_retries=FAST.max_retries,
                  **config_kwargs):
    config = ReliabilityConfig(
        retransmit=dataclasses.replace(FAST, max_retries=max_retries),
        probe_interval=0.1, **config_kwargs
    )
    delivered = []
    endpoint = ReliableEndpoint(
        sim, pid, config, wire_send=wire_send, deliver=delivered.append
    )
    return endpoint, delivered


def arrival(endpoint, source, packet):
    """Feed one packet into the endpoint as if the network delivered it."""
    endpoint.on_wire(
        Envelope(source=source, dest=endpoint.pid, payload=packet, kind="ack")
    )


class TestRetransmitBudget:
    def test_budget_exhaustion_reports_the_death_once(self):
        sim = Simulator()
        endpoint, _ = make_endpoint(sim, max_retries=2)
        deaths = []
        endpoint.on_peer_dead = deaths.append
        endpoint.send(9, "payload")
        sim.run()
        assert deaths == [9]
        assert endpoint.stats.give_ups == 1
        assert endpoint.stats.retransmits == 2  # exactly the budget

    def test_give_up_quiesces_the_simulator(self):
        """A dead link must not keep a retransmit timer armed forever."""
        sim = Simulator()
        endpoint, _ = make_endpoint(sim, max_retries=1)
        endpoint.on_peer_dead = lambda peer: None
        endpoint.send(9, "payload")
        sim.run()
        assert sim.pending_events == 0

    def test_sends_to_a_dead_peer_are_parked_not_wired(self):
        sim = Simulator()
        wired = []
        endpoint, _ = make_endpoint(
            sim, max_retries=1,
            wire_send=lambda dest, payload, ts, kind: wired.append(payload),
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
            sim, max_retries=1,
            wire_send=lambda dest, payload, ts, kind: wired.append(payload),
        )
        endpoint.on_peer_dead = lambda peer: None
        endpoint.send(9, "first")
        sim.run()
        endpoint.send(9, "second")  # parked while dead
        parked = len(wired)
        # The peer speaks (a bare ack of nothing): proof of life.
        arrival(endpoint, 9, ReliablePacket(seq=-1, epoch=0, ack=-1))
        sim.run(until=sim.now + 0.2)  # one base RTO: window retransmits
        assert len(wired) > parked
        assert endpoint.stats.give_ups == 1  # the death was not re-reported

    def test_ack_progress_refills_the_budget(self):
        sim = Simulator()
        endpoint, _ = make_endpoint(sim, max_retries=3)
        deaths = []
        endpoint.on_peer_dead = deaths.append
        endpoint.send(9, "payload")
        sim.run(until=0.25)  # burn part of the budget (>= 1 retry round)
        assert endpoint.stats.retransmits >= 1
        arrival(endpoint, 9, ReliablePacket(seq=-1, epoch=0, ack=0))  # acked
        sim.run()
        assert deaths == []
        assert endpoint.stats.give_ups == 0

    def test_retry_forever_when_budget_is_none(self):
        sim = Simulator()
        endpoint, _ = make_endpoint(sim, max_retries=None)
        deaths = []
        endpoint.on_peer_dead = deaths.append
        endpoint.send(9, "payload")
        sim.run(until=10.0)
        assert deaths == []
        assert endpoint.stats.retransmits > 12


class TestLivenessProbe:
    def test_silence_through_the_budget_means_dead(self):
        sim = Simulator()
        endpoint, _ = make_endpoint(sim, max_probes=3)
        alive, dead = [], []
        endpoint.probe_peer(9, on_alive=alive.append, on_dead=dead.append)
        sim.run()
        assert dead == [9] and alive == []
        assert endpoint.stats.probes_sent == 3
        assert sim.pending_events == 0  # bounded: the probe quiesced

    def test_any_arrival_resolves_the_probe_as_alive(self):
        sim = Simulator()
        endpoint, _ = make_endpoint(sim, max_probes=5)
        alive, dead = [], []
        endpoint.probe_peer(9, on_alive=alive.append, on_dead=dead.append)
        sim.schedule(
            0.15,
            lambda: arrival(endpoint, 9, ReliablePacket(seq=-1, epoch=0, ack=-1)),
        )
        sim.run()
        assert alive == [9] and dead == []
        assert endpoint.stats.probes_sent < 5

    def test_two_live_endpoints_answer_each_others_probes(self):
        sim = Simulator()
        config = ReliabilityConfig(retransmit=FAST, probe_interval=0.1)
        a = ReliableEndpoint(sim, 1, config, deliver=lambda env: None)
        b = ReliableEndpoint(sim, 2, config, deliver=lambda env: None)

        def wire(src, dst):
            def send(dest, payload, ts_bytes, kind):
                env = Envelope(source=src.pid, dest=dest, payload=payload, kind=kind)
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
        assert excinfo.value.capacity == 2
        assert excinfo.value.seq == 9
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
        endpoint, _ = make_endpoint(sim, holdback_limit=2)
        # seq 0 never arrives: everything above it is held back.
        for seq in (1, 2):
            arrival(endpoint, 9, ReliablePacket(seq=seq, epoch=0, ack=-1, payload="x"))
        with pytest.raises(HoldbackOverflow):
            arrival(endpoint, 9, ReliablePacket(seq=3, epoch=0, ack=-1, payload="x"))


class TestConfigAndPlanValidation:
    def test_probe_parameters_validated(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(probe_interval=0.0)
        with pytest.raises(ValueError):
            ReliabilityConfig(max_probes=0)

    def test_retry_budget_validated(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(retransmit=RetransmitPolicy(max_retries=0))

    def test_holdback_limit_validated(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(holdback_limit=0)

    def test_notifier_crash_validated(self):
        with pytest.raises(ValueError):
            NotifierCrash(at=-1.0)

    def test_fault_plan_carries_the_notifier_crash(self):
        plan = FaultPlan(notifier_crash=NotifierCrash(at=3.0))
        assert plan.notifier_crash.at == 3.0
        assert FaultPlan().notifier_crash is None
