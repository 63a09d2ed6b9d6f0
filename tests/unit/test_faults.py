"""Unit tests for the seeded fault-injection layer (repro.net.faults)."""

import pytest

from repro.net.channel import FixedLatency
from repro.net.faults import ChannelFaults, ClientCrash, FaultPlan, FaultyChannel
from repro.net.reliability import ReliablePacket
from repro.net.simulator import Simulator
from repro.net.transport import Envelope


def build_channel(faults, seed=0, source=0, dest=1):
    plan = FaultPlan(seed=seed, default=faults)
    sim = Simulator()
    delivered = []
    channel = FaultyChannel(
        sim,
        source,
        dest,
        FixedLatency(0.01),
        delivered.append,
        faults=plan.faults_for(source, dest),
        rng=plan.rng_for(source, dest),
    )
    return sim, channel, delivered


class TestValidation:
    def test_drop_p_range(self):
        with pytest.raises(ValueError):
            ChannelFaults(drop_p=1.0)
        with pytest.raises(ValueError):
            ChannelFaults(drop_p=-0.1)

    def test_dup_p_range(self):
        with pytest.raises(ValueError):
            ChannelFaults(dup_p=1.5)

    def test_outage_windows(self):
        with pytest.raises(ValueError):
            ChannelFaults(outages=((2.0, 1.0),))
        with pytest.raises(ValueError):
            ChannelFaults(outages=((-1.0, 1.0),))

    def test_crash_validation(self):
        with pytest.raises(ValueError):
            ClientCrash(site=0, at=1.0, restart_at=2.0)  # the notifier cannot crash
        with pytest.raises(ValueError):
            ClientCrash(site=1, at=2.0, restart_at=1.0)

    def test_in_outage_is_half_open(self):
        faults = ChannelFaults(outages=((1.0, 2.0),))
        assert not faults.in_outage(0.5)
        assert faults.in_outage(1.0)
        assert faults.in_outage(1.999)
        assert not faults.in_outage(2.0)


class TestFaultPlan:
    def test_per_channel_override(self):
        special = ChannelFaults(drop_p=0.5)
        plan = FaultPlan(per_channel={(0, 2): special})
        assert plan.faults_for(0, 2) is special
        assert plan.faults_for(0, 1) is plan.default

    def test_rng_deterministic_and_per_channel(self):
        plan_a = FaultPlan(seed=42)
        plan_b = FaultPlan(seed=42)
        draws_a = [plan_a.rng_for(0, 1).random() for _ in range(5)]
        draws_b = [plan_b.rng_for(0, 1).random() for _ in range(5)]
        assert draws_a == draws_b
        # distinct channels (and directions) decorrelate
        assert plan_a.rng_for(0, 1).random() != plan_a.rng_for(1, 0).random()
        assert plan_a.rng_for(0, 1).random() != plan_a.rng_for(0, 2).random()

    def test_channel_factory_builds_faulty_channels(self):
        plan = FaultPlan(seed=1, default=ChannelFaults(drop_p=0.3))
        sim = Simulator()
        channel = plan.channel_factory()(sim, 0, 1, FixedLatency(0.01), lambda e: None)
        assert isinstance(channel, FaultyChannel)
        assert channel.faults.drop_p == 0.3


class TestFaultyChannel:
    def test_lossless_plan_delivers_everything(self):
        sim, channel, delivered = build_channel(ChannelFaults())
        for _ in range(20):
            channel.send(Envelope(0, 1, None))
        sim.run()
        assert len(delivered) == 20
        assert channel.fault_stats.dropped == 0
        assert channel.fault_stats.duplicated == 0

    def test_drops_are_counted_and_seeded(self):
        results = []
        for _ in range(2):
            sim, channel, delivered = build_channel(ChannelFaults(drop_p=0.5), seed=9)
            for _ in range(100):
                channel.send(Envelope(0, 1, None))
            sim.run()
            results.append((len(delivered), channel.fault_stats.dropped))
        assert results[0] == results[1]  # same seed, same fault sequence
        delivered_n, dropped = results[0]
        assert dropped > 0
        assert delivered_n + dropped == 100
        # wire accounting charges the send either way (the sender paid)
        assert channel.stats.messages == 100

    def test_duplicates_delivered_in_order(self):
        sim, channel, delivered = build_channel(ChannelFaults(dup_p=1.0))
        ids = []
        for _ in range(5):
            env = Envelope(0, 1, None)
            channel.send(env)
            ids.append(env.message_id)
        sim.run()
        assert channel.fault_stats.duplicated == 5
        assert [e.message_id for e in delivered] == [i for i in ids for _ in range(2)]
        assert channel.fifo_respected()

    def test_a_pure_ack_is_told_apart_by_its_payload(self):
        """An unsequenced reliability packet (an ack or a probe) is an
        ack; a sequenced one is data, and so is an unwrapped message."""
        sim, channel, _ = build_channel(ChannelFaults(outages=((0.0, 1.0),)))
        for payload in (ReliablePacket(-1, 0, 3), ReliablePacket(-1, 0, 3, probe=True),
                        ReliablePacket(0, 0, -1), ReliablePacket(1, 0, -1, "edit"),
                        "edit", None):
            channel.send(Envelope(0, 1, payload))
        sim.run()
        stats = channel.fault_stats
        assert (stats.acks_outage_dropped, stats.outage_dropped) == (2, 4)
        assert (stats.lost_acks(), stats.lost()) == (2, 4)

    def test_outage_loses_everything_inside_the_window(self):
        sim, channel, delivered = build_channel(
            ChannelFaults(outages=((1.0, 2.0),))
        )
        for at in (0.5, 1.5, 2.5):
            sim.schedule(at, lambda: channel.send(Envelope(0, 1, None)))
        sim.run()
        assert len(delivered) == 2
        assert channel.fault_stats.outage_dropped == 1

    def test_fifo_respected_despite_drops(self):
        """Drops create gaps, not reorderings: the delivered stream must
        still be a prefix-order subsequence, so the FIFO audit holds."""
        sim, channel, delivered = build_channel(ChannelFaults(drop_p=0.4), seed=3)
        for _ in range(50):
            channel.send(Envelope(0, 1, None))
        sim.run()
        assert channel.fifo_respected()
        assert channel.fault_stats.dropped > 0
        message_ids = [e.message_id for e in delivered]
        assert message_ids == sorted(message_ids)
