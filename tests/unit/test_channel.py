"""Unit tests for FIFO channels and latency models (repro.net.channel)."""

import math
import random

import pytest

from repro.net.channel import (
    FIFOChannel,
    FixedLatency,
    JitterLatency,
    UniformLatency,
)
from repro.net.simulator import Simulator
from repro.net.transport import Envelope


class Stamped(str):
    """A string payload that declares an 8-byte clock: the channel
    charges the clock its type names, whatever the payload's sizer."""

    clock_bytes = 8


def make_channel(sim, latency, received):
    return FIFOChannel(sim, 1, 2, latency, received.append)


class TestLatencyModels:
    def test_fixed(self):
        assert FixedLatency(0.25).sample() == 0.25

    def test_fixed_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedLatency(-1.0)

    def test_uniform_in_range_and_seeded(self):
        model = UniformLatency(0.1, 0.5, random.Random(5))
        samples = [model.sample() for _ in range(100)]
        assert all(0.1 <= s < 0.5 for s in samples)
        model2 = UniformLatency(0.1, 0.5, random.Random(5))
        assert samples == [model2.sample() for _ in range(100)]

    def test_uniform_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            UniformLatency(0.5, 0.1)

    def test_jitter_positive_and_seeded(self):
        model = JitterLatency(0.05, 0.6, random.Random(1))
        samples = [model.sample() for _ in range(50)]
        assert all(s > 0 for s in samples)
        model2 = JitterLatency(0.05, 0.6, random.Random(1))
        assert samples == [model2.sample() for _ in range(50)]

    def test_jitter_draws_lognormal_of_log_median(self):
        """Bit-identical to the draw every golden percentile was cut on."""
        model = JitterLatency(0.08, 0.6, random.Random(7))
        rng = random.Random(7)
        expected = [rng.lognormvariate(math.log(0.08), 0.6) for _ in range(20)]
        assert [model.sample() for _ in range(20)] == expected

    def test_jitter_rejects_nonpositive_median(self):
        with pytest.raises(ValueError):
            JitterLatency(0.0)


class TestFIFOChannel:
    def test_delivers_payload(self):
        sim = Simulator()
        received = []
        channel = make_channel(sim, FixedLatency(0.5), received)
        channel.send(Envelope(1, 2, "hello"))
        sim.run()
        assert [e.payload for e in received] == ["hello"]
        assert sim.now == 0.5

    def test_fifo_under_adversarial_latency(self):
        """A latency model that *shrinks* over time must not reorder."""

        class ShrinkingLatency(FixedLatency):
            def __init__(self):
                super().__init__(0.0)
                self.next = 10.0

            def sample(self):
                self.next = max(self.next - 3.0, 0.1)
                return self.next

        sim = Simulator()
        received = []
        channel = FIFOChannel(sim, 1, 2, ShrinkingLatency(), received.append)
        for i in range(6):
            channel.send(Envelope(1, 2, i))
        sim.run()
        assert [e.payload for e in received] == list(range(6))
        assert channel.fifo_respected()

    def test_fifo_with_random_jitter(self):
        sim = Simulator()
        received = []
        channel = make_channel(sim, JitterLatency(0.05, 1.0, random.Random(3)), received)
        sender = []

        def send_burst(k):
            channel.send(Envelope(1, 2, k))
            sender.append(k)
            if k < 30:
                sim.schedule_after(0.01, lambda: send_burst(k + 1))

        sim.schedule(0.0, lambda: send_burst(0))
        sim.run()
        assert [e.payload for e in received] == sender
        assert channel.fifo_respected()

    def test_fifo_audit_keeps_only_undelivered_ids(self):
        sim = Simulator()
        channel = make_channel(sim, FixedLatency(0.5), [])
        for i in range(100):
            channel.send(Envelope(1, 2, i))
        assert len(channel._in_flight) == 100
        sim.run()
        assert not channel._in_flight
        assert channel.fifo_respected()

    def test_fifo_violation_is_detected_and_remembered(self):
        sim = Simulator()
        received = []
        channel = make_channel(sim, FixedLatency(1.0), received)
        channel.send(Envelope(1, 2, "first"))
        # Break the clamp the way a buggy channel would: schedule the
        # next delivery ahead of one already in flight.
        channel.latency = FixedLatency(0.1)
        channel._last_delivery = 0.0
        channel.send(Envelope(1, 2, "overtakes"))
        sim.run()
        assert [e.payload for e in received] == ["overtakes", "first"]
        assert not channel.fifo_respected()
        channel.latency = FixedLatency(1.0)
        channel.send(Envelope(1, 2, "in order again"))
        sim.run()
        assert not channel.fifo_respected()

    def test_every_delivery_schedules_the_one_bound_callback(self):
        """A delivery carries the channel's callback bound at
        construction, not a bound method made per message; the hook it
        calls is still read when it fires."""
        scheduled = []

        class Recording(Simulator):
            def schedule(self, time, callback, *args):
                scheduled.append(callback)
                return super().schedule(time, callback, *args)

        sim = Recording()
        received = []
        channel = make_channel(sim, FixedLatency(0.1), [])
        channel.send(Envelope(1, 2, "a"))
        channel.on_deliver = received.append  # rebound after construction
        channel.send(Envelope(1, 2, "b"))
        sim.run()
        assert len(scheduled) == 2 and scheduled[0] is scheduled[1]
        assert [e.payload for e in received] == ["a", "b"]
        assert channel.fifo_respected()

    def test_wrong_addressing_rejected(self):
        sim = Simulator()
        channel = make_channel(sim, FixedLatency(0.1), [])
        with pytest.raises(ValueError):
            channel.send(Envelope(2, 1, "backwards"))

    def test_stats_accumulate(self):
        sim = Simulator()
        channel = make_channel(sim, FixedLatency(0.1), [])
        channel.send(Envelope(1, 2, Stamped("abc")))
        channel.send(Envelope(1, 2, Stamped("de")))
        sim.run()
        assert channel.stats.messages == 2
        assert channel.stats.timestamp_bytes == 16
        # payload "abc" = 4 bytes (utf-8 + tag), "de" = 3
        assert channel.stats.payload_bytes == 7
        assert channel.stats.total_bytes == 16 + 7 + 2 * 8
