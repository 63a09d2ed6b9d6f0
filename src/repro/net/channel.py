"""FIFO channels with pluggable latency models.

The paper's correctness arguments (the simplification of formula 4 to 5
and of formula 6 to 7) rest on the FIFO property of TCP connections.
:class:`FIFOChannel` guarantees it under *any* latency model by clamping
each delivery time to be no earlier than the previous delivery on the
same channel -- exactly how a TCP byte stream behaves when packets are
reordered underneath it.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.net.scheduler import Scheduler
from repro.net.transport import INT_WIDTH, Envelope, measure_payload_bytes

HEADER_BYTES = 2 * INT_WIDTH  # an envelope's source and dest


class LatencyModel:
    """Strategy object producing a one-way latency sample per message."""

    def sample(self) -> float:
        raise NotImplementedError


@dataclass
class FixedLatency(LatencyModel):
    """Constant latency (useful for scripted, order-exact scenarios)."""

    latency: float

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")

    def sample(self) -> float:
        return self.latency


@dataclass
class UniformLatency(LatencyModel):
    """Uniform latency in ``[low, high)`` from a seeded RNG."""

    low: float
    high: float
    rng: random.Random = field(default_factory=lambda: random.Random(0))

    def __post_init__(self) -> None:
        if not 0 <= self.low <= self.high:
            raise ValueError(f"need 0 <= low <= high, got [{self.low}, {self.high})")

    def sample(self) -> float:
        return self.rng.uniform(self.low, self.high)


@dataclass
class JitterLatency(LatencyModel):
    """Log-normal latency: a long-tailed Internet-like model."""

    median: float = 0.05
    sigma: float = 0.6
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    mu: float = field(init=False, repr=False)  # log(median), the lognormal's location

    def __post_init__(self) -> None:
        if self.median <= 0:
            raise ValueError(f"median must be > 0, got {self.median}")
        self.mu = math.log(self.median)

    def sample(self) -> float:
        return self.rng.lognormvariate(self.mu, self.sigma)


@dataclass
class ChannelStats:
    """Per-channel delivery accounting."""

    messages: int = 0
    total_bytes: int = 0
    timestamp_bytes: int = 0
    payload_bytes: int = 0


class Channel:
    """What every channel does before it moves a message, written once.

    :meth:`_admit` checks the addressing, assigns the message id and
    counts the model bytes: :data:`HEADER_BYTES`, the payload's sizer,
    and the ``clock_bytes`` its type declares (0 if it carries no clock).
    """

    def __init__(self, sim: Scheduler, source: int, dest: int) -> None:
        self.sim = sim
        self.source = source
        self.dest = dest
        self.stats = ChannelStats()

    def _admit(self, envelope: Envelope) -> None:
        if envelope.source != self.source or envelope.dest != self.dest:
            raise ValueError(
                f"envelope addressed {envelope.source}->{envelope.dest} sent on "
                f"channel {self.source}->{self.dest}"
            )
        if envelope.message_id is None:
            envelope.message_id = self.sim.next_message_id()
        payload = envelope.payload
        payload_bytes = measure_payload_bytes(payload)
        clock_bytes = getattr(payload, "clock_bytes", 0)
        stats = self.stats
        stats.messages += 1
        stats.total_bytes += HEADER_BYTES + payload_bytes + clock_bytes
        stats.timestamp_bytes += clock_bytes
        stats.payload_bytes += payload_bytes


class FIFOChannel(Channel):
    """A unidirectional FIFO channel between two simulated processes.

    Messages sent through :meth:`send` are delivered to ``on_deliver``
    in send order; each delivery time is ``max(now + latency,
    last_delivery)`` so FIFO holds even when latency samples would
    reorder messages.
    """

    def __init__(
        self,
        sim: Scheduler,
        source: int,
        dest: int,
        latency: LatencyModel,
        on_deliver: Callable[[Envelope], None],
    ) -> None:
        super().__init__(sim, source, dest)
        self.latency = latency
        self.on_deliver = on_deliver
        self._last_delivery = 0.0
        # Scheduled deliveries not yet fired, oldest first; one firing
        # out of that order broke FIFO, and that is remembered.
        self._in_flight: deque[int | None] = deque()
        self._fifo_violated = False

    def send(self, envelope: Envelope) -> float:
        """Enqueue ``envelope``; returns its delivery time."""
        self._admit(envelope)
        return self._schedule_delivery(envelope)

    def _schedule_delivery(self, envelope: Envelope) -> float:
        """Schedule one delivery of ``envelope``, clamped to FIFO order."""
        delivery = max(self.sim.now + self.latency.sample(), self._last_delivery)
        self._last_delivery = delivery
        self._in_flight.append(envelope.message_id)
        self.sim.schedule(delivery, self._deliver, envelope)
        return delivery

    def _deliver(self, envelope: Envelope) -> None:
        """One scheduled delivery, audited against send order; ``on_deliver``
        is read now, so a hook rebound after construction sees it."""
        if self._in_flight.popleft() != envelope.message_id:
            self._fifo_violated = True
        self.on_deliver(envelope)

    def fifo_respected(self) -> bool:
        """True iff every delivery so far happened in send order."""
        return not self._fifo_violated
