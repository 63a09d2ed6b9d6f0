"""Seeded fault injection for the simulated network.

The paper's compression argument (formulas 4->5 and 6->7) rests on FIFO
TCP channels; a production Web-based REDUCE deployment additionally
faces packet loss, duplicate delivery, burst outages and client
crash/restart.  This module injects exactly those faults *underneath*
the FIFO guarantee -- the network may lose or duplicate a message but it
never reorders what it actually delivers, which is how a TCP-like
transport misbehaves when connections drop and are re-established.

Pieces
------
* :class:`ChannelFaults` -- per-channel drop/duplicate probabilities and
  burst-outage windows;
* :class:`ClientCrash` -- a scheduled crash/restart of one client site;
* :class:`NotifierCrash` -- a scheduled permanent crash of site 0,
  recovered by successor election and promotion rather than restart;
* :class:`FaultPlan` -- a seeded, fully deterministic plan combining the
  above.  Identical plans reproduce identical fault sequences;
* :class:`FaultyChannel` -- a :class:`~repro.net.channel.FIFOChannel`
  that applies a :class:`ChannelFaults` draw to every send.

Recovery from these faults is the job of the reliability protocol in
:mod:`repro.net.reliability` (sequence numbers, retransmission,
dedup) and the editor's snapshot resynchronisation path; this module only breaks things.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

from repro.net.channel import FIFOChannel, LatencyModel
from repro.net.reliability import ReliablePacket
from repro.net.scheduler import Scheduler
from repro.net.transport import Envelope


@dataclass(frozen=True)
class ChannelFaults:
    """Fault parameters for one unidirectional channel.

    ``drop_p``/``dup_p`` are per-message probabilities; ``outages`` are
    half-open virtual-time windows ``[start, end)`` during which every
    message on the channel is lost (a burst outage / dead link).  Every
    outage ends: a permanent cut is what a crash already expresses.
    """

    drop_p: float = 0.0
    dup_p: float = 0.0
    outages: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_p < 1.0:
            raise ValueError(f"drop_p must be in [0, 1), got {self.drop_p}")
        if not 0.0 <= self.dup_p <= 1.0:
            raise ValueError(f"dup_p must be in [0, 1], got {self.dup_p}")
        for start, end in self.outages:
            if not 0 <= start < end < math.inf:
                raise ValueError(f"outage windows need 0 <= start < end < inf, got ({start}, {end})")

    def in_outage(self, now: float) -> bool:
        # A loop, not any() over a generator: asked once per send, and
        # nearly every plan has no outage window at all.
        for start, end in self.outages:
            if start <= now < end:
                return True
        return False


@dataclass(frozen=True)
class ClientCrash:
    """A scheduled crash of client ``site`` with a later restart.

    Between ``at`` and ``restart_at`` the client is down: volatile state
    (document, history buffer, pending list, state vector, reliability
    windows) is lost and every arriving message is dropped on the floor.
    On restart the client resynchronises with the notifier via the
    snapshot path.
    """

    site: int
    at: float
    restart_at: float

    def __post_init__(self) -> None:
        if self.site <= 0:
            raise ValueError(f"only client sites (>= 1) can crash, got {self.site}")
        if not 0 <= self.at < self.restart_at:
            raise ValueError(
                f"need 0 <= at < restart_at, got at={self.at}, restart_at={self.restart_at}"
            )


@dataclass(frozen=True)
class NotifierCrash:
    """A scheduled permanent crash of the notifier (site 0).

    The centre of the star goes down at ``at`` and never comes back;
    recovery is by *failover*, not restart: a surviving client detects
    the silence (retransmit-budget exhaustion, confirmed by a bounded
    liveness probe), is elected successor, reconstructs the notifier
    state from per-client contributions and re-admits every survivor
    under a new notifier epoch (see :mod:`repro.editor.failover`).

    Detection is activity-triggered -- some client must have traffic
    toward the dead centre for the retransmit budget to run out -- so a
    meaningful plan schedules the crash *before* the workload's last
    edits.
    """

    at: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"need at >= 0, got {self.at}")


@dataclass
class FaultPlan:
    """A deterministic, seeded fault schedule for one session.

    ``default`` applies to every channel unless overridden in
    ``per_channel`` (keyed by ``(source_pid, dest_pid)``).  Each channel
    draws from its own child RNG derived from ``seed`` and the channel
    endpoints, so adding a channel never perturbs another channel's
    fault sequence.
    """

    seed: int = 0
    default: ChannelFaults = field(default_factory=ChannelFaults)
    per_channel: dict[tuple[int, int], ChannelFaults] = field(default_factory=dict)
    crashes: tuple[ClientCrash, ...] = ()
    notifier_crash: NotifierCrash | None = None

    def faults_for(self, source: int, dest: int) -> ChannelFaults:
        return self.per_channel.get((source, dest), self.default)

    def rng_for(self, source: int, dest: int) -> random.Random:
        # Mix with large odd constants so (1, 2) and (2, 1) decorrelate.
        return random.Random((self.seed << 20) ^ (source * 1315423911) ^ (dest * 2654435761))

    def channel_factory(
        self,
    ) -> Callable[[Scheduler, int, int, LatencyModel, Callable[[Envelope], None]], FIFOChannel]:
        """A factory suitable for :class:`repro.net.topology.StarTopology`."""

        def build(sim, source, dest, latency, on_deliver):
            return FaultyChannel(
                sim,
                source,
                dest,
                latency,
                on_deliver,
                faults=self.faults_for(source, dest),
                rng=self.rng_for(source, dest),
            )

        return build


@dataclass
class FaultStats:
    """What the network did to one channel's traffic.

    Sequenced data packets and pure acknowledgements (unsequenced
    reliability packets, probes included) are counted separately: a
    lost data packet must be retransmitted, while a lost ack is healed
    by any later cumulative ack without retransmission -- the
    distinction the fault-tolerance invariants rest on.
    """

    dropped: int = 0
    duplicated: int = 0
    outage_dropped: int = 0
    acks_dropped: int = 0
    acks_outage_dropped: int = 0

    def lost(self) -> int:
        """Sequenced data packets the network destroyed."""
        return self.dropped + self.outage_dropped

    def lost_acks(self) -> int:
        """Pure acknowledgements the network destroyed."""
        return self.acks_dropped + self.acks_outage_dropped


class FaultyChannel(FIFOChannel):
    """A FIFO channel that loses and duplicates messages, seeded.

    Drops and duplicates are drawn per message from the channel's own
    RNG.  Delivered copies (including duplicates) keep the FIFO clamp of
    the base class, so the delivered stream is never reordered -- losses
    create gaps and duplicates create repeats, exactly the adversary the
    reliability protocol must absorb while ``fifo_respected()`` stays
    true.
    """

    def __init__(
        self,
        sim: Scheduler,
        source: int,
        dest: int,
        latency: LatencyModel,
        on_deliver: Callable[[Envelope], None],
        faults: ChannelFaults,
        rng: random.Random,
    ) -> None:
        super().__init__(sim, source, dest, latency, on_deliver)
        self.faults = faults
        self.rng = rng
        self.fault_stats = FaultStats()

    def send(self, envelope: Envelope) -> float:
        self._admit(envelope)  # the sender paid the wire cost either way
        payload = envelope.payload
        is_ack = isinstance(payload, ReliablePacket) and payload.seq < 0
        if self.faults.in_outage(self.sim.now):
            if is_ack:
                self.fault_stats.acks_outage_dropped += 1
            else:
                self.fault_stats.outage_dropped += 1
            return self.sim.now
        if self.rng.random() < self.faults.drop_p:
            if is_ack:
                self.fault_stats.acks_dropped += 1
            else:
                self.fault_stats.dropped += 1
            return self.sim.now
        delivery = self._schedule_delivery(envelope)
        if self.rng.random() < self.faults.dup_p:
            self.fault_stats.duplicated += 1
            self._schedule_delivery(envelope)
        return delivery
