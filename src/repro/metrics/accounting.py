"""Timestamp and memory accounting across clock schemes (CLAIM-OVH/MEM).

The accounting model is shared by every scheme (see
:data:`repro.net.transport.INT_WIDTH`): a serialised integer costs 4
bytes.  Then per message:

* full vector clock: ``4 * N`` bytes (N = number of processes);
* Lamport scalar: 4 bytes (but cannot detect concurrency);
* Singhal-Kshemkalyani: ``8 * (entries changed since the last message
  on this channel)`` -- workload dependent, measured by replaying a
  communication pattern through real :class:`repro.clocks.sk.SKProcess`
  instances;
* compressed scheme (the paper): ``8`` bytes, constant.

Memory (resident clock-state integers per process):

* full vectors: N;
* SK: 3N (VC + last-sent + last-update);
* compressed: 2 at each client, N at the notifier only.

The memory table is not hand-computed from those formulas: it asks real
clock instances via their ``storage_ints()`` hook, so the table can
never drift from the implementations it describes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from repro.clocks.sk import SKProcess
from repro.clocks.vector import VectorClock
from repro.core.state_vector import ClientStateVector, NotifierStateVector
from repro.net.faults import FaultStats
from repro.net.reliability import ReliabilityStats
from repro.net.transport import INT_WIDTH


def full_vector_timestamp_bytes(n: int) -> int:
    """Per-message timestamp bytes for a full N-element vector clock."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return INT_WIDTH * n


def lamport_timestamp_bytes() -> int:
    """Per-message bytes for a scalar Lamport clock."""
    return INT_WIDTH


def compressed_timestamp_bytes() -> int:
    """Per-message bytes for the paper's compressed scheme: constant."""
    return 2 * INT_WIDTH


def sk_expected_timestamp_bytes(n: int, locality: float, seed: int = 0,
                                messages: int = 2000) -> float:
    """Measured mean per-message bytes for Singhal-Kshemkalyani.

    Replays a random communication pattern through real SK processes.
    ``locality`` in ``[0, 1]`` controls interaction locality: with
    probability ``locality`` a process messages a fixed neighbour,
    otherwise a uniformly random process.  High locality is SK's best
    case (few changed entries per message); low locality degrades toward
    the full vector.
    """
    if n < 2:
        raise ValueError("SK needs at least two processes")
    if not 0.0 <= locality <= 1.0:
        raise ValueError("locality must be in [0, 1]")
    rng = random.Random(seed)
    processes = [SKProcess(pid, n) for pid in range(n)]
    total_bytes = 0
    for _ in range(messages):
        sender = rng.randrange(n)
        if rng.random() < locality:
            dest = (sender + 1) % n
        else:
            dest = rng.randrange(n)
            while dest == sender:
                dest = rng.randrange(n)
        message = processes[sender].prepare_send(dest)
        total_bytes += message.size_bytes(INT_WIDTH)
        processes[dest].receive(message)
    return total_bytes / messages


@dataclass(frozen=True)
class SchemeOverhead:
    """One row of the overhead table: per-message timestamp bytes."""

    n: int
    full_vector: int
    lamport: int
    sk_local: float  # SK under high interaction locality
    sk_uniform: float  # SK under uniform (worst-ish) interaction
    compressed: int

    def as_row(self) -> str:
        return (
            f"{self.n:>6} | {self.full_vector:>10} | {self.lamport:>7} | "
            f"{self.sk_local:>10.1f} | {self.sk_uniform:>11.1f} | {self.compressed:>10}"
        )


def overhead_sweep(n_values: Iterable[int], seed: int = 0,
                   messages: int = 1000) -> list[SchemeOverhead]:
    """The CLAIM-OVH table: timestamp bytes vs system size."""
    rows = []
    for n in n_values:
        rows.append(
            SchemeOverhead(
                n=n,
                full_vector=full_vector_timestamp_bytes(n),
                lamport=lamport_timestamp_bytes(),
                sk_local=sk_expected_timestamp_bytes(n, 0.9, seed, messages),
                sk_uniform=sk_expected_timestamp_bytes(n, 0.0, seed, messages),
                compressed=compressed_timestamp_bytes(),
            )
        )
    return rows


@dataclass(frozen=True)
class MemoryComparison:
    """Resident clock-state integers per process (CLAIM-MEM)."""

    n: int
    full_vector_per_process: int
    sk_per_process: int
    compressed_client: int
    compressed_notifier: int

    def as_row(self) -> str:
        return (
            f"{self.n:>6} | {self.full_vector_per_process:>12} | "
            f"{self.sk_per_process:>8} | {self.compressed_client:>11} | "
            f"{self.compressed_notifier:>13}"
        )


def memory_comparison(n_values: Sequence[int]) -> list[MemoryComparison]:
    """The CLAIM-MEM table: clock storage per process vs system size.

    Each cell is measured on a live clock instance through its
    ``storage_ints()`` hook rather than restating the closed forms from
    the module docstring.
    """
    return [
        MemoryComparison(
            n=n,
            full_vector_per_process=VectorClock.zero(n).storage_ints(),
            sk_per_process=SKProcess(0, n).storage_ints(),
            compressed_client=ClientStateVector(1).storage_ints(),
            compressed_notifier=NotifierStateVector(n).storage_ints(),
        )
        for n in n_values
    ]


@dataclass
class FaultToleranceReport(ReliabilityStats):
    """What the network did to a session vs. what the protocol absorbed.

    The network side aggregates :class:`repro.net.faults.FaultStats`
    over every channel (losses the *network* caused); the protocol side
    is :class:`repro.net.reliability.ReliabilityStats`' own counters,
    summed over every endpoint (the recovery work the protocol did).

    Losses are split by packet class because only one class forces
    recovery work: a lost sequenced *data* packet sits in its sender's
    unacked window until retransmission delivers it, so a crash-free
    convergent session shows ``retransmits > 0`` whenever ``lost > 0``.
    A lost pure acknowledgement (``lost_acks``) needs no retransmission
    -- any later cumulative ack heals it -- and a client crash voids the
    crashed incarnation's unacked windows, so neither implies
    retransmits.  ``acks_coalesced`` counts the arrivals that drew no
    ack of their own -- in order, duplicated, or held above a gap
    already reported: their acknowledgement left on a later packet, a
    paced cumulative ack or reverse data.

    One crash/restart cycle contributes 1 to ``recoveries`` (the
    client's completed restart) and 1 to ``resyncs_served`` (the
    recovery snapshot the notifier sent back); the two count the same
    event from opposite ends and are reported separately.

    A notifier failover likewise counts from both ends: 1 to
    ``promotions`` (the successor assumed the centre role) and 1 per
    surviving member to ``handoffs`` (completed re-homing to the new
    centre), with ``give_ups``/``probes_sent`` recording the detection
    work and ``replayed_ops``/``replays_deduped`` the fate of pending
    operations stashed across the epoch boundary.
    """

    # network side
    dropped: int = 0
    duplicated: int = 0
    outage_dropped: int = 0
    acks_dropped: int = 0
    acks_outage_dropped: int = 0

    @property
    def lost(self) -> int:
        """Sequenced data packets the network destroyed."""
        return self.dropped + self.outage_dropped

    @property
    def lost_acks(self) -> int:
        """Pure acknowledgements the network destroyed."""
        return self.acks_dropped + self.acks_outage_dropped

    def summary(self) -> str:
        return (
            f"network: dropped={self.dropped} duplicated={self.duplicated} "
            f"outage_dropped={self.outage_dropped} acks_lost={self.lost_acks}\n"
            f"protocol: sent={self.sent} retransmits={self.retransmits} "
            f"acks={self.acks_sent} coalesced={self.acks_coalesced} "
            f"dedup={self.duplicates_discarded} "
            f"stale_epoch={self.stale_epoch_discarded} "
            f"held_for_order={self.out_of_order_held}\n"
            f"crashes: dropped_while_down={self.dropped_while_crashed} "
            f"lost_local_edits={self.lost_local_edits} "
            f"recoveries={self.recoveries} resyncs_served={self.resyncs_served}\n"
            f"failover: give_ups={self.give_ups} probes={self.probes_sent} "
            f"promotions={self.promotions} handoffs={self.handoffs} "
            f"replayed={self.replayed_ops} deduped={self.replays_deduped}"
        )


def build_fault_report(
    fault_stats: FaultStats, rel_stats_list: Iterable[ReliabilityStats]
) -> FaultToleranceReport:
    """Aggregate channel fault stats and per-endpoint reliability stats."""
    report = FaultToleranceReport(
        dropped=fault_stats.dropped,
        duplicated=fault_stats.duplicated,
        outage_dropped=fault_stats.outage_dropped,
        acks_dropped=fault_stats.acks_dropped,
        acks_outage_dropped=fault_stats.acks_outage_dropped,
    )
    counters = [f.name for f in fields(ReliabilityStats)]
    for stats in rel_stats_list:
        for name in counters:
            setattr(report, name, getattr(report, name) + getattr(stats, name))
    return report
