"""Wire formats of the star editor (the causality layer's vocabulary).

These dataclasses are what travels between clients and the notifier --
below them sits the transport layer (:mod:`repro.net.reliability`),
above them the integration logic (:mod:`repro.editor.star_client` /
:mod:`repro.editor.star_notifier`).  They are deliberately free of
behaviour so the codec (:mod:`repro.net.codec`) and both editor roles
can share them without depending on each other; the only functions
here are the one that names an operation (:func:`op_name`) and their
model wire sizes, registered at the bottom.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, ClassVar

from repro.core.timestamp import CompressedTimestamp
from repro.net.transport import INT_WIDTH, measure_payload_bytes, register_sizer


def op_name(origin: int, ordinal: int, epoch: int = 0, copy: bool = False) -> str:
    """The name every site gives ``origin``'s ``ordinal``-th operation.

    No name travels: each site derives the ordinal -- the origin from
    its ``SV_i[2]``, the notifier from the arrival's ``T[2]``, a client
    from its per-origin arrival count (FIFO relay makes the *k*-th
    arrival from ``j`` ``j``'s op *k*).  Notifier epoch ``epoch > 0``
    adds ``@f{epoch}``: a replayed ordinal differs from the one the dead
    centre may have relayed.  ``copy`` names the centre's broadcast form
    (a prime added).  Interned: one string per op per process.
    """
    name = f"c{origin}_{ordinal}@f{epoch}" if epoch else f"c{origin}_{ordinal}"
    return sys.intern(name + "'" if copy else name)


class BroadcastBody:
    """What the N-1 copies of one notifier broadcast have in common.

    By formulas (1)-(2) the copies differ in their two timestamp
    integers only, so the rest is worked out for the first copy that
    needs it and reused by its siblings: ``model_bytes`` by the sizer
    below, ``wire`` (the encoded bytes after the timestamp) by
    :func:`repro.net.codec.encode_op_message`.
    """

    __slots__ = ("model_bytes", "wire")

    def __init__(self) -> None:
        self.model_bytes: int | None = None
        self.wire: bytes | None = None


@dataclass(slots=True)
class OpMessage:
    """The wire format of a propagated operation.

    Shared by reference and never mutated: the simulator hands the
    sender's object to the receiver, and a reliable sender retains it
    for retransmission.  Not ``frozen`` -- the notifier builds one per
    destination per operation, and a frozen ``__init__`` is four
    ``object.__setattr__`` calls -- so the rule is held by
    ``tests/unit/test_source_hygiene.py``: nothing under ``src/`` stores
    to one of these field names except on ``self``.

    The compressed timestamp is the two integers ``first`` (``T[1]``)
    and ``second`` (``T[2]``), held in place: a broadcast copy builds no
    timestamp object of its own.  :attr:`timestamp` builds one for the
    readers that want a value: a diagnostic session's formula-(5)/(7)
    sweep and its history entry.

    Every field is the paper's or the origin, so a cluster process
    sends the simulator's bytes; the operation's name is derived at
    each end (:func:`op_name`), and latency is read off the trace
    (:mod:`repro.obs.spans` offline, the monitor's derived gauge live).
    """

    op: Any
    first: int  # T[1]
    second: int  # T[2]
    origin_site: int  # site the operation was originally generated at
    # Set by the notifier on the siblings of one broadcast, which agree
    # in every field but the timestamp; no part of the message's value.
    shared: BroadcastBody | None = field(default=None, compare=False, repr=False)
    # Formulas 1-2: the timestamp is two integers, whatever N is.
    clock_bytes: ClassVar[int] = 2 * INT_WIDTH

    @property
    def timestamp(self) -> CompressedTimestamp:
        """``[T[1], T[2]]`` as a value, built on each read."""
        return CompressedTimestamp(self.first, self.second)


@dataclass(frozen=True)
class SnapshotMessage:
    """State transfer for a joining, recovering or re-homed client.

    ``counts`` is ``SV_0``: ``document`` embodies ``counts[j - 1]``
    operations of site ``j``.  The receiver seeds ``SV_i[1]`` with the
    broadcasts it would have received so far (``sum_{j != dest}
    SV_0[j]``), so formulas 1-2, 5 and 7 stay exact -- the snapshot
    "delivers" those operations in bulk, and FIFO puts every later
    broadcast after it -- and ``SV_i[2]`` with ``SV_0[dest]``; the other
    columns are its per-origin counts, and a stashed operation is
    already embodied iff its ordinal is at most ``SV_0[dest]``.
    ``notifier_epoch`` is 0 for the original notifier.
    """

    document: Any
    counts: tuple[int, ...]
    notifier_epoch: int = 0


@dataclass(frozen=True)
class ResyncRequest:
    """First message of a restarted client's new epoch: "send me state"."""

    epoch: int


@dataclass(frozen=True)
class ElectMessage:
    """Crash detector to designated successor: "the centre is dead".

    ``notifier_epoch`` is the epoch the election would open (one past
    the dead notifier's); the successor deduplicates elections by it
    and confirms the suspicion with a bounded liveness probe before
    promoting itself.
    """

    notifier_epoch: int


@dataclass(frozen=True)
class PromoteMessage:
    """Successor to every survivor: "I am the centre of epoch N".

    On receipt a client re-homes its spoke to ``successor``, abandons
    the dead centre's link, stashes its unacknowledged local operations
    for replay, and answers with a :class:`StateContribution`.
    """

    successor: int
    notifier_epoch: int


@dataclass(frozen=True)
class StateContribution:
    """One survivor's answer to a promotion: how many of its own
    operations the dead centre acknowledged (``SV_i[2]`` less its
    pending ones).

    The successor rebuilds ``SV_0`` from its own per-origin counts; it
    compares each survivor's ``acknowledged`` with the baseline's column
    to count the operations the failover rolls back, then re-admits the
    survivor through the snapshot path.  The sender is the envelope's
    source.
    """

    acknowledged: int


# -- model wire sizes (the accounting convention of EXPERIMENTS.md) --------------


def _op_body_bytes(message: OpMessage) -> int:
    """The origin and the operation (the timestamp is ``clock_bytes``)."""
    return INT_WIDTH + measure_payload_bytes(message.op)


def _op_message_bytes(message: OpMessage) -> int:
    shared = message.shared
    if shared is None:
        return _op_body_bytes(message)
    if shared.model_bytes is None:
        shared.model_bytes = _op_body_bytes(message)
    return shared.model_bytes


def _snapshot_bytes(snapshot: SnapshotMessage) -> int:
    """``SV_0`` and the notifier epoch, then the document."""
    size = (len(snapshot.counts) + 1) * INT_WIDTH
    return size + measure_payload_bytes(snapshot.document)


register_sizer(OpMessage, _op_message_bytes)
register_sizer(SnapshotMessage, _snapshot_bytes)
register_sizer(ResyncRequest, lambda request: INT_WIDTH)
register_sizer(ElectMessage, lambda message: INT_WIDTH)
register_sizer(PromoteMessage, lambda message: 2 * INT_WIDTH)
register_sizer(StateContribution, lambda report: INT_WIDTH)
