"""Wire formats of the star editor (the causality layer's vocabulary).

These dataclasses are what travels between clients and the notifier --
below them sits the transport layer (:mod:`repro.net.reliability`),
above them the integration logic (:mod:`repro.editor.star_client` /
:mod:`repro.editor.star_notifier`).  They are deliberately free of
behaviour so the codec (:mod:`repro.net.codec`) and both editor roles
can share them without depending on each other; the only functions
here are their model wire sizes, registered at the bottom.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.timestamp import CompressedTimestamp
from repro.net.transport import INT_WIDTH, measure_payload_bytes, register_sizer


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
    destination per operation, and a frozen ``__init__`` is seven
    ``object.__setattr__`` calls -- so the rule is held by
    ``tests/unit/test_source_hygiene.py``: nothing under ``src/`` stores
    to one of these field names except on ``self``.

    ``origin_wall`` is the wall-clock instant the operation was
    generated, measured on the *origin site's* clock.  It is ``None``
    in deterministic simulator sessions (where no wall clock exists and
    the wire bytes must stay byte-identical to the paper's accounting)
    and stamped by cluster processes whose endpoints have an armed
    ``span_clock`` -- the notifier forwards it unchanged on broadcast,
    so every remote execution can measure true end-to-end latency
    against it (modulo pairwise clock skew, which
    :mod:`repro.obs.spans` estimates and corrects).
    """

    op: Any
    timestamp: CompressedTimestamp
    origin_site: int  # site the operation was originally generated at
    op_id: str
    source_op_id: str | None = None  # for notifier outputs: the input op
    origin_wall: float | None = None  # origin wall clock (span latency)
    # Set by the notifier on the siblings of one broadcast, which agree
    # in every field but ``timestamp``; no part of the message's value.
    shared: BroadcastBody | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SnapshotMessage:
    """State transfer for a late-joining or recovering client.

    ``base_count`` is the number of notifier broadcasts the destination
    would have received so far (``sum_{j != dest} SV_0[j]``); the client
    seeds ``SV_i[1]`` with it so the compressed-timestamp arithmetic
    (formulas 1-2, 5, 7) stays exact: the snapshot "delivers" those
    operations in bulk, and the FIFO channel guarantees every later
    broadcast arrives after it.  For crash recovery ``own_count``
    additionally restores ``SV_i[2]`` (``SV_0[dest]``: the destination's
    operations the notifier had executed), and ``origin_clock`` carries
    the notifier's ground-truth vector clock at snapshot time so the
    oracle stays exact across the state transfer.
    """

    document: Any
    base_count: int
    own_count: int = 0
    origin_clock: Any = None
    # Failover extensions: the notifier epoch the snapshot belongs to
    # (0 for the original notifier) and, for failover snapshots, the
    # original client op ids already embodied in ``document`` -- the
    # receiver replays its stashed pending operations *not* in this set
    # and drops the rest as duplicates.
    notifier_epoch: int = 0
    incorporated: frozenset[str] = frozenset()


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
    """One survivor's state report, from which ``SV_0`` is rebuilt.

    ``received_from_center``/``generated_locally`` are the client's
    compressed ``SV_i``; ``received_per_origin`` counts the executed
    centre broadcasts by originating site (the per-site evidence behind
    the successor's reconstruction); ``pending`` lists the unacked
    local operations as ``(op_id, op)`` pairs, and ``document`` the
    client's replica -- both cross-checked by the successor to account
    for rolled-back and lost operations before it re-admits the client
    through the snapshot path.
    """

    site: int
    received_from_center: int
    generated_locally: int
    received_per_origin: dict[int, int] = field(default_factory=dict)
    pending: tuple[tuple[str, Any], ...] = ()
    document: Any = None


# -- model wire sizes (the accounting convention of EXPERIMENTS.md) --------------


def _op_body_bytes(message: OpMessage) -> int:
    return 4 + len(message.op_id) + measure_payload_bytes(message.op)


def _op_message_bytes(message: OpMessage) -> int:
    shared = message.shared
    if shared is None:
        return _op_body_bytes(message)
    if shared.model_bytes is None:
        shared.model_bytes = _op_body_bytes(message)
    return shared.model_bytes


def _snapshot_bytes(snapshot: SnapshotMessage) -> int:
    """The document, plus the failover dedup set when there is one."""
    size = 4 + measure_payload_bytes(snapshot.document)
    return size + sum(len(op_id) + 1 for op_id in snapshot.incorporated)


def _contribution_bytes(report: StateContribution) -> int:
    """``SV_i`` and the site id, the per-origin counts, the stashed
    pending operations, and the replica document."""
    size = 3 * INT_WIDTH + 2 * INT_WIDTH * len(report.received_per_origin)
    size += sum(
        len(op_id) + 1 + measure_payload_bytes(op) for op_id, op in report.pending
    )
    return size + measure_payload_bytes(report.document)


register_sizer(OpMessage, _op_message_bytes)
register_sizer(SnapshotMessage, _snapshot_bytes)
register_sizer(ResyncRequest, lambda request: INT_WIDTH)
register_sizer(ElectMessage, lambda message: INT_WIDTH)
register_sizer(PromoteMessage, lambda message: 2 * INT_WIDTH)
register_sizer(StateContribution, _contribution_bytes)
