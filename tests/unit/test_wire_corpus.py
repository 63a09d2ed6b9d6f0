"""The wire format, pinned byte for byte.

One frame body per frame tag and per payload tag: ``VALUES`` names what
was encoded, ``PINNED`` holds its bytes.  The control frames (HELLO,
ROSTER, GOODBYE, DRAINED) are the ones the encoder of commit ``14d17fd``
wrote (the parent of the change that moved the DATA path onto
``Writer.pack`` / ``Reader.unpack``).  The DATA frames were written by
hand, field by field: first when op names left the wire, last when the
head lost the model timestamp bytes and the kind and the op message its
length.  A codec edit that moves a byte on the wire, or reads these
bytes as a different value, fails here before it fails a cluster.
"""

from __future__ import annotations

from typing import Any

import pytest

from repro.editor.messages import (
    BroadcastBody,
    ElectMessage,
    OpMessage,
    PromoteMessage,
    ResyncRequest,
    SnapshotMessage,
    StateContribution,
)
from repro.net.codec import CodecError
from repro.net.reliability import ReliablePacket
from repro.net.transport import Envelope
from repro.net.wire import (
    Drained,
    Goodbye,
    Hello,
    Roster,
    decode_frame,
    encode_drained,
    encode_envelope,
    encode_goodbye,
    encode_hello,
    encode_roster,
)
from repro.ot.operations import Delete, Identity, Insert, OperationGroup


def encode(value: Any) -> bytes:
    if isinstance(value, Hello):
        return encode_hello(value.pid, value.listen_port)
    if isinstance(value, Roster):
        return encode_roster(value.ports)
    if isinstance(value, Goodbye):
        return encode_goodbye()
    if isinstance(value, Drained):
        return encode_drained(value.site)
    return encode_envelope(value)


def data(payload: Any, message_id: int | None = 41, source: int = 2,
         dest: int = 0) -> Envelope:
    return Envelope(source=source, dest=dest, payload=payload, message_id=message_id)


def op_message(op: Any) -> OpMessage:
    return OpMessage(op=op, first=7, second=3, origin_site=2)


_SHARED = BroadcastBody()
_SIBLINGS = [
    OpMessage(op=Insert("hé✓", 5), first=first, second=second, origin_site=1,
              shared=_SHARED)
    for first, second in ((4, 1), (3, 2))
]

VALUES: dict[str, Any] = {
    "hello": Hello(pid=3, listen_port=9100),
    "roster": Roster(ports={1: 9101, 2: 0, 3: 65535}),
    "goodbye": Goodbye(),
    "drained": Drained(site=2),
    "data-none": data(None, message_id=None),
    "data-insert": data(op_message(Insert("xy", 3))),
    # Named when this frame also carried the id of the op it was made
    # from; the key stays so the test ids do.
    "data-delete-with-source": data(op_message(Delete(2, 9))),
    "data-identity": data(op_message(Identity())),
    "data-group": data(op_message(
        OperationGroup((Delete(2, 1), OperationGroup((Insert("q", 0),)))))),
    "data-broadcast-first-sibling": data(_SIBLINGS[0]),
    "data-broadcast-second-sibling": data(_SIBLINGS[1]),
    "data-client-op": data(
        OpMessage(Insert("x", 0), 0, 1, 1), source=1),
    "data-broadcast-copy": data(
        OpMessage(Delete(1, 4), 5, 2, 2, BroadcastBody()),
        source=0, dest=3),
    "data-reliable-wrapping-op": data(
        ReliablePacket(seq=5, epoch=1, ack=3, gap=True,
                       payload=op_message(Insert("r", 1)))),
    "data-reliable-pure-ack": data(ReliablePacket(seq=-1, epoch=0, ack=-1)),
    "data-reliable-probe": data(
        ReliablePacket(seq=-1, epoch=2, ack=8, probe=True, gap=True)),
    "data-snapshot": data(
        SnapshotMessage(document="h\u00e9llo", counts=(2, 4, 1), notifier_epoch=1)),
    "data-resync": data(ResyncRequest(epoch=3)),
    "data-elect": data(ElectMessage(notifier_epoch=2)),
    "data-promote": data(PromoteMessage(successor=2, notifier_epoch=2)),
    # A contribution is one count.  Named when these frames also carried
    # the survivor's state vector, per-origin counts, pending operations
    # and replica; the keys stay so the test ids do.
    "data-contribution": data(StateContribution(acknowledged=3)),
    "data-contribution-without-document": data(StateContribution(acknowledged=0)),
}

# A DATA frame's head: tag 0x02, source 2, dest 0, message id 41 (+1 on
# the wire).  Nothing else rides beside the payload.
_HEAD = "02" "00000002" "00000000" "0000002a"

# Never regenerate these from the encoder under test.  An op message is
# T, the origin and the operation, with no length: it is the frame's
# last field.  A snapshot carries SV_0.
PINNED: dict[str, str] = {
    "hello": "01000000030000238c",
    "roster": "0400000003000000010000238d0000000200000000000000030000ffff",
    "goodbye": "05",
    "drained": "0600000002",
    "data-none": "02" "00000002" "00000000" "00000000" "00",  # no id, no payload
    "data-insert": (
        _HEAD + "01"  # op message
        "00000007" "00000003"  # T = [7, 3]
        "00000002"  # origin 2
        "01" "00000003" "00000002" "7879"  # Insert "xy" at 3
    ),
    "data-delete-with-source": (
        _HEAD + "01"
        "00000007" "00000003" "00000002"
        "02" "00000009" "00000002"  # Delete 2 at 9
    ),
    "data-identity": (
        _HEAD + "01"
        "00000007" "00000003" "00000002"
        "03"  # Identity
    ),
    "data-group": (
        _HEAD + "01"
        "00000007" "00000003" "00000002"
        "04" "00000002"  # a group of two
        "02" "00000001" "00000002"  # Delete 2 at 1
        "04" "00000001"  # a group of one
        "01" "00000000" "00000001" "71"  # Insert "q" at 0
    ),
    "data-broadcast-first-sibling": (
        _HEAD + "01"
        "00000004" "00000001"  # T = [4, 1]
        "00000001"  # origin 1
        "01" "00000005" "00000006" "68c3a9e29c93"  # Insert "hé✓" at 5
    ),
    "data-broadcast-second-sibling": (
        _HEAD + "01"
        "00000003" "00000002"  # T = [3, 2]: the one field siblings differ in
        "00000001"
        "01" "00000005" "00000006" "68c3a9e29c93"
    ),
    "data-client-op": (
        "02" "00000001" "00000000" "0000002a"  # from site 1
        "01"  # 22 bytes to the end: 8 timestamp, 4 origin, 10 operation
        "00000000" "00000001"  # T = [0, 1]: site 1's first op
        "00000001"
        "01" "00000000" "00000001" "78"  # Insert "x" at 0
    ),
    "data-broadcast-copy": (
        "02" "00000000" "00000003" "0000002a"  # from the centre to site 3
        "01"
        "00000005" "00000002"  # T = [5, 2] for destination 3
        "00000002"  # site 2's op, relayed by the centre
        "02" "00000004" "00000001"  # Delete 1 at 4
    ),
    "data-reliable-wrapping-op": (
        _HEAD + "02" "00000006" "00000001" "00000004" "02"  # seq 5, epoch 1, ack 3, gap
        "01"
        "00000007" "00000003" "00000002"
        "01" "00000001" "00000001" "72"  # Insert "r" at 1
    ),
    "data-reliable-pure-ack": (
        _HEAD + "02" "00000000" "00000000" "00000000" "00"  # seq -1, epoch 0, ack -1
        "00"  # no payload
    ),
    "data-reliable-probe": (
        _HEAD + "02" "00000000" "00000002" "00000009" "03"  # epoch 2, ack 8, probe, gap
        "00"
    ),
    "data-snapshot": (
        _HEAD + "03" "00000006" "68c3a96c6c6f"  # tag, document "héllo"
        "00000001"  # notifier epoch 1
        "00000003" "00000002" "00000004" "00000001"  # SV_0 = [2, 4, 1]
    ),
    "data-resync": _HEAD + "04" "00000003",
    "data-elect": _HEAD + "05" "00000002",
    "data-promote": _HEAD + "06" "00000002" "00000002",  # site 2, epoch 2
    "data-contribution": _HEAD + "07" "00000003",  # 3 own operations acknowledged
    "data-contribution-without-document": _HEAD + "07" "00000000",  # none
}


@pytest.mark.parametrize("name", VALUES)
def test_the_encoder_writes_the_pinned_bytes(name: str) -> None:
    assert encode(VALUES[name]).hex() == PINNED[name]


@pytest.mark.parametrize("name", VALUES)
def test_the_pinned_bytes_decode_to_the_value(name: str) -> None:
    assert decode_frame(bytes.fromhex(PINNED[name])) == VALUES[name]


# Op frames with an origin wall-clock trailer (version 2, flags 1, an
# f64) after the operation, as the encoder of commit 14d17fd wrote them
# less the names, the model timestamp bytes, the kind and the op's
# length.  An op message ends at its operation and ends the frame, so
# each is bytes after a message: refused, never half-read.
REFUSED: dict[str, str] = {
    "data-origin-wall-trailer": (
        _HEAD + "01"
        "00000007" "00000003" "00000002"
        "01" "00000001" "00000001" "7a"  # Insert "z" at 1
        "0201" "41d9ae7745480000"
    ),
    "data-broadcast-first-sibling-with-trailer": (
        _HEAD + "01"
        "00000004" "00000001" "00000001"
        "01" "00000005" "00000006" "68c3a9e29c93"
        "0201" "41d9ae7745500000"
    ),
    "data-broadcast-second-sibling-with-trailer": (
        _HEAD + "01"
        "00000003" "00000002" "00000001"
        "01" "00000005" "00000006" "68c3a9e29c93"
        "0201" "41d9ae7745500000"
    ),
}


@pytest.mark.parametrize("name", REFUSED)
def test_trailing_bytes_after_an_op_message_are_refused(name: str) -> None:
    with pytest.raises(CodecError, match="trailing bytes after message"):
        decode_frame(bytes.fromhex(REFUSED[name]))


def test_the_second_sibling_was_written_from_the_shared_body() -> None:
    """The corpus really covers ``BroadcastBody.wire``: encoding the first
    sibling leaves the body's bytes behind, and they are the tail of both."""
    first, second = (encode(data(message)) for message in _SIBLINGS)
    assert _SHARED.wire is not None
    assert first.endswith(_SHARED.wire) and second.endswith(_SHARED.wire)
    assert first != second


@pytest.mark.parametrize("name", VALUES)
def test_every_one_byte_mutation_and_prefix_decodes_or_is_typed(name: str) -> None:
    """Enumerated, not sampled: each offset x the 255 other byte values,
    and each strict prefix, of a pinned frame decodes to a value or raises
    ``CodecError`` -- the one exception the readers of the wire catch
    (``ValueError``, its base, is not)."""
    pinned = bytes.fromhex(PINNED[name])
    escapes = []
    bodies = [pinned[:cut] for cut in range(len(pinned))]
    for offset, original in enumerate(pinned):
        mutant = bytearray(pinned)
        for value in range(256):
            if value != original:
                mutant[offset] = value
                bodies.append(bytes(mutant))
    for body in bodies:
        try:
            decode_frame(body)
        except CodecError:
            pass
        except Exception as exc:  # noqa: BLE001 - the escape is the finding
            escapes.append((body.hex(), repr(exc)))
    assert not escapes, f"{len(escapes)} escapes, first: {escapes[0]}"
