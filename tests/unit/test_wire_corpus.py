"""The wire format, pinned byte for byte.

One frame body per frame tag and per payload tag: ``VALUES`` names what
was encoded, ``PINNED`` holds the bytes the encoder of commit ``14d17fd``
wrote for it (the parent of the change that moved the DATA path onto
``Writer.pack`` / ``Reader.unpack``).  A codec edit that moves a byte on
the wire, or reads these bytes as a different value, fails here before
it fails a cluster.
"""

from __future__ import annotations

from typing import Any

import pytest

from repro.core.timestamp import CompressedTimestamp
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


def data(payload: Any, kind: str = "op", message_id: int | None = 41,
         timestamp_bytes: int = 8) -> Envelope:
    return Envelope(source=2, dest=0, payload=payload, kind=kind,
                    timestamp_bytes=timestamp_bytes, message_id=message_id)


def op_message(op: Any, **fields: Any) -> OpMessage:
    return OpMessage(op=op, timestamp=CompressedTimestamp(7, 3), origin_site=2,
                     op_id="2-4", **fields)


_SHARED = BroadcastBody()
_SIBLINGS = [
    OpMessage(op=Insert("hé✓", 5), timestamp=stamp, origin_site=1, op_id="1-2'",
              source_op_id="1-2", shared=_SHARED)
    for stamp in (CompressedTimestamp(4, 1), CompressedTimestamp(3, 2))
]

VALUES: dict[str, Any] = {
    "hello": Hello(pid=3, listen_port=9100),
    "roster": Roster(ports={1: 9101, 2: 0, 3: 65535}),
    "goodbye": Goodbye(),
    "drained": Drained(site=2),
    "data-none": data(None, kind="ack", message_id=None, timestamp_bytes=0),
    "data-insert": data(op_message(Insert("xy", 3))),
    "data-delete-with-source": data(op_message(Delete(2, 9), source_op_id="2-3")),
    "data-identity": data(op_message(Identity())),
    "data-group": data(op_message(
        OperationGroup((Delete(2, 1), OperationGroup((Insert("q", 0),)))))),
    "data-broadcast-first-sibling": data(_SIBLINGS[0]),
    "data-broadcast-second-sibling": data(_SIBLINGS[1]),
    "data-reliable-wrapping-op": data(
        ReliablePacket(seq=5, epoch=1, ack=3, gap=True,
                       payload=op_message(Insert("r", 1))), kind="rel"),
    "data-reliable-pure-ack": data(
        ReliablePacket(seq=-1, epoch=0, ack=-1), kind="ack", timestamp_bytes=0),
    "data-reliable-probe": data(
        ReliablePacket(seq=-1, epoch=2, ack=8, probe=True, gap=True),
        kind="probe", timestamp_bytes=0),
    "data-snapshot": data(
        SnapshotMessage(document="h\u00e9llo", base_count=4, own_count=2,
                        notifier_epoch=1,
                        incorporated=frozenset({"1-1", "2-1", "1-2"})),
        kind="snapshot", timestamp_bytes=0),
    "data-resync": data(ResyncRequest(epoch=3), kind="resync", timestamp_bytes=0),
    "data-elect": data(ElectMessage(notifier_epoch=2), kind="elect",
                       timestamp_bytes=0),
    "data-promote": data(PromoteMessage(successor=2, notifier_epoch=2),
                         kind="promote", timestamp_bytes=0),
    "data-contribution": data(
        StateContribution(
            site=2, received_from_center=5, generated_locally=3,
            received_per_origin={3: 3, 1: 2},
            pending=(("2-4", Insert("y", 0)), ("2-5", Delete(1, 2))),
            document="hello"),
        kind="contrib", timestamp_bytes=0),
    "data-contribution-without-document": data(
        StateContribution(site=1, received_from_center=0, generated_locally=0),
        kind="contrib", timestamp_bytes=0),
}

# Written by the encoder of commit 14d17fd; never regenerate these from
# the encoder under test.  The two broadcast siblings were re-pinned by
# hand when op messages lost their wall-clock trailer: the last 10 bytes
# dropped, and the op payload's length went from 0x34 to 0x2a.
PINNED: dict[str, str] = {
    "hello": "01000000030000238c",
    "roster": "0400000003000000010000238d0000000200000000000000030000ffff",
    "goodbye": "05",
    "drained": "0600000002",
    "data-none": "02000000020000000000000000000000000000000361636b00",
    "data-insert": (
        "020000000200000000000000080000002a000000026f70010000002200000007"
        "000000030000000200000003322d34000000000100000003000000027879"
    ),
    "data-delete-with-source": (
        "020000000200000000000000080000002a000000026f70010000002300000007"
        "000000030000000200000003322d3400000003322d33020000000900000002"
    ),
    "data-identity": (
        "020000000200000000000000080000002a000000026f70010000001800000007"
        "000000030000000200000003322d340000000003"
    ),
    "data-group": (
        "020000000200000000000000080000002a000000026f70010000003400000007"
        "000000030000000200000003322d340000000004000000020200000001000000"
        "02040000000101000000000000000171"
    ),
    "data-broadcast-first-sibling": (
        "020000000200000000000000080000002a000000026f70010000002a00000004"
        "000000010000000100000004312d322700000003312d32010000000500000006"
        "68c3a9e29c93"
    ),
    "data-broadcast-second-sibling": (
        "020000000200000000000000080000002a000000026f70010000002a00000003"
        "000000020000000100000004312d322700000003312d32010000000500000006"
        "68c3a9e29c93"
    ),
    "data-reliable-wrapping-op": (
        "020000000200000000000000080000002a0000000372656c0200000006000000"
        "010000000402010000002100000007000000030000000200000003322d340000"
        "000001000000010000000172"
    ),
    "data-reliable-pure-ack": (
        "020000000200000000000000000000002a0000000361636b0200000000000000"
        "00000000000000"
    ),
    "data-reliable-probe": (
        "020000000200000000000000000000002a0000000570726f6265020000000000"
        "000002000000090300"
    ),
    "data-snapshot": (
        "020000000200000000000000000000002a00000008736e617073686f74030000"
        "000668c3a96c6c6f0000000400000002000000010000000300000003312d3100"
        "000003312d3200000003322d31"
    ),
    "data-resync": (
        "020000000200000000000000000000002a00000006726573796e630400000003"
    ),
    "data-elect": (
        "020000000200000000000000000000002a00000005656c6563740500000002"
    ),
    "data-promote": (
        "020000000200000000000000000000002a0000000770726f6d6f746506000000"
        "0200000002"
    ),
    "data-contribution": (
        "020000000200000000000000000000002a00000007636f6e7472696207000000"
        "0200000005000000030000000200000001000000020000000300000003000000"
        "0200000003322d340100000000000000017900000003322d3502000000020000"
        "0001010000000568656c6c6f"
    ),
    "data-contribution-without-document": (
        "020000000200000000000000000000002a00000007636f6e7472696207000000"
        "010000000000000000000000000000000000"
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_the_encoder_writes_the_pinned_bytes(name: str) -> None:
    assert encode(VALUES[name]).hex() == PINNED[name]


@pytest.mark.parametrize("name", VALUES)
def test_the_pinned_bytes_decode_to_the_value(name: str) -> None:
    assert decode_frame(bytes.fromhex(PINNED[name])) == VALUES[name]


# Frames the encoder of commit 14d17fd wrote with an origin wall-clock
# trailer after the operation.  An op message ends at its operation
# now, so each is bytes after a message: refused, never half-read.
REFUSED: dict[str, str] = {
    "data-origin-wall-trailer": (
        "020000000200000000000000080000002a000000026f70010000002b00000007"
        "000000030000000200000003322d34000000000100000000000000017a020141"
        "d9ae7745480000"
    ),
    "data-broadcast-first-sibling-with-trailer": (
        "020000000200000000000000080000002a000000026f70010000003400000004"
        "000000010000000100000004312d322700000003312d32010000000500000006"
        "68c3a9e29c93020141d9ae7745500000"
    ),
    "data-broadcast-second-sibling-with-trailer": (
        "020000000200000000000000080000002a000000026f70010000003400000003"
        "000000020000000100000004312d322700000003312d32010000000500000006"
        "68c3a9e29c93020141d9ae7745500000"
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
