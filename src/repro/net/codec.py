"""Binary wire codec for the star protocol.

The byte-accounting used by the overhead experiments (CLAIM-OVH,
CLAIM-E2E) is grounded here: messages really do serialise to the sizes
the accounting model charges.  The format is a simple length-prefixed
tag-value encoding:

* integers: unsigned 32-bit big-endian (the shared ``INT_WIDTH = 4``);
* strings: u32 length + UTF-8 bytes;
* a compressed timestamp: exactly two u32 -- the paper's constant;
* operations: 1-byte tag + fields (``Insert``: pos + text; ``Delete``:
  pos + count; groups: member count + members).

``encode_op_message`` / ``decode_op_message`` round-trip the full
:class:`repro.editor.messages.OpMessage`; the property suite checks
``decode(encode(m)) == m`` and that measured sizes match
:func:`repro.net.transport.measure_payload_bytes` within the codec's
framing overhead.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.core.timestamp import CompressedTimestamp
from repro.net.transport import INT_WIDTH
from repro.ot.operations import Delete, Identity, Insert, Operation, OperationGroup

_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")

TAG_INSERT = 0x01
TAG_DELETE = 0x02
TAG_IDENTITY = 0x03
TAG_GROUP = 0x04

#: Version tag of the *optional trailer* appended after the operation
#: body of an encoded :class:`~repro.editor.messages.OpMessage`.  The
#: original (version-1) encoding ends exactly at the operation and has
#: no version field at all, so -- like the TelemetryFrame v2 extension
#: -- new optional fields live in a versioned trailer: absent for plain
#: messages (byte-identical to v1, keeping the paper's byte accounting
#: exact), present when the message carries extension fields.  A
#: decoder seeing trailing bytes reads the trailer version first and
#: rejects versions it does not know.
OP_TRAILER_VERSION = 2


class CodecError(ValueError):
    """Raised on malformed wire data."""


class Writer:
    """An append-only byte buffer with typed writers."""

    def __init__(self) -> None:
        self._chunks: list[bytes] = []

    def u8(self, value: int) -> "Writer":
        if not 0 <= value <= 0xFF:
            raise CodecError(f"u8 out of range: {value}")
        self._chunks.append(bytes([value]))
        return self

    def u32(self, value: int) -> "Writer":
        if not 0 <= value <= 0xFFFFFFFF:
            raise CodecError(f"u32 out of range: {value}")
        self._chunks.append(_U32.pack(value))
        return self

    def string(self, value: str) -> "Writer":
        data = value.encode("utf-8")
        self.u32(len(data))
        self._chunks.append(data)
        return self

    def f64(self, value: float) -> "Writer":
        self._chunks.append(_F64.pack(value))
        return self

    def raw(self, data: bytes) -> "Writer":
        """Append pre-encoded bytes verbatim (for embedded messages)."""
        self._chunks.append(data)
        return self

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)

    def __len__(self) -> int:
        return sum(len(c) for c in self._chunks)


class Reader:
    """A cursor over received bytes with typed readers."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise CodecError(
                f"truncated message: wanted {n} bytes at offset {self._pos}, "
                f"have {len(self._data) - self._pos}"
            )
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def u32(self) -> int:
        return _U32.unpack(self._take(4))[0]

    def string(self) -> str:
        length = self.u32()
        return self._take(length).decode("utf-8")

    def f64(self) -> float:
        return float(_F64.unpack(self._take(8))[0])

    def raw(self, n: int) -> bytes:
        """Take ``n`` bytes verbatim (for embedded messages)."""
        return self._take(n)

    def done(self) -> bool:
        return self._pos == len(self._data)

    def expect_done(self) -> None:
        if not self.done():
            raise CodecError(
                f"{len(self._data) - self._pos} trailing bytes after message"
            )


# -- operations ---------------------------------------------------------------


def encode_operation(op: Operation, writer: Writer) -> None:
    """Serialise a positional operation (or group)."""
    if isinstance(op, Insert):
        writer.u8(TAG_INSERT).u32(op.pos).string(op.text)
    elif isinstance(op, Delete):
        writer.u8(TAG_DELETE).u32(op.pos).u32(op.count)
    elif isinstance(op, Identity):
        writer.u8(TAG_IDENTITY)
    elif isinstance(op, OperationGroup):
        writer.u8(TAG_GROUP).u32(len(op.members))
        for member in op.members:
            encode_operation(member, writer)
    else:
        raise CodecError(f"cannot encode operation type {type(op).__name__}")


def decode_operation(reader: Reader) -> Operation:
    tag = reader.u8()
    if tag == TAG_INSERT:
        pos = reader.u32()
        return Insert(reader.string(), pos)
    if tag == TAG_DELETE:
        pos = reader.u32()
        return Delete(reader.u32(), pos)
    if tag == TAG_IDENTITY:
        return Identity()
    if tag == TAG_GROUP:
        count = reader.u32()
        return OperationGroup(tuple(decode_operation(reader) for _ in range(count)))
    raise CodecError(f"unknown operation tag 0x{tag:02x}")


# -- timestamps ---------------------------------------------------------------


def encode_timestamp(ts: CompressedTimestamp, writer: Writer) -> None:
    """Exactly ``2 * INT_WIDTH`` bytes -- the paper's constant."""
    writer.u32(ts.first).u32(ts.second)


def decode_timestamp(reader: Reader) -> CompressedTimestamp:
    first = reader.u32()
    return CompressedTimestamp(first, reader.u32())


TIMESTAMP_WIRE_BYTES = 2 * INT_WIDTH


# -- whole messages -----------------------------------------------------------


def encode_op_message(message: Any) -> bytes:
    """Serialise a :class:`repro.editor.messages.OpMessage` to bytes.

    The layout is ``8-byte timestamp || body``.  A message without
    extension fields encodes byte-identically to the original format;
    ``origin_wall`` (when set) travels in the
    :data:`OP_TRAILER_VERSION` trailer: u8 trailer version, u8 presence
    bitmap (bit 0 = origin_wall), then the present fields in bitmap
    order.  The siblings of one notifier broadcast differ in the
    timestamp only: the first one encoded leaves the body's bytes on
    their ``shared`` record for the rest.
    """
    writer = Writer()
    encode_timestamp(message.timestamp, writer)
    shared = message.shared
    if shared is None:
        _encode_op_body(message, writer)
    else:
        if shared.wire is None:
            body = Writer()
            _encode_op_body(message, body)
            shared.wire = body.getvalue()
        writer.raw(shared.wire)
    return writer.getvalue()


def _encode_op_body(message: Any, writer: Writer) -> None:
    """Everything after the timestamp: ids, the operation, the trailer."""
    writer.u32(message.origin_site)
    writer.string(message.op_id)
    writer.string(message.source_op_id or "")
    encode_operation(message.op, writer)
    if message.origin_wall is not None:
        writer.u8(OP_TRAILER_VERSION).u8(0x01).f64(message.origin_wall)


def decode_op_message(data: bytes) -> Any:
    from repro.editor.messages import OpMessage

    reader = Reader(data)
    ts = decode_timestamp(reader)
    origin_site = reader.u32()
    op_id = reader.string()
    source_op_id = reader.string() or None
    op = decode_operation(reader)
    origin_wall = None
    if not reader.done():
        version = reader.u8()
        if version != OP_TRAILER_VERSION:
            raise CodecError(f"unknown op-message trailer version {version}")
        present = reader.u8()
        if present & ~0x01:
            raise CodecError(
                f"unknown op-message trailer fields 0x{present:02x}"
            )
        if present & 0x01:
            origin_wall = reader.f64()
    reader.expect_done()
    return OpMessage(
        op=op,
        timestamp=ts,
        origin_site=origin_site,
        op_id=op_id,
        source_op_id=source_op_id,
        origin_wall=origin_wall,
    )
