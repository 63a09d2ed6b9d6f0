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
from repro.editor.messages import OpMessage
from repro.ot.operations import Delete, Identity, Insert, Operation, OperationGroup

# One layout per fixed-width *run* of fields (table: DESIGN 5.4), packed
# or unpacked in one call; a string's bytes follow the run that ends in
# its length.
_U8 = struct.Struct(">B")
_U32 = struct.Struct(">I")
_TIMESTAMP = struct.Struct(">II")
_OP_HEAD = struct.Struct(">III")  # timestamp, origin site
_OP_FIELDS = struct.Struct(">BII")  # tag, pos, then text length or count
_GROUP_HEAD = struct.Struct(">BI")  # tag, member count

TAG_INSERT = 0x01
TAG_DELETE = 0x02
TAG_IDENTITY = 0x03
TAG_GROUP = 0x04

class CodecError(ValueError):
    """Raised on malformed wire data."""


class Writer:
    """An append-only byte buffer with typed writers."""

    def __init__(self) -> None:
        self._chunks: list[bytes] = []

    def pack(self, layout: struct.Struct, *values: Any) -> "Writer":
        """Append one fixed-width run.  The one place a value meets its
        field's width: what does not fit (-1, 2**32, a non-number) is typed."""
        try:
            self._chunks.append(layout.pack(*values))
        except struct.error as exc:
            raise CodecError(f"{values} do not fit {layout.format!r}: {exc}") from exc
        return self

    def u8(self, value: int) -> "Writer":
        return self.pack(_U8, value)

    def u32(self, value: int) -> "Writer":
        return self.pack(_U32, value)

    def string(self, value: str) -> "Writer":
        data = value.encode("utf-8")
        return self.pack(_U32, len(data)).raw(data)

    def raw(self, data: bytes) -> "Writer":
        """Append pre-encoded bytes verbatim (embedded messages, and the
        UTF-8 bytes of a string whose length closed the run before)."""
        self._chunks.append(data)
        return self

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)


class Reader:
    """A cursor over received bytes with typed readers."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _truncated(self, wanted: int) -> CodecError:
        return CodecError(
            f"truncated message: wanted {wanted} bytes at offset {self._pos}, "
            f"have {len(self._data) - self._pos}"
        )

    def unpack(self, layout: struct.Struct) -> tuple[Any, ...]:
        """Take one fixed-width run: the fields of ``layout``, bounds
        checked once for the whole run."""
        pos = self._pos
        try:
            values = layout.unpack_from(self._data, pos)
        except struct.error:
            raise self._truncated(layout.size) from None
        self._pos = pos + layout.size
        return values

    def peek(self) -> int:
        """The next byte, not consumed: the tag that names the run it opens."""
        if self._pos >= len(self._data):
            raise self._truncated(1)
        return self._data[self._pos]

    def u8(self) -> int:
        return self.unpack(_U8)[0]

    def u32(self) -> int:
        return self.unpack(_U32)[0]

    def string(self) -> str:
        return self.text(self.u32())

    def raw(self, n: int) -> bytes:
        """Take ``n`` bytes verbatim (for embedded messages)."""
        end = self._pos + n
        if end > len(self._data):
            raise self._truncated(n)
        out = self._data[self._pos : end]
        self._pos = end
        return out

    def text(self, n: int) -> str:
        """Take ``n`` bytes as UTF-8: a string whose length closed the
        run before.  Bytes that are not UTF-8 are malformed wire data."""
        try:
            return self.raw(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"string is not UTF-8: {exc}") from exc

    def done(self) -> bool:
        return self._pos == len(self._data)

    def expect_done(self) -> None:
        if not self.done():
            raise CodecError(
                f"{len(self._data) - self._pos} trailing bytes after message"
            )


# -- operations ---------------------------------------------------------------


MAX_GROUP_DEPTH = 16


def encode_operation(op: Operation, writer: Writer) -> None:
    """Serialise a positional operation (or group)."""
    if isinstance(op, Insert):
        text = op.text.encode("utf-8")
        writer.pack(_OP_FIELDS, TAG_INSERT, op.pos, len(text)).raw(text)
    elif isinstance(op, Delete):
        writer.pack(_OP_FIELDS, TAG_DELETE, op.pos, op.count)
    elif isinstance(op, Identity):
        writer.u8(TAG_IDENTITY)
    elif isinstance(op, OperationGroup):
        writer.pack(_GROUP_HEAD, TAG_GROUP, len(op.members))
        for member in op.members:
            encode_operation(member, writer)
    else:
        raise CodecError(f"cannot encode operation type {type(op).__name__}")


def decode_operation(reader: Reader, depth: int = 0) -> Operation:
    """Read one operation, at most :data:`MAX_GROUP_DEPTH` groups deep.

    Every transformation ends in ``simplify``, so the OT layer sends a
    group of primitives at most (depth 1); 16 leaves room for hand-built
    operations, and a frame of nested group heads is a ``CodecError``
    long before it is the interpreter's recursion limit."""
    tag = reader.peek()
    if tag == TAG_INSERT:
        _, pos, length = reader.unpack(_OP_FIELDS)
        return Insert(reader.text(length), pos)
    if tag == TAG_DELETE:
        _, pos, count = reader.unpack(_OP_FIELDS)
        return Delete(count, pos)
    if tag == TAG_IDENTITY:
        reader.u8()
        return Identity()
    if tag == TAG_GROUP:
        if depth >= MAX_GROUP_DEPTH:
            raise CodecError(f"operation groups nested deeper than {MAX_GROUP_DEPTH}")
        _, count = reader.unpack(_GROUP_HEAD)
        return OperationGroup(
            tuple(decode_operation(reader, depth + 1) for _ in range(count)))
    raise CodecError(f"unknown operation tag 0x{tag:02x}")


# -- whole messages -----------------------------------------------------------


def encode_op_message(message: OpMessage) -> bytes:
    """Serialise a :class:`repro.editor.messages.OpMessage` to bytes.

    The layout is ``8-byte timestamp || origin || operation``, and
    nothing follows the operation: a decoder refuses trailing bytes.
    No name travels -- the receiver derives it
    (:func:`repro.editor.messages.op_name`).  The siblings of one
    notifier broadcast differ in the timestamp only: the first one
    encoded leaves the body's bytes on their ``shared`` record for the
    rest.
    """
    ts = message.timestamp
    shared = message.shared
    if shared is None:
        return _encode_op_body(message, _OP_HEAD, ts.first, ts.second)
    if shared.wire is None:
        shared.wire = _encode_op_body(message, _U32)
    return Writer().pack(_TIMESTAMP, ts.first, ts.second).raw(shared.wire).getvalue()


def _encode_op_body(message: OpMessage, head: struct.Struct, *stamp: int) -> bytes:
    """Everything after the timestamp: the origin, then the operation.
    With a ``stamp`` (and the head that has room for it) the timestamp
    leads the body's first run, and the bytes are the whole message."""
    writer = Writer().pack(head, *stamp, message.origin_site)
    encode_operation(message.op, writer)
    return writer.getvalue()


def read_op_message(reader: Reader) -> OpMessage:
    """Read one op message at ``reader``'s cursor; what follows it is
    the caller's to refuse (a wire frame ends at its op)."""
    first, second, origin_site = reader.unpack(_OP_HEAD)
    op = decode_operation(reader)
    return OpMessage(op, CompressedTimestamp(first, second), origin_site)


def decode_op_message(data: bytes) -> OpMessage:
    reader = Reader(data)
    message = read_op_message(reader)
    reader.expect_done()
    return message
