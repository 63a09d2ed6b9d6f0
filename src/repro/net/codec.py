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

Encoders return ``bytes``: each fixed-width run of fields is one
``Struct.pack`` (table: DESIGN 5.4), and a string's bytes follow the run
that ends in its length.  Decoders read ``data`` at an offset and return
the value with the offset after it, so a frame is read in one pass with
no cursor object.  Inside, an unfit value is :data:`UNFIT` and input
that is short or not UTF-8 is :data:`MALFORMED` (``struct.error`` and its
kin); the entry points -- :func:`encode_op_message` and
:func:`decode_op_message` here, the frame encoders and
:func:`~repro.net.wire.decode_frame` in :mod:`repro.net.wire` -- turn
them into :class:`CodecError`.

``encode_op_message`` / ``decode_op_message`` round-trip the full
:class:`repro.editor.messages.OpMessage`; the property suite checks
``decode(encode(m)) == m`` and that measured sizes match
:func:`repro.net.transport.measure_payload_bytes` within the codec's
framing overhead.
"""

from __future__ import annotations

import struct

from repro.editor.messages import OpMessage
from repro.ot.operations import Delete, Identity, Insert, Operation, OperationGroup

_U32 = struct.Struct(">I")
_TIMESTAMP = struct.Struct(">II")
_OP_HEAD = struct.Struct(">III")  # timestamp, origin site
_OP_FIELDS = struct.Struct(">BII")  # tag, pos, then text length or count
_GROUP_HEAD = struct.Struct(">BI")  # tag, member count

TAG_INSERT = 0x01
TAG_DELETE = 0x02
TAG_IDENTITY = 0x03
TAG_GROUP = 0x04

_IDENTITY = bytes((TAG_IDENTITY,))

#: What the encoders raise on a value that does not fit its field, and
#: the readers on input that ends early or is not UTF-8.
UNFIT = (struct.error, TypeError)
MALFORMED = (struct.error, IndexError, UnicodeDecodeError)


class CodecError(ValueError):
    """Raised on malformed wire data."""


def unfit(value: object, exc: Exception) -> CodecError:
    """The error for ``value``, which holds a field the wire cannot carry."""
    return CodecError(f"{value!r} does not fit the wire: {exc}")


def malformed(exc: Exception) -> CodecError:
    """The error for input a reader could not read to its end."""
    if isinstance(exc, UnicodeDecodeError):
        return CodecError(f"string is not UTF-8: {exc}")
    return CodecError(f"truncated message: {exc}")


def truncated_text(length: int, pos: int, data: bytes) -> CodecError:
    """A string past the end of ``data`` (a short slice does not raise)."""
    return CodecError(f"truncated message: wanted {length} bytes of text at "
                      f"offset {pos}, have {len(data) - pos}")


def trailing(data: bytes, end: int) -> CodecError:
    """Bytes after the value that should have ended ``data``."""
    return CodecError(f"{len(data) - end} trailing bytes after message")


# -- operations ---------------------------------------------------------------


MAX_GROUP_DEPTH = 16


def encode_operation(op: Operation) -> bytes:
    """Serialise a positional operation (or group)."""
    if isinstance(op, Insert):
        text = op.text.encode("utf-8")
        return _OP_FIELDS.pack(TAG_INSERT, op.pos, len(text)) + text
    if isinstance(op, Delete):
        return _OP_FIELDS.pack(TAG_DELETE, op.pos, op.count)
    if isinstance(op, Identity):
        return _IDENTITY
    if isinstance(op, OperationGroup):
        members = op.members
        return _GROUP_HEAD.pack(TAG_GROUP, len(members)) + b"".join(
            [encode_operation(member) for member in members])
    raise CodecError(f"cannot encode operation type {type(op).__name__}")


def decode_operation(data: bytes, pos: int, depth: int = 0) -> tuple[Operation, int]:
    """Read one operation at ``pos``, at most :data:`MAX_GROUP_DEPTH`
    groups deep; returns it and the offset after it.

    Every transformation ends in ``simplify``, so the OT layer sends a
    group of primitives at most (depth 1); 16 leaves room for hand-built
    operations, and a frame of nested group heads is a ``CodecError``
    long before it is the interpreter's recursion limit."""
    tag = data[pos]
    if tag == TAG_INSERT:
        _, at, length = _OP_FIELDS.unpack_from(data, pos)
        pos += 9
        end = pos + length
        if end > len(data):
            raise truncated_text(length, pos, data)
        return Insert(str(data[pos:end], "utf-8"), at), end
    if tag == TAG_DELETE:
        _, at, count = _OP_FIELDS.unpack_from(data, pos)
        return Delete(count, at), pos + 9
    if tag == TAG_IDENTITY:
        return Identity(), pos + 1
    if tag == TAG_GROUP:
        if depth >= MAX_GROUP_DEPTH:
            raise CodecError(f"operation groups nested deeper than {MAX_GROUP_DEPTH}")
        _, count = _GROUP_HEAD.unpack_from(data, pos)
        pos += 5
        members = []
        for _ in range(count):
            member, pos = decode_operation(data, pos, depth + 1)
            members.append(member)
        return OperationGroup(tuple(members)), pos
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
    try:
        shared = message.shared
        if shared is None:
            return (_OP_HEAD.pack(message.first, message.second, message.origin_site)
                    + encode_operation(message.op))
        if shared.wire is None:
            shared.wire = _U32.pack(message.origin_site) + encode_operation(message.op)
        return _TIMESTAMP.pack(message.first, message.second) + shared.wire
    except UNFIT as exc:
        raise unfit(message, exc) from exc


def read_op_message(data: bytes, pos: int) -> tuple[OpMessage, int]:
    """Read one op message at ``pos``; returns it and the offset after
    it.  What follows is the caller's to refuse (a frame ends at its op)."""
    first, second, origin_site = _OP_HEAD.unpack_from(data, pos)
    op, end = decode_operation(data, pos + 12)
    return OpMessage(op, first, second, origin_site), end


def decode_op_message(data: bytes) -> OpMessage:
    try:
        message, end = read_op_message(data, 0)
    except MALFORMED as exc:
        raise malformed(exc) from exc
    if end != len(data):
        raise trailing(data, end)
    return message
