"""Unit tests for the binary wire codec (repro.net.codec)."""

import struct

import pytest

from repro.editor.messages import BroadcastBody, OpMessage
from repro.net.codec import (
    MAX_GROUP_DEPTH,
    CodecError,
    decode_op_message,
    decode_operation,
    encode_op_message,
    encode_operation,
)
from repro.ot.operations import Delete, Identity, Insert, OperationGroup, compose


def _insert_message(text: bytes) -> bytes:
    """An op message whose insert carries ``text`` verbatim (UTF-8 or not)."""
    return struct.pack(">IIIBII", 0, 1, 1, 0x01, 0, len(text)) + text


class TestPrimitives:
    """The field conventions, through the public encoders and decoders:
    u32 integers, u8 tags, strings as a length then UTF-8 bytes, one
    ``Struct`` per fixed-width run, and every malformed input typed."""

    def test_u32_roundtrip(self):
        message = OpMessage(Delete(12345, 0xFFFFFFFF), 0, 0xFFFFFFFF, 12345)
        wire = encode_op_message(message)
        assert wire[:12] == bytes.fromhex("00000000" "ffffffff" "00003039")
        assert decode_op_message(wire) == message

    def test_u32_range_check(self):
        for value in (-1, 2**32):
            with pytest.raises(CodecError, match="does not fit"):
                encode_op_message(OpMessage(Insert("x", 0), value, 0, 1))
            with pytest.raises(CodecError, match="does not fit"):
                encode_op_message(OpMessage(Identity(), 0, 0, value, BroadcastBody()))

    def test_u8_range_check(self):
        """The one-byte fields are tags: no caller's value is packed into
        one, and a byte outside the four operation tags is refused."""
        head = struct.pack(">III", 0, 1, 1)
        for tag in [0x00, *range(0x05, 0x100)]:
            with pytest.raises(CodecError, match="unknown operation tag"):
                decode_op_message(head + bytes((tag,)) + bytes(8))

    def test_string_roundtrip_unicode(self):
        wire = encode_operation(Insert("héllo ✓", 3))
        assert wire[5:9] == struct.pack(">I", len("héllo ✓".encode("utf-8")))
        assert decode_operation(wire, 0) == (Insert("héllo ✓", 3), len(wire))

    def test_truncated_read_raises(self):
        with pytest.raises(CodecError, match="truncated"):
            decode_op_message(b"\x00\x01")

    def test_trailing_bytes_detected(self):
        wire = encode_op_message(OpMessage(Identity(), 0, 1, 1))
        with pytest.raises(CodecError, match="5 trailing"):
            decode_op_message(wire + b"extra")

    def test_a_run_is_packed_and_unpacked_whole(self):
        """The message head (T, origin) and a delete's fields are two runs;
        decoding reads at an offset and returns the offset after."""
        message = OpMessage(Delete(2, 7), 1, 2, 3)
        wire = encode_op_message(message)
        assert wire == struct.pack(">III", 1, 2, 3) + struct.pack(">BII", 0x02, 7, 2)
        assert decode_operation(b"\x09" + wire, 13) == (Delete(2, 7), 22)

    @pytest.mark.parametrize("values", [(2**32, 0), (0, -1), (0, 2**32), (0, "x")])
    def test_a_value_that_does_not_fit_its_field_is_a_codec_error(self, values):
        first, origin = values
        with pytest.raises(CodecError, match="does not fit"):
            encode_op_message(OpMessage(Identity(), first, 0, origin))  # type: ignore[arg-type]

    def test_a_short_run_is_truncation_and_consumes_nothing(self):
        """A run that ends early, a missing tag byte and a string longer
        than what is left are truncation; no reader holds a cursor, so the
        same bytes, completed, decode whole."""
        wire = _insert_message(b"ab")
        for cut in (5, 12, 16, len(wire) - 1):
            with pytest.raises(CodecError, match="truncated"):
                decode_op_message(wire[:cut])
        with pytest.raises(CodecError, match="wanted 2 bytes of text at offset 21, have 1"):
            decode_op_message(wire[:-1])
        assert decode_op_message(wire) == OpMessage(Insert("ab", 0), 0, 1, 1)

    def test_invalid_utf8_is_a_codec_error(self):
        """Hostile wire: the bytes of a string are outside input too."""
        with pytest.raises(CodecError, match="UTF-8"):
            decode_op_message(_insert_message(b"\xc3\x28"))
        with pytest.raises(CodecError, match="UTF-8"):
            decode_op_message(_insert_message(b"\xff"))


class TestOperationCodec:
    @pytest.mark.parametrize(
        "op",
        [
            Insert("12", 1),
            Insert("", 0),
            Delete(3, 2),
            Identity(),
            OperationGroup((Delete(2, 1), Delete(2, 3))),
            OperationGroup((Insert("x", 0), OperationGroup((Delete(1, 5),)))),
            compose(compose(Insert("ab", 0), Delete(2, 4)), Insert("c", 2)),
        ],
    )
    def test_roundtrip(self, op):
        wire = encode_operation(op)
        assert decode_operation(wire, 0) == (op, len(wire))

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError, match="unknown operation tag"):
            decode_operation(b"\x7f", 0)

    def test_group_nesting_is_bounded_and_typed(self):
        def nested(depth: int) -> bytes:
            # TAG_GROUP with one member, ``depth`` times, then TAG_IDENTITY.
            return b"\x04\x00\x00\x00\x01" * depth + b"\x03"

        op, end = decode_operation(nested(MAX_GROUP_DEPTH), 0)
        assert end == len(nested(MAX_GROUP_DEPTH))
        for _ in range(MAX_GROUP_DEPTH):
            (op,) = op.members
        assert op == Identity()
        head = struct.pack(">III", 0, 1, 1)
        with pytest.raises(CodecError, match="nested deeper"):
            decode_op_message(head + nested(MAX_GROUP_DEPTH + 1))
        # What used to end in RecursionError: 5 000 group heads, 25 KB.
        with pytest.raises(CodecError, match="nested deeper"):
            decode_op_message(head + nested(5000))

    def test_unencodable_type_rejected(self):
        with pytest.raises(CodecError):
            encode_operation("not an op")  # type: ignore[arg-type]


class TestMessageCodec:
    def test_full_message_roundtrip(self):
        message = OpMessage(
            op=Insert("12", 1),
            first=1, second=0,
            origin_site=2,
        )
        assert decode_op_message(encode_op_message(message)) == message

    def test_message_without_source_id(self):
        """No name travels, neither the op's nor its source's: a message
        is T, the origin and the operation (the sites derive the name)."""
        message = OpMessage(
            op=Delete(3, 2),
            first=0, second=1,
            origin_site=2,
        )
        wire = encode_op_message(message)
        assert decode_op_message(wire) == message
        assert len(wire) == 8 + 4 + 9
        assert not hasattr(message, "op_id") and not hasattr(message, "source_op_id")

    def test_a_client_insert_of_one_character_is_22_bytes(self):
        message = OpMessage(Insert("x", 0), 0, 1, 1)
        assert len(encode_op_message(message)) == 22  # 8 T + 4 origin + 10 op

    def test_size_matches_accounting_model(self):
        """The real encoding charges what measure_payload_bytes predicts
        for the operation, plus the fixed framing fields."""
        from repro.net.transport import measure_payload_bytes

        message = OpMessage(
            op=Insert("hello", 7),
            first=4, second=2,
            origin_site=1,
        )
        wire = encode_op_message(message)
        op_bytes = measure_payload_bytes(message.op)  # tag + pos + text
        framing = (
            OpMessage.clock_bytes  # compressed timestamp: 8
            + 4  # origin site
            + 4  # string length prefix of the insert text
        )
        assert len(wire) == op_bytes + framing

    def test_corrupted_message_rejected(self):
        message = OpMessage(
            op=Insert("a", 0),
            first=0, second=1,
            origin_site=1,
        )
        wire = encode_op_message(message)
        with pytest.raises(CodecError):
            decode_op_message(wire[:-1])
        with pytest.raises(CodecError):
            decode_op_message(wire + b"\x00")

