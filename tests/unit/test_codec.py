"""Unit tests for the binary wire codec (repro.net.codec)."""

import struct

import pytest

from repro.editor.messages import OpMessage
from repro.net.codec import (
    MAX_GROUP_DEPTH,
    CodecError,
    Reader,
    Writer,
    decode_op_message,
    decode_operation,
    encode_op_message,
    encode_operation,
)
from repro.ot.operations import Delete, Identity, Insert, OperationGroup, compose


class TestPrimitives:
    def test_u32_roundtrip(self):
        writer = Writer()
        writer.u32(0).u32(0xFFFFFFFF).u32(12345)
        reader = Reader(writer.getvalue())
        assert (reader.u32(), reader.u32(), reader.u32()) == (0, 0xFFFFFFFF, 12345)
        assert reader.done()

    def test_u32_range_check(self):
        with pytest.raises(CodecError):
            Writer().u32(-1)
        with pytest.raises(CodecError):
            Writer().u32(2**32)

    def test_u8_range_check(self):
        with pytest.raises(CodecError):
            Writer().u8(256)

    def test_string_roundtrip_unicode(self):
        writer = Writer()
        writer.string("héllo ✓")
        assert Reader(writer.getvalue()).string() == "héllo ✓"

    def test_truncated_read_raises(self):
        with pytest.raises(CodecError, match="truncated"):
            Reader(b"\x00\x01").u32()

    def test_trailing_bytes_detected(self):
        reader = Reader(b"\x00\x00\x00\x01extra")
        reader.u32()
        with pytest.raises(CodecError, match="trailing"):
            reader.expect_done()

    def test_a_run_is_packed_and_unpacked_whole(self):
        layout = struct.Struct(">BIId")
        wire = Writer().pack(layout, 7, 0xFFFFFFFF, 0, 2.5).getvalue()
        assert len(wire) == layout.size == 17
        reader = Reader(wire + b"\x09")
        assert reader.unpack(layout) == (7, 0xFFFFFFFF, 0, 2.5)
        assert reader.peek() == 9 and not reader.done()  # peek consumes nothing
        assert reader.u8() == 9 and reader.done()

    @pytest.mark.parametrize("values", [(256, 0), (0, -1), (0, 2**32), (0, "x")])
    def test_a_value_that_does_not_fit_its_field_is_a_codec_error(self, values):
        with pytest.raises(CodecError, match="do not fit"):
            Writer().pack(struct.Struct(">BI"), *values)

    def test_a_short_run_is_truncation_and_consumes_nothing(self):
        reader = Reader(b"\x01\x00\x00")
        with pytest.raises(CodecError, match="truncated.*wanted 5 bytes at offset 0"):
            reader.unpack(struct.Struct(">BI"))
        assert reader.u8() == 1
        with pytest.raises(CodecError, match="truncated"):
            Reader(b"").peek()

    def test_invalid_utf8_is_a_codec_error(self):
        """Hostile wire: the bytes of a string are outside input too."""
        wire = Writer().u32(2).raw(b"\xc3\x28").getvalue()
        with pytest.raises(CodecError, match="UTF-8"):
            Reader(wire).string()
        with pytest.raises(CodecError, match="UTF-8"):
            Reader(b"\xff").text(1)


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
        writer = Writer()
        encode_operation(op, writer)
        assert decode_operation(Reader(writer.getvalue())) == op

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError, match="unknown operation tag"):
            decode_operation(Reader(b"\x7f"))

    def test_group_nesting_is_bounded_and_typed(self):
        def nested(depth: int) -> bytes:
            writer = Writer()
            for _ in range(depth):
                writer.u8(0x04).u32(1)  # TAG_GROUP, one member
            return writer.u8(0x03).getvalue()  # TAG_IDENTITY

        op = decode_operation(Reader(nested(MAX_GROUP_DEPTH)))
        for _ in range(MAX_GROUP_DEPTH):
            (op,) = op.members
        assert op == Identity()
        with pytest.raises(CodecError, match="nested deeper"):
            decode_operation(Reader(nested(MAX_GROUP_DEPTH + 1)))
        # What used to end in RecursionError: 5 000 group heads, 25 KB.
        with pytest.raises(CodecError, match="nested deeper"):
            decode_operation(Reader(nested(5000)))

    def test_unencodable_type_rejected(self):
        with pytest.raises(CodecError):
            encode_operation("not an op", Writer())  # type: ignore[arg-type]


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

