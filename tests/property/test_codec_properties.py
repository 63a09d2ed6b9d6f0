"""Property tests: the wire codec."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.editor.messages import OpMessage, SnapshotMessage, StateContribution
from repro.net.codec import (
    CodecError,
    Reader,
    Writer,
    decode_op_message,
    decode_operation,
    encode_op_message,
    encode_operation,
)
from repro.net.reliability import ReliablePacket
from repro.net.transport import Envelope
from repro.net.wire import (
    decode_frame,
    encode_drained,
    encode_envelope,
    encode_goodbye,
    encode_hello,
    encode_roster,
)
from repro.ot.operations import Delete, Identity, Insert, OperationGroup

short_text = st.text(alphabet=string.printable, max_size=12)

primitive_ops = st.one_of(
    st.builds(Insert, text=short_text, pos=st.integers(0, 10**6)),
    st.builds(Delete, count=st.integers(0, 10**6), pos=st.integers(0, 10**6)),
    st.just(Identity()),
)

operations = st.recursive(
    primitive_ops,
    lambda children: st.lists(children, min_size=1, max_size=4).map(
        lambda members: OperationGroup(tuple(members))
    ),
    max_leaves=6,
)

messages = st.builds(
    OpMessage,
    op=operations,
    first=st.integers(0, 2**32 - 1),
    second=st.integers(0, 2**32 - 1),
    origin_site=st.integers(0, 10**4),
)

sequenced_packets = st.builds(
    ReliablePacket,
    seq=st.integers(0, 2**32 - 2),
    epoch=st.integers(0, 2**32 - 1),
    ack=st.integers(-1, 2**32 - 2),
    payload=messages,
    gap=st.booleans(),
)

unsequenced_packets = st.builds(
    ReliablePacket,
    seq=st.just(-1),
    epoch=st.integers(0, 2**32 - 1),
    ack=st.integers(-1, 2**32 - 2),
    probe=st.booleans(),
    gap=st.booleans(),
)

u32s = st.integers(0, 2**32 - 1)

snapshots = st.builds(
    SnapshotMessage,
    document=short_text,
    counts=st.lists(u32s, max_size=4).map(tuple),
    notifier_epoch=u32s,
)

contributions = st.builds(StateContribution, acknowledged=u32s)

@st.composite
def one_byte_changed(draw, bodies):
    """A valid body with any one byte changed to any other value."""
    garbled = bytearray(draw(bodies))
    garbled[draw(st.integers(0, len(garbled) - 1))] ^= draw(st.integers(1, 255))
    return bytes(garbled)


#: One valid body per frame tag and payload tag, as the senders write them.
frame_bodies = st.one_of(
    st.builds(
        encode_envelope,
        st.builds(
            Envelope,
            source=u32s,
            dest=u32s,
            payload=st.one_of(st.none(), messages, sequenced_packets,
                              unsequenced_packets, snapshots, contributions),
            message_id=st.one_of(st.none(), st.integers(0, 2**32 - 2)),
        ),
    ),
    st.builds(encode_hello, u32s, u32s),
    st.builds(encode_roster, st.dictionaries(u32s, u32s, max_size=3)),
    st.builds(encode_drained, u32s),
    st.just(encode_goodbye()),
)


class TestCodecProperties:
    @given(operations)
    @settings(max_examples=300)
    def test_operation_roundtrip(self, op):
        writer = Writer()
        encode_operation(op, writer)
        reader = Reader(writer.getvalue())
        assert decode_operation(reader) == op
        assert reader.done()

    @given(messages)
    @settings(max_examples=300)
    def test_message_roundtrip(self, message):
        assert decode_op_message(encode_op_message(message)) == message

    @given(messages)
    @settings(max_examples=150)
    def test_timestamp_bytes_constant_within_encoding(self, message):
        """Whatever the operation, the timestamp region is 8 bytes."""
        wire = encode_op_message(message)
        # the timestamp is the first field: 8 bytes, big-endian
        first = int.from_bytes(wire[0:4], "big")
        second = int.from_bytes(wire[4:8], "big")
        assert (first, second) == (message.first, message.second)


class TestWireProperties:
    @given(st.one_of(sequenced_packets, unsequenced_packets))
    @settings(max_examples=200)
    def test_reliable_packet_roundtrip(self, packet):
        envelope = Envelope(source=1, dest=0, payload=packet, message_id=3)
        assert decode_frame(encode_envelope(envelope)) == envelope

    @given(frame_bodies)
    @settings(max_examples=150)
    def test_data_bodies_roundtrip_byte_for_byte(self, body):
        decoded = decode_frame(body)
        if isinstance(decoded, Envelope):
            assert encode_envelope(decoded) == body

    @given(frame_bodies)
    @settings(max_examples=150)
    def test_a_torn_frame_body_is_a_typed_error(self, body):
        """Every strict prefix: no field is optional at the end of a frame,
        and the op message that ends one carries no length because its
        encoding delimits itself."""
        for cut in range(len(body)):
            with pytest.raises(CodecError):  # WireError is one
                decode_frame(body[:cut])

    @given(one_byte_changed(frame_bodies))
    @settings(max_examples=400)
    def test_a_corrupted_frame_body_decodes_or_is_a_typed_error(self, garbled):
        """One byte changed anywhere: a value, or CodecError / WireError --
        never struct.error, IndexError, UnicodeDecodeError, RecursionError."""
        try:
            decode_frame(garbled)
        except CodecError:
            pass

