"""Property tests: the wire codec and the at-rest trace format."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timestamp import CompressedTimestamp
from repro.editor.recorder import TraceEntry, op_from_json, op_to_json
from repro.editor.messages import OpMessage
from repro.net.codec import (
    Reader,
    Writer,
    decode_op_message,
    decode_operation,
    encode_op_message,
    encode_operation,
)
from repro.net.reliability import ReliablePacket
from repro.net.transport import Envelope
from repro.net.wire import decode_frame, encode_envelope
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

timestamps = st.builds(
    CompressedTimestamp,
    first=st.integers(0, 2**32 - 1),
    second=st.integers(0, 2**32 - 1),
)

op_ids = st.text(alphabet=string.ascii_letters + string.digits + "_'", min_size=1, max_size=16)

messages = st.builds(
    OpMessage,
    op=operations,
    timestamp=timestamps,
    origin_site=st.integers(0, 10**4),
    op_id=op_ids,
    source_op_id=st.one_of(st.none(), op_ids),
    # The origin wall-clock stamp rides in the versioned trailer; f64 on
    # the wire is exactly a Python float, so any finite value must
    # round-trip bit-for-bit (None = no trailer at all).
    origin_wall=st.one_of(
        st.none(), st.floats(allow_nan=False, allow_infinity=False)
    ),
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
        assert (first, second) == (message.timestamp.first, message.timestamp.second)


class TestWireProperties:
    @given(st.one_of(sequenced_packets, unsequenced_packets))
    @settings(max_examples=200)
    def test_reliable_packet_roundtrip(self, packet):
        envelope = Envelope(source=1, dest=0, payload=packet, kind="rel",
                            message_id=3)
        assert decode_frame(encode_envelope(envelope)) == envelope


class TestTraceProperties:
    @given(operations)
    @settings(max_examples=200)
    def test_json_op_roundtrip(self, op):
        assert op_from_json(op_to_json(op)) == op

    @given(
        st.builds(
            TraceEntry,
            site=st.integers(1, 100),
            time=st.floats(0, 10**6, allow_nan=False),
            op_id=op_ids,
            op=operations,
        )
    )
    @settings(max_examples=200)
    def test_trace_entry_roundtrip(self, entry):
        assert TraceEntry.from_json(entry.to_json()) == entry
