"""The wire transport: framing, payload round-trips, channel accounting.

The wire must carry the *same* protocol vocabulary the simulator moves
in memory, byte-identically where a codec already exists -- an
``OpMessage`` crossing TCP is the exact ``encode_op_message`` byte
string the overhead accounting (CLAIM-OVH) charges.
"""

from __future__ import annotations

import asyncio
import dataclasses

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
from repro.net.channel import FIFOChannel, FixedLatency
from repro.net.codec import CodecError, Reader, Writer, encode_op_message
from repro.net.reliability import ReliablePacket
from repro.net.simulator import Simulator
from repro.editor.star_client import StarClient
from repro.net.transport import Envelope, measure_payload_bytes
from repro.net.wire import (
    DIAL_ATTEMPTS,
    DIAL_BACKOFF,
    DIAL_BASE_DELAY,
    DIAL_JITTER,
    DIAL_MAX_DELAY,
    MAX_FRAME_BYTES,
    Drained,
    Goodbye,
    Hello,
    Roster,
    WireChannel,
    WireError,
    backoff_delays,
    connect_with_backoff,
    decode_frame,
    encode_drained,
    encode_envelope,
    encode_goodbye,
    encode_hello,
    encode_roster,
    frame,
    pump,
    read_frame,
)
from repro.ot.operations import Insert


def _op_message(shared: BroadcastBody | None = None) -> OpMessage:
    return OpMessage(
        op=Insert("x", 3),
        first=2, second=5,
        origin_site=1,
        shared=shared,
    )


def _roundtrip(payload, message_id: int | None = 7) -> Envelope:
    envelope = Envelope(source=1, dest=0, payload=payload, message_id=message_id)
    decoded = decode_frame(encode_envelope(envelope))
    assert isinstance(decoded, Envelope)
    assert decoded.source == 1 and decoded.dest == 0
    assert decoded.message_id == message_id
    return decoded


def test_hello_roundtrip() -> None:
    assert decode_frame(encode_hello(3)) == Hello(pid=3, listen_port=0)
    assert decode_frame(encode_hello(3, 9100)) == Hello(pid=3, listen_port=9100)


def test_roster_roundtrip() -> None:
    ports = {1: 9101, 2: 9102, 3: 0}
    assert decode_frame(encode_roster(ports)) == Roster(ports=ports)
    assert decode_frame(encode_roster({})) == Roster(ports={})


def test_goodbye_and_drained_roundtrip() -> None:
    assert decode_frame(encode_goodbye()) == Goodbye()
    assert decode_frame(encode_drained(2)) == Drained(site=2)


def test_none_payload_roundtrip() -> None:
    assert _roundtrip(None, message_id=None).payload is None


def test_op_message_roundtrip_is_byte_identical() -> None:
    message = _op_message()
    decoded = _roundtrip(message).payload
    assert encode_op_message(decoded) == encode_op_message(message)
    assert decoded.op == Insert("x", 3)
    assert decoded.timestamp == CompressedTimestamp(2, 5)
    assert decoded.origin_site == 1


def test_a_broadcast_copy_is_the_client_op_with_its_own_timestamp() -> None:
    """The centre's copy names nothing the client's op did not: the same
    origin and operation after its own two integers."""
    client = _op_message()
    copy = OpMessage(client.op, 9, 0, client.origin_site,
                     BroadcastBody())
    assert _roundtrip(copy).payload == copy
    assert encode_op_message(copy)[8:] == encode_op_message(client)[8:]


def test_reliable_packet_roundtrip_nests_payload() -> None:
    packet = ReliablePacket(seq=0, epoch=2, ack=-1, payload=_op_message())
    decoded = _roundtrip(packet).payload
    assert decoded.seq == 0 and decoded.epoch == 2 and decoded.ack == -1
    assert not decoded.probe
    assert decoded.payload == _op_message()


def test_probe_and_pure_ack_roundtrip() -> None:
    probe = ReliablePacket(seq=-1, epoch=0, ack=4, probe=True)
    decoded = _roundtrip(probe).payload
    assert decoded.probe and decoded.seq == -1 and decoded.ack == 4
    ack = ReliablePacket(seq=-1, epoch=1, ack=9)
    assert _roundtrip(ack).payload == ack


def test_gap_report_rides_the_flags_byte() -> None:
    plain = ReliablePacket(seq=-1, epoch=1, ack=9)
    report = ReliablePacket(seq=-1, epoch=1, ack=9, gap=True)
    assert _roundtrip(report).payload == report
    both = ReliablePacket(seq=-1, epoch=0, ack=-1, probe=True, gap=True)
    assert _roundtrip(both).payload == both
    # Same frame length with or without the report.
    assert len(encode_envelope(Envelope(source=1, dest=0, payload=plain))) == len(
        encode_envelope(Envelope(source=1, dest=0, payload=report)))


@pytest.mark.parametrize("flags", [0x04, 0x80, 0xFF])
def test_unknown_reliable_flag_bits_are_rejected(flags: int) -> None:
    """A flags byte this version did not write is a malformed frame,
    not a packet that happens not to be a probe."""
    body = bytearray(encode_envelope(Envelope(
        source=1, dest=0,
        payload=ReliablePacket(seq=-1, epoch=0, ack=4, probe=True))))
    assert body[-2] == 0x01  # flags, then the PAYLOAD_NONE tag
    body[-2] = flags
    with pytest.raises(WireError, match="flags"):
        decode_frame(bytes(body))


def test_reliable_packet_nested_in_a_reliable_packet_is_rejected() -> None:
    """No sender nests them, so the decoder does not follow them: a frame
    of 5 000 reliable heads (70 KB) used to end in RecursionError."""
    head = encode_envelope(Envelope(
        source=1, dest=0,
        payload=ReliablePacket(seq=0, epoch=0, ack=-1)))[:-1]  # minus PAYLOAD_NONE
    reliable = head[-14:]
    assert reliable[0] == 0x02 and len(head) == 13 + 14
    for depth in (2, 5000):
        with pytest.raises(WireError, match="nested"):
            decode_frame(head + reliable * (depth - 1) + b"\x00")


def test_group_nesting_in_a_data_frame_is_bounded_and_typed() -> None:
    body = bytearray(encode_envelope(Envelope(
        source=1, dest=0, payload=_op_message(), message_id=7)))
    insert = bytes(body[-10:])  # tag, pos, text length, "x"
    assert insert[0] == 0x01
    groups = b"\x04\x00\x00\x00\x01" * 5000
    hostile = bytes(body[:-10]) + groups + insert
    with pytest.raises(CodecError, match="nested deeper"):
        decode_frame(hostile)


def test_invalid_utf8_in_a_data_frame_is_a_codec_error() -> None:
    """One flipped byte of an insert's text, in an op frame or in a
    reliable packet's: neither UnicodeDecodeError nor anything else a
    pump's ``except CodecError`` would miss."""
    for payload in (_op_message(), ReliablePacket(0, 0, -1, _op_message())):
        body = bytearray(encode_envelope(Envelope(
            source=1, dest=0, payload=payload, message_id=7)))
        assert body[-1:] == b"x"  # the op is the frame's last field
        body[-1] = 0xFF
        with pytest.raises(CodecError, match="UTF-8"):
            decode_frame(bytes(body))


def test_a_data_frame_is_a_handful_of_runs_not_a_call_per_field(monkeypatch) -> None:
    """The per-layer budget of the DATA path, counted: four ``Writer.pack``
    and four ``Reader.unpack`` calls at most for an insert's frame (frame
    head, payload tag, message head, operation).  One call per field
    would be eleven."""
    calls = {"pack": 0, "unpack": 0}

    def counting(cls: type, name: str) -> None:
        inner = getattr(cls, name)

        def counted(self, *args):
            calls[name] += 1
            return inner(self, *args)

        monkeypatch.setattr(cls, name, counted)

    counting(Writer, "pack")
    counting(Reader, "unpack")
    envelope = Envelope(source=1, dest=0, payload=_op_message(), message_id=7)
    assert decode_frame(encode_envelope(envelope)) == envelope
    assert 0 < calls["pack"] <= 4 and 0 < calls["unpack"] <= 4, calls


def test_snapshot_roundtrip() -> None:
    snapshot = SnapshotMessage(document="abc", counts=(2, 0, 4), notifier_epoch=1)
    decoded = _roundtrip(snapshot).payload
    assert decoded == snapshot


def test_snapshot_rejects_origin_clock_and_rich_documents() -> None:
    """No oracle clock rides a snapshot, in process or on the wire: the
    event log records the transfer's two ends itself."""
    assert [f.name for f in dataclasses.fields(SnapshotMessage)] == \
        ["document", "counts", "notifier_epoch"]
    with pytest.raises(TypeError):
        SnapshotMessage(document="abc", counts=(0,), origin_clock=None)  # type: ignore[call-arg]
    with pytest.raises(WireError):
        encode_envelope(Envelope(
            source=0, dest=1,
            payload=SnapshotMessage(document=["rich"], counts=(0,)),
        ))


def test_failover_vocabulary_roundtrip() -> None:
    assert _roundtrip(ResyncRequest(epoch=3)).payload == \
        ResyncRequest(epoch=3)
    assert _roundtrip(ElectMessage(notifier_epoch=2)).payload == \
        ElectMessage(notifier_epoch=2)
    assert _roundtrip(PromoteMessage(successor=2, notifier_epoch=2)).payload == \
        PromoteMessage(successor=2, notifier_epoch=2)


def test_state_contribution_roundtrip() -> None:
    for acknowledged in (0, 3, 2**32 - 1):
        contribution = StateContribution(acknowledged=acknowledged)
        assert _roundtrip(contribution).payload == contribution


def test_a_contributions_frame_size_does_not_depend_on_the_document() -> None:
    """A survivor answers a promotion with one count, whatever its
    replica holds: the frame and the model bytes of the contribution it
    sends are the same for an empty document and a long one."""
    sizes = set()
    for document in ("", "x" * 1000):
        client = StarClient(Simulator(), 1, initial_state=document)
        sent: list[object] = []
        client.send = (  # type: ignore[method-assign]
            lambda dest, payload: sent.append(payload))
        client.generate(Insert("y", 0))  # one unacknowledged op, stashed
        sent.clear()
        client.on_message(Envelope(
            source=0, dest=1,
            payload=PromoteMessage(successor=2, notifier_epoch=1)))
        (contribution,) = sent
        assert isinstance(contribution, StateContribution)
        frame_bytes = encode_envelope(Envelope(
            source=1, dest=2, payload=contribution))
        sizes.add((len(frame_bytes), measure_payload_bytes(contribution)))
    assert len(sizes) == 1, sizes


def test_unencodable_payload_raises() -> None:
    with pytest.raises(WireError):
        encode_envelope(Envelope(source=0, dest=1, payload=object()))


def test_unknown_frame_tag_raises() -> None:
    # 0x03 is unassigned: samples travel in the trace files only.
    for body in (b"\xff\x00", bytes.fromhex("030000000300000002")):
        with pytest.raises(WireError, match="unknown frame tag"):
            decode_frame(body)


def test_oversized_frame_raises() -> None:
    with pytest.raises(WireError):
        frame(b"x" * (MAX_FRAME_BYTES + 1))


# -- stream framing ------------------------------------------------------------


def _reader_with(data: bytes, eof: bool = True) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    if eof:
        reader.feed_eof()
    return reader


def test_read_frame_roundtrip_and_clean_eof() -> None:
    async def body() -> None:
        payload = encode_hello(2)
        reader = _reader_with(frame(payload) + frame(payload))
        assert await read_frame(reader) == payload
        assert await read_frame(reader) == payload
        assert await read_frame(reader) is None  # EOF on a boundary

    asyncio.run(body())


def test_read_frame_rejects_torn_prefix_and_torn_body() -> None:
    async def body() -> None:
        with pytest.raises(WireError, match="mid-prefix"):
            await read_frame(_reader_with(b"\x00\x00"))
        torn = frame(encode_hello(1))[:-2]
        with pytest.raises(WireError, match="mid-frame"):
            await read_frame(_reader_with(torn))

    asyncio.run(body())


def test_pump_routes_control_frames_and_ignores_them_without_callbacks() -> None:
    async def body() -> None:
        envelope = Envelope(source=1, dest=0, payload=_op_message(), message_id=1)
        data = (frame(encode_roster({1: 9101}))
                + frame(encode_envelope(envelope))
                + frame(encode_drained(1))
                + frame(encode_goodbye()))
        rosters: list[Roster] = []
        drained: list[Drained] = []
        goodbyes: list[None] = []
        seen: list[Envelope] = []
        await pump(
            _reader_with(data), seen.append,
            on_roster=rosters.append,
            on_drained=drained.append,
            on_goodbye=lambda: goodbyes.append(None),
        )
        assert [r.ports for r in rosters] == [{1: 9101}]
        assert [d.site for d in drained] == [1]
        assert len(goodbyes) == 1 and len(seen) == 1
        # Without callbacks the control frames are skipped, not fatal:
        # an old reader meeting a new writer must not explode.
        seen.clear()
        await pump(_reader_with(data), seen.append)
        assert len(seen) == 1

    asyncio.run(body())


def test_pump_decodes_and_rejects_late_hello() -> None:
    async def body() -> None:
        envelope = Envelope(source=1, dest=0, payload=_op_message(), message_id=1)
        seen: list[Envelope] = []
        await pump(_reader_with(frame(encode_envelope(envelope))), seen.append)
        assert len(seen) == 1 and seen[0].payload == _op_message()
        with pytest.raises(WireError, match="HELLO"):
            await pump(_reader_with(frame(encode_hello(1))), seen.append)

    asyncio.run(body())


# -- WireChannel accounting ----------------------------------------------------


class _NullWriter:
    """Just enough of a StreamWriter to collect written bytes."""

    def __init__(self) -> None:
        self.chunks: list[bytes] = []

    def write(self, data: bytes) -> None:
        self.chunks.append(data)

    def is_closing(self) -> bool:
        return False


def test_wire_channel_accounting_matches_fifo_channel() -> None:
    """Both channels count through the one admission: for an op, a
    reliable op, an ack and a snapshot, every ``ChannelStats`` field of a
    wire channel equals a FIFO channel's, and the clock is charged only
    where the payload carries one."""
    cases = [
        (_op_message(), 8),
        (ReliablePacket(0, 0, -1, _op_message()), 8),
        (ReliablePacket(-1, 0, 3), 0),
        (SnapshotMessage(document="abc", counts=(2, 0, 4)), 0),
    ]
    for payload, clock_bytes in cases:
        fifo = FIFOChannel(Simulator(), 1, 0, FixedLatency(0.1), lambda e: None)
        fifo.send(Envelope(source=1, dest=0, payload=payload))
        writer = _NullWriter()
        wire = WireChannel(Simulator(), 1, 0, writer)  # type: ignore[arg-type]
        wire.send(Envelope(source=1, dest=0, payload=payload))

        assert dataclasses.asdict(wire.stats) == dataclasses.asdict(fifo.stats) == {
            "messages": 1,
            "total_bytes": 8 + measure_payload_bytes(payload) + clock_bytes,
            "timestamp_bytes": clock_bytes,
            "payload_bytes": measure_payload_bytes(payload),
        }, payload
        assert wire.fifo_respected()
        # And the frame really carries the envelope.
        decoded = decode_frame(writer.chunks[0][4:])
        assert isinstance(decoded, Envelope)
        assert decoded.payload == payload


def test_a_send_on_a_closing_wire_is_dropped_unnumbered_and_uncounted() -> None:
    """The stats are what the stream carried: a frame dropped on a dead
    wire draws no message id and adds nothing to ``ChannelStats``."""
    class Closing(_NullWriter):
        def is_closing(self) -> bool:
            return True

    writer = Closing()
    wire = WireChannel(Simulator(), 1, 0, writer)  # type: ignore[arg-type]
    envelope = Envelope(source=1, dest=0, payload=_op_message())
    assert wire.send(envelope) == 0.0
    assert envelope.message_id is None and writer.chunks == []
    assert dataclasses.astuple(wire.stats) == (0, 0, 0, 0)


def test_wire_channel_rejects_misaddressed_envelopes() -> None:
    wire = WireChannel(Simulator(), 1, 0, _NullWriter())  # type: ignore[arg-type]
    with pytest.raises(ValueError, match="addressed"):
        wire.send(Envelope(source=2, dest=0, payload=None))


# -- connect_with_backoff ------------------------------------------------------


def test_backoff_delays_are_deterministic_capped_and_jittered() -> None:
    delays = backoff_delays(seed=7)
    assert delays == backoff_delays(seed=7)
    assert len(delays) == DIAL_ATTEMPTS - 1  # one fewer sleep than attempts
    # Every delay sits in [raw, raw * (1 + jitter)] for its capped raw value.
    raws = [min(DIAL_BASE_DELAY * DIAL_BACKOFF ** n, DIAL_MAX_DELAY)
            for n in range(DIAL_ATTEMPTS - 1)]
    assert raws[-1] == DIAL_MAX_DELAY  # the cap is reached
    for delay, raw in zip(delays, raws):
        assert raw <= delay <= raw * (1 + DIAL_JITTER)
    # A different seed jitters differently (with overwhelming odds).
    assert delays != backoff_delays(seed=8)


def test_connect_with_backoff_retries_then_succeeds() -> None:
    async def body() -> None:
        calls: list[int] = []
        slept: list[float] = []

        async def connect(host: str, port: int):
            calls.append(port)
            if len(calls) < 3:
                raise ConnectionRefusedError("not yet")
            return ("reader", "writer")

        async def sleep(delay: float) -> None:
            slept.append(delay)

        result = await connect_with_backoff(
            "127.0.0.1", 9000, seed=3,
            connect=connect, sleep=sleep,  # type: ignore[arg-type]
        )
        assert result == ("reader", "writer")
        assert calls == [9000, 9000, 9000]
        assert slept == backoff_delays(seed=3)[:2]

    asyncio.run(body())


def test_connect_with_backoff_exhausts_attempts() -> None:
    async def body() -> None:
        async def connect(host: str, port: int):
            raise ConnectionRefusedError("down")

        slept: list[float] = []

        async def sleep(delay: float) -> None:
            slept.append(delay)

        with pytest.raises(WireError, match=f"after {DIAL_ATTEMPTS} attempts"):
            await connect_with_backoff(
                "127.0.0.1", 9001,
                connect=connect, sleep=sleep,  # type: ignore[arg-type]
            )
        assert slept == backoff_delays()

    asyncio.run(body())
