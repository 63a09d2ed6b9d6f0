"""The wire transport: framing, payload round-trips, channel accounting.

The wire must carry the *same* protocol vocabulary the simulator moves
in memory, byte-identically where a codec already exists -- an
``OpMessage`` crossing TCP is the exact ``encode_op_message`` byte
string the overhead accounting (CLAIM-OVH) charges.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.timestamp import CompressedTimestamp
from repro.editor.messages import (
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
from repro.net.transport import Envelope
from repro.net.wire import (
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
from repro.ot.operations import Delete, Insert


def _op_message(op_id: str = "1-1", source: str | None = None) -> OpMessage:
    return OpMessage(
        op=Insert("x", 3),
        timestamp=CompressedTimestamp(2, 5),
        origin_site=1,
        op_id=op_id,
        source_op_id=source,
    )


def _roundtrip(payload, kind: str = "op", message_id: int | None = 7) -> Envelope:
    envelope = Envelope(source=1, dest=0, payload=payload,
                        timestamp_bytes=8, kind=kind, message_id=message_id)
    decoded = decode_frame(encode_envelope(envelope))
    assert isinstance(decoded, Envelope)
    assert decoded.source == 1 and decoded.dest == 0
    assert decoded.timestamp_bytes == 8
    assert decoded.kind == kind
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
    assert _roundtrip(None, kind="ack", message_id=None).payload is None


def test_op_message_roundtrip_is_byte_identical() -> None:
    message = _op_message(source=None)
    decoded = _roundtrip(message).payload
    assert encode_op_message(decoded) == encode_op_message(message)
    assert decoded.op == Insert("x", 3)
    assert decoded.timestamp == CompressedTimestamp(2, 5)
    assert decoded.origin_site == 1
    assert decoded.op_id == "1-1"


def test_transformed_op_message_keeps_source_op_id() -> None:
    decoded = _roundtrip(_op_message(op_id="1-1'", source="1-1")).payload
    assert decoded.op_id == "1-1'"
    assert decoded.source_op_id == "1-1"


def test_reliable_packet_roundtrip_nests_payload() -> None:
    packet = ReliablePacket(seq=0, epoch=2, ack=-1, payload=_op_message())
    decoded = _roundtrip(packet, kind="rel").payload
    assert decoded.seq == 0 and decoded.epoch == 2 and decoded.ack == -1
    assert not decoded.probe
    assert decoded.payload.op_id == "1-1"


def test_probe_and_pure_ack_roundtrip() -> None:
    probe = ReliablePacket(seq=-1, epoch=0, ack=4, probe=True)
    decoded = _roundtrip(probe, kind="probe").payload
    assert decoded.probe and decoded.seq == -1 and decoded.ack == 4
    ack = ReliablePacket(seq=-1, epoch=1, ack=9)
    assert _roundtrip(ack, kind="ack").payload == ack


def test_gap_report_rides_the_flags_byte() -> None:
    plain = ReliablePacket(seq=-1, epoch=1, ack=9)
    report = ReliablePacket(seq=-1, epoch=1, ack=9, gap=True)
    assert _roundtrip(report, kind="ack").payload == report
    both = ReliablePacket(seq=-1, epoch=0, ack=-1, probe=True, gap=True)
    assert _roundtrip(both, kind="ack").payload == both
    # Same frame length with or without the report.
    assert len(encode_envelope(Envelope(source=1, dest=0, payload=plain, kind="ack"))) == len(
        encode_envelope(Envelope(source=1, dest=0, payload=report, kind="ack")))


@pytest.mark.parametrize("flags", [0x04, 0x80, 0xFF])
def test_unknown_reliable_flag_bits_are_rejected(flags: int) -> None:
    """A flags byte this version did not write is a malformed frame,
    not a packet that happens not to be a probe."""
    body = bytearray(encode_envelope(Envelope(
        source=1, dest=0, kind="ack",
        payload=ReliablePacket(seq=-1, epoch=0, ack=4, probe=True))))
    assert body[-2] == 0x01  # flags, then the PAYLOAD_NONE tag
    body[-2] = flags
    with pytest.raises(WireError, match="flags"):
        decode_frame(bytes(body))


def test_reliable_packet_nested_in_a_reliable_packet_is_rejected() -> None:
    """No sender nests them, so the decoder does not follow them: a frame
    of 5 000 reliable heads (70 KB) used to end in RecursionError."""
    head = encode_envelope(Envelope(
        source=1, dest=0, kind="rel",
        payload=ReliablePacket(seq=0, epoch=0, ack=-1)))[:-1]  # minus PAYLOAD_NONE
    reliable = head[-14:]
    assert reliable[0] == 0x02 and len(head) == 21 + len("rel") + 14
    for depth in (2, 5000):
        with pytest.raises(WireError, match="nested"):
            decode_frame(head + reliable * (depth - 1) + b"\x00")


def test_group_nesting_in_a_data_frame_is_bounded_and_typed() -> None:
    body = bytearray(encode_envelope(Envelope(
        source=1, dest=0, payload=_op_message(), timestamp_bytes=8, message_id=7)))
    insert = bytes(body[-10:])  # tag, pos, text length, "x"
    assert insert[0] == 0x01
    groups = b"\x04\x00\x00\x00\x01" * 5000
    op_body = bytes(body[28:-10]) + groups + insert
    hostile = bytes(body[:24]) + len(op_body).to_bytes(4, "big") + op_body
    with pytest.raises(CodecError, match="nested deeper"):
        decode_frame(hostile)


def test_invalid_utf8_in_a_data_frame_is_a_codec_error() -> None:
    """One flipped byte of ``kind`` or of an op id: neither UnicodeDecodeError
    nor anything else a pump's ``except CodecError`` would miss."""
    body = bytearray(encode_envelope(Envelope(
        source=1, dest=0, payload=_op_message(), timestamp_bytes=8, message_id=7)))
    for offset in (21, body.index(b"1-1")):  # first byte of "op", of the op id
        garbled = bytearray(body)
        garbled[offset] = 0xFF
        with pytest.raises(CodecError, match="UTF-8"):
            decode_frame(bytes(garbled))


def _absent_document() -> bytes:
    return encode_envelope(Envelope(
        source=2, dest=0, kind="contrib",
        payload=StateContribution(site=2, received_from_center=0,
                                  generated_locally=0)))


@pytest.mark.parametrize("flag", [0x02, 0x07, 0xFF])
@pytest.mark.parametrize("encoded", [_absent_document])
def test_presence_bytes_are_zero_or_one(encoded, flag: int) -> None:
    """Any other byte would decode to a value that encodes back to
    different bytes (7 used to read as "no document")."""
    body = bytearray(encoded())
    assert body[-1] == 0x00 and decode_frame(bytes(body)) is not None
    body[-1] = flag
    with pytest.raises(WireError, match="presence"):
        decode_frame(bytes(body))


def test_a_data_frame_is_a_handful_of_runs_not_a_call_per_field(monkeypatch) -> None:
    """The per-layer budget of the DATA path, counted: six ``Writer.pack``
    and six ``Reader.unpack`` calls at most for an insert's frame (five
    each today: frame head, payload head, message head, source-id
    length, operation).  One call per field would be fourteen."""
    calls = {"pack": 0, "unpack": 0}

    def counting(cls: type, name: str) -> None:
        inner = getattr(cls, name)

        def counted(self, *args):
            calls[name] += 1
            return inner(self, *args)

        monkeypatch.setattr(cls, name, counted)

    counting(Writer, "pack")
    counting(Reader, "unpack")
    envelope = Envelope(source=1, dest=0, payload=_op_message(source="1-0"),
                        timestamp_bytes=8, kind="op", message_id=7)
    assert decode_frame(encode_envelope(envelope)) == envelope
    assert 0 < calls["pack"] <= 6 and 0 < calls["unpack"] <= 6, calls


def test_snapshot_roundtrip() -> None:
    snapshot = SnapshotMessage(document="abc", base_count=4, own_count=2,
                               notifier_epoch=1,
                               incorporated=frozenset({"1-1", "2-1"}))
    decoded = _roundtrip(snapshot, kind="snapshot").payload
    assert decoded == snapshot


def test_snapshot_rejects_origin_clock_and_rich_documents() -> None:
    from repro.clocks.vector import VectorClock

    with pytest.raises(WireError):
        encode_envelope(Envelope(
            source=0, dest=1, kind="snapshot", timestamp_bytes=0,
            payload=SnapshotMessage(document="abc", base_count=0,
                                    origin_clock=VectorClock.zero(2)),
        ))
    with pytest.raises(WireError):
        encode_envelope(Envelope(
            source=0, dest=1, kind="snapshot", timestamp_bytes=0,
            payload=SnapshotMessage(document=["rich"], base_count=0),
        ))


def test_failover_vocabulary_roundtrip() -> None:
    assert _roundtrip(ResyncRequest(epoch=3), kind="resync").payload == \
        ResyncRequest(epoch=3)
    assert _roundtrip(ElectMessage(notifier_epoch=2), kind="elect").payload == \
        ElectMessage(notifier_epoch=2)
    assert _roundtrip(PromoteMessage(successor=2, notifier_epoch=2),
                      kind="promote").payload == \
        PromoteMessage(successor=2, notifier_epoch=2)


def test_state_contribution_roundtrip() -> None:
    contribution = StateContribution(
        site=2,
        received_from_center=5,
        generated_locally=3,
        received_per_origin={1: 2, 3: 3},
        pending=(("2-4", Insert("y", 0)), ("2-5", Delete(1, 2))),
        document="hello",
    )
    decoded = _roundtrip(contribution, kind="contrib").payload
    assert decoded == contribution
    assert _roundtrip(
        StateContribution(site=1, received_from_center=0, generated_locally=0),
        kind="contrib",
    ).payload.document is None


def test_unencodable_payload_raises() -> None:
    with pytest.raises(WireError):
        encode_envelope(Envelope(source=0, dest=1, payload=object(),
                                 timestamp_bytes=0, kind="op"))


def test_unknown_frame_tag_raises() -> None:
    # 0x03 is unassigned: telemetry travels in the stream files only.
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
        envelope = Envelope(source=1, dest=0, payload=_op_message(),
                            timestamp_bytes=8, kind="op", message_id=1)
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
        envelope = Envelope(source=1, dest=0, payload=_op_message(),
                            timestamp_bytes=8, kind="op", message_id=1)
        seen: list[Envelope] = []
        await pump(_reader_with(frame(encode_envelope(envelope))), seen.append)
        assert len(seen) == 1 and seen[0].payload.op_id == "1-1"
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


def test_wire_channel_accounting_matches_fifo_channel() -> None:
    message = _op_message()

    def envelope() -> Envelope:
        return Envelope(source=1, dest=0, payload=message,
                        timestamp_bytes=8, kind="op")

    sim = Simulator()
    fifo = FIFOChannel(sim, 1, 0, FixedLatency(0.1), lambda e: None)
    fifo.send(envelope())

    writer = _NullWriter()
    wire = WireChannel(Simulator(), 1, 0, writer)  # type: ignore[arg-type]
    wire.send(envelope())

    assert wire.stats.messages == fifo.stats.messages == 1
    assert wire.stats.total_bytes == fifo.stats.total_bytes
    assert wire.stats.timestamp_bytes == fifo.stats.timestamp_bytes
    assert wire.stats.payload_bytes == fifo.stats.payload_bytes
    assert wire.fifo_respected()
    # And the frame really carries the envelope.
    body = writer.chunks[0][4:]
    decoded = decode_frame(body)
    assert isinstance(decoded, Envelope)
    assert decoded.payload.op_id == "1-1"


def test_wire_channel_rejects_misaddressed_envelopes() -> None:
    wire = WireChannel(Simulator(), 1, 0, _NullWriter())  # type: ignore[arg-type]
    with pytest.raises(ValueError, match="addressed"):
        wire.send(Envelope(source=2, dest=0, payload=None,
                           timestamp_bytes=0, kind="op"))


# -- connect_with_backoff ------------------------------------------------------


def test_backoff_delays_are_deterministic_capped_and_jittered() -> None:
    delays = backoff_delays(6, base_delay=0.05, max_delay=0.4,
                            backoff=2.0, jitter=0.5, seed=7)
    assert delays == backoff_delays(6, base_delay=0.05, max_delay=0.4,
                                    backoff=2.0, jitter=0.5, seed=7)
    assert len(delays) == 5  # one fewer sleep than attempts
    # Every delay sits in [raw, raw * 1.5] for its capped raw value.
    raws = [min(0.05 * 2.0 ** n, 0.4) for n in range(5)]
    for delay, raw in zip(delays, raws):
        assert raw <= delay <= raw * 1.5
    # A different seed jitters differently (with overwhelming odds).
    assert delays != backoff_delays(6, base_delay=0.05, max_delay=0.4,
                                    backoff=2.0, jitter=0.5, seed=8)
    assert backoff_delays(1) == []
    with pytest.raises(ValueError):
        backoff_delays(0)


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
            "127.0.0.1", 9000, attempts=5, seed=3,
            connect=connect, sleep=sleep,  # type: ignore[arg-type]
        )
        assert result == ("reader", "writer")
        assert calls == [9000, 9000, 9000]
        assert slept == backoff_delays(5, seed=3)[:2]

    asyncio.run(body())


def test_connect_with_backoff_exhausts_attempts() -> None:
    async def body() -> None:
        async def connect(host: str, port: int):
            raise ConnectionRefusedError("down")

        async def sleep(delay: float) -> None:
            pass

        with pytest.raises(WireError, match="after 3 attempts"):
            await connect_with_backoff(
                "127.0.0.1", 9001, attempts=3,
                connect=connect, sleep=sleep,  # type: ignore[arg-type]
            )

    asyncio.run(body())
