"""The centre's socket role, directly: one :class:`Hub`, loopback sockets.

The hub is the same object for the original notifier and a promoted
successor, so its rules are pinned here once, against a stub endpoint
that only records what the hub asked of it: who is admitted, what a
member may send, when GOODBYE goes out, when the session is finished,
and that ``close()`` leaves nothing behind on the loop.  One test puts a
real reliable notifier behind the hub instead.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable

import pytest

from repro.cluster.serve import Hub
from repro.editor.messages import OpMessage
from repro.editor.star_notifier import StarNotifier
from repro.net.reliability import HOLDBACK_LIMIT, ReliablePacket
from repro.net.scheduler import AsyncioScheduler
from repro.net.transport import Envelope
from repro.net.wire import (
    Goodbye,
    decode_frame,
    encode_drained,
    encode_envelope,
    encode_hello,
    frame,
    read_frame,
)
from repro.obs.tracer import TraceEventKind, Tracer
from repro.ot.operations import Insert

HOST = "127.0.0.1"


class StubEndpoint:
    """What the hub needs of an endpoint, recorded."""

    pid = 0
    sim = None  # only handed on to the WireChannel, which never sends here

    def __init__(self) -> None:
        self.attached: list[int] = []
        self.messages: list[Envelope] = []
        self.tracer = Tracer()

    def attach_channel(self, dest: int, channel: Any) -> None:
        self.attached.append(dest)

    def on_message(self, envelope: Envelope) -> None:
        self.messages.append(envelope)


def lost(endpoint: Any) -> list[tuple[int, int | None, str | None]]:
    """The ``peer_lost`` events the hub traced: (site, peer, via)."""
    return [(e.site, e.peer, e.via) for e in endpoint.tracer.events
            if e.kind is TraceEventKind.PEER_LOST]


class Loopback:
    def __init__(self, expected: set[int], endpoint: Any) -> None:
        self.endpoint = endpoint
        self.finished = asyncio.Event()
        self.hellos: list[int] = []
        self.work_done = True
        self.hub = Hub(
            self.endpoint, expected, self.finished,
            on_hello=self.hellos.append,
            may_finish=lambda: self.work_done,
        )
        self.hub.pumps_open.set()
        self.port = 0
        self.dialed: list[asyncio.StreamWriter] = []

    async def connect(self):
        reader, writer = await asyncio.open_connection(HOST, self.port)
        self.dialed.append(writer)
        return reader, writer

    async def member(self, pid: int):
        reader, writer = await self.connect()
        writer.write(frame(encode_hello(pid)))
        await writer.drain()
        return reader, writer


def run(expected: set[int], body: Callable[[Loopback], Awaitable[None]],
        endpoint: Callable[[], Any] = StubEndpoint) -> None:
    async def main() -> None:
        lo = Loopback(expected, endpoint())
        lo.port = await lo.hub.listen(HOST)
        try:
            await asyncio.wait_for(body(lo), 10.0)
        finally:
            await lo.hub.close()
            for writer in lo.dialed:
                writer.close()
                try:
                    await writer.wait_closed()
                except ConnectionError:  # the hub hung up on it first
                    pass
        # Nothing the hub started is left for asyncio.run to cancel.
        assert asyncio.all_tasks() == {asyncio.current_task()}

    asyncio.run(main())


async def until(condition: Callable[[], bool]) -> None:
    while not condition():
        await asyncio.sleep(0.005)


async def no_frame_yet(reader: asyncio.StreamReader) -> bool:
    try:
        await asyncio.wait_for(reader.readexactly(1), 0.1)
    except asyncio.TimeoutError:
        return True
    return False


def test_goodbye_waits_for_every_drained_and_for_may_finish() -> None:
    async def body(lo: Loopback) -> None:
        lo.work_done = False
        (r1, w1), (r2, w2) = await lo.member(1), await lo.member(2)
        w1.write(frame(encode_drained(1)))
        await until(lambda: lo.hub.drained == {1})
        assert not lo.hub.goodbye_sent and await no_frame_yet(r1)
        w2.write(frame(encode_drained(2)))
        await until(lambda: lo.hub.drained == {1, 2})
        # Everyone drained, but the centre's own work is not done.
        assert not lo.hub.goodbye_sent and await no_frame_yet(r2)
        lo.work_done = True
        lo.hub.note_progress()
        for reader in (r1, r2):
            body_bytes = await read_frame(reader)
            assert body_bytes is not None
            assert isinstance(decode_frame(body_bytes), Goodbye)
        # GOODBYE is not the end: the members have not hung up yet.
        assert not lo.finished.is_set()
        w1.close()
        await until(lambda: lo.hub.hung_up == {1})
        assert not lo.finished.is_set()
        w2.close()
        await asyncio.wait_for(lo.finished.wait(), 5.0)

    run({1, 2}, body)


def test_data_frames_reach_the_endpoint_in_order() -> None:
    async def body(lo: Loopback) -> None:
        _reader, writer = await lo.member(1)
        for n in range(3):
            writer.write(frame(encode_envelope(
                Envelope(source=1, dest=0, payload=None, message_id=n))))
        await until(lambda: len(lo.endpoint.messages) == 3)
        assert [e.message_id for e in lo.endpoint.messages] == [0, 1, 2]

    run({1}, body)


def test_member_dying_without_drained_is_hung_up_never_drained() -> None:
    async def body(lo: Loopback) -> None:
        _r1, w1 = await lo.member(1)
        _r2, w2 = await lo.member(2)
        w2.write(frame(encode_drained(2)))
        await until(lambda: lo.hub.drained == {2})
        w1.close()
        await until(lambda: lo.hub.hung_up == {1})
        assert lo.hub.drained == {2}
        assert not lo.hub.goodbye_sent and not lo.finished.is_set()

    run({1, 2}, body)


def test_on_hello_fires_once_per_member_and_never_for_a_rejected_one() -> None:
    async def body(lo: Loopback) -> None:
        await lo.member(1)
        await until(lambda: lo.hellos == [1])
        for stranger in (1, 7):  # taken, and not a member at all
            reader, _writer = await lo.member(stranger)
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
        reader, writer = await lo.connect()
        writer.write(frame(encode_drained(2)))  # a frame, but not a HELLO
        assert await asyncio.wait_for(reader.read(), 5.0) == b""
        await lo.member(2)
        await until(lambda: lo.hellos == [1, 2])
        assert lo.hub.rejected == 3
        assert lo.endpoint.attached == [1, 2]
        assert set(lo.hub.writers) == {1, 2}

    run({1, 2}, body)


def test_connections_that_are_over_leave_the_inbound_table() -> None:
    """Fifty strangers are turned away and forgotten: what ``close()`` has
    to see off is the live connections, however many came and went."""
    async def body(lo: Loopback) -> None:
        await lo.member(1)
        await until(lambda: lo.hellos == [1])
        for stranger in range(50):
            reader, _writer = await lo.member(100 + stranger)
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
        await until(lambda: len(lo.hub._inbound) == 1)
        assert lo.hub.rejected == 50 and set(lo.hub.writers) == {1}

    run({1, 2}, body)  # close() ends clean: the loop is checked empty


def test_a_member_that_garbles_a_frame_is_hung_up_on_without_noise(
    capfd, caplog,
) -> None:
    """Bytes that are not UTF-8 where a string belongs, and an op message
    cut short inside its head: both are ``CodecError`` (not the
    ``WireError`` subclass), and neither may escape the handler task."""
    def good(member: int) -> bytes:
        return encode_envelope(Envelope(source=member, dest=0, payload=None))

    not_utf8 = bytearray(encode_envelope(Envelope(source=1, dest=0, payload=OpMessage(
        Insert("x", 0), 0, 1, origin_site=1))))
    not_utf8[-1] = 0xFF  # the insert's text, the frame's last byte
    torn_op = good(2)[:-1] + b"\x01\x00\x00\x00\x03abc"  # PAYLOAD_OP, 7 of 12 head bytes

    async def body(lo: Loopback) -> None:
        for member, garbled in ((1, bytes(not_utf8)), (2, torn_op)):
            reader, writer = await lo.member(member)
            writer.write(frame(good(member)) + frame(garbled) + frame(good(member)))
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
        await until(lambda: lo.hub.hung_up == {1, 2})
        assert [(e.source, e.payload) for e in lo.endpoint.messages] == [
            (1, None), (2, None)]
        assert lo.hub.garbled == 2
        assert lost(lo.endpoint) == [(0, 1, "garbled"), (0, 2, "garbled")]

    run({1, 2}, body)
    assert capfd.readouterr().err == ""
    assert [r for r in caplog.records if r.name == "asyncio"] == []


def test_a_garbled_frame_after_the_hello_is_counted_and_costs_nobody_else(
    capfd, caplog,
) -> None:
    """An admitted member sends a pinned DATA frame with one byte changed
    (the operation tag, to one no operation has): its connection is
    closed, counted in ``garbled`` -- not in ``rejected``, it said HELLO --
    and traced as ``peer_lost`` with ``via="garbled"``; what the other
    member sent before, around and after it arrives whole and in order."""
    from test_wire_corpus import PINNED

    pinned = bytes.fromhex(PINNED["data-insert"])  # source 2, dest 0
    mutant = bytearray(pinned)
    mutant[26] ^= 0xFF  # 13 B head, the payload tag, T, origin
    sent = [encode_envelope(Envelope(source=1, dest=0, payload=None, message_id=n))
            for n in range(4)]

    async def body(lo: Loopback) -> None:
        _r1, w1 = await lo.member(1)
        w1.write(frame(sent[0]) + frame(sent[1]))
        r2, w2 = await lo.member(2)
        w2.write(frame(pinned) + frame(bytes(mutant)) + frame(pinned))
        assert await asyncio.wait_for(r2.read(), 5.0) == b""
        await until(lambda: lo.hub.hung_up == {2})
        w1.write(frame(sent[2]) + frame(sent[3]) + frame(encode_drained(1)))
        await until(lambda: lo.hub.drained == {1})
        assert (lo.hub.garbled, lo.hub.rejected) == (1, 0)
        assert lost(lo.endpoint) == [(0, 2, "garbled")]
        arrived = [encode_envelope(e) for e in lo.endpoint.messages]
        # Member 2's pinned frame once (not the one behind the mutant) ...
        assert [body for body in arrived if body not in sent] == [pinned]
        # ... and all of member 1's.
        assert [body for body in arrived if body in sent] == sent
        assert lo.hub.hung_up == {2} and set(lo.hub.writers) == {1, 2}

    run({1, 2}, body)
    assert capfd.readouterr().err == ""
    assert [r for r in caplog.records if r.name == "asyncio"] == []


@pytest.mark.parametrize("source, dest", [(2, 0), (1, 5)],
                         ids=["another-members-source", "another-dest"])
def test_a_member_cannot_send_as_another_site(source: int, dest: int) -> None:
    """Member 1 sends a well-formed DATA frame that names another site as
    its source, or a site other than the centre as its destination: the
    frame never reaches the endpoint, the connection is closed and counted
    in ``garbled`` and traced, and member 2's frames arrive whole and in
    order."""
    forged = encode_envelope(Envelope(source=source, dest=dest, payload=None))
    sent = [encode_envelope(Envelope(source=2, dest=0, payload=None, message_id=n))
            for n in range(3)]

    async def body(lo: Loopback) -> None:
        _r2, w2 = await lo.member(2)
        w2.write(frame(sent[0]))
        r1, w1 = await lo.member(1)
        w1.write(frame(forged))
        assert await asyncio.wait_for(r1.read(), 5.0) == b""
        await until(lambda: lo.hub.hung_up == {1})
        w2.write(frame(sent[1]) + frame(sent[2]) + frame(encode_drained(2)))
        await until(lambda: lo.hub.drained == {2})
        assert (lo.hub.garbled, lo.hub.rejected) == (1, 0)
        assert lost(lo.endpoint) == [(0, 1, "garbled")]
        assert [encode_envelope(e) for e in lo.endpoint.messages] == sent

    run({1, 2}, body)


def test_a_replayed_frame_is_a_duplicate_to_a_reliable_notifier() -> None:
    """Behind the hub, a real notifier under the reliability protocol: a
    member's DATA frame sent twice, byte for byte, is counted in
    ``duplicates_discarded`` and changes nothing else -- the operation
    executes once, and the member stays connected."""
    async def body(lo: Loopback) -> None:
        notifier = lo.hub.endpoint
        op = OpMessage(op=Insert("x", 0), first=0, second=1,
                       origin_site=1)
        replayed = frame(encode_envelope(Envelope(
            source=1, dest=0, payload=ReliablePacket(seq=0, epoch=0, ack=-1,
                                                     payload=op))))
        _r2, _w2 = await lo.member(2)
        _r1, w1 = await lo.member(1)
        w1.write(replayed)
        await until(lambda: notifier.executed_op_ids == ["c1_1'"])
        before = (notifier.document, dict(notifier.acked),
                  notifier.transport.stats.sent)
        w1.write(replayed)
        await until(lambda: notifier.transport.stats.duplicates_discarded == 1)
        assert (notifier.document, dict(notifier.acked),
                notifier.transport.stats.sent) == before
        assert notifier.executed_op_ids == ["c1_1'"]
        assert (lo.hub.garbled, lo.hub.rejected, lo.hub.hung_up) == (0, 0, set())

    run({1, 2}, body, endpoint=lambda: StarNotifier(
        AsyncioScheduler(), 2, reliability=True))


def test_a_member_that_overflows_the_reorder_buffer_is_counted_as_garbled(
    capfd, caplog,
) -> None:
    """Member 1's first packet never comes: packets 1 .. ``HOLDBACK_LIMIT
    + 1`` wait on it until one more than the reliable notifier's reorder
    buffer holds arrives (``HoldbackOverflow``).  The notifier's endpoint
    refuses that as a ``ConsistencyError``; the hub hangs member 1 up
    like any refusal, counted and traced, with nothing in the logs."""
    op = OpMessage(op=Insert("x", 0), first=0, second=1,
                   origin_site=1)
    held = b"".join(
        frame(encode_envelope(Envelope(
            source=1, dest=0, payload=ReliablePacket(seq, 0, -1, op))))
        for seq in range(1, HOLDBACK_LIMIT + 2))

    async def body(lo: Loopback) -> None:
        await lo.member(2)
        _r1, w1 = await lo.member(1)
        w1.write(held)
        await until(lambda: lo.hub.hung_up == {1})
        assert (lo.hub.garbled, lo.hub.rejected) == (1, 0)
        assert lost(lo.hub.endpoint) == [(0, 1, "garbled")]

    run({1, 2}, body, endpoint=lambda: StarNotifier(
        AsyncioScheduler(), 2, reliability=True, tracer=Tracer()))
    assert capfd.readouterr().err == ""
    assert [r for r in caplog.records if r.name == "asyncio"] == []


def test_close_with_members_connected_leaves_no_task_and_no_noise(
    capfd, caplog,
) -> None:
    async def body(lo: Loopback) -> None:
        await lo.member(1)
        await lo.member(2)
        await lo.connect()  # and a silent stranger
        await until(lambda: lo.hellos == [1, 2])

    run({1, 2}, body)  # asserts the loop is clean after close()
    assert capfd.readouterr().err == ""
    assert [r for r in caplog.records if r.name == "asyncio"] == []


def op_frame(member: int, first: int, second: int, text: str,
             pos: int = 0) -> bytes:
    """A well-formed op message from ``member`` to the notifier."""
    op = OpMessage(op=Insert(text, pos),
                   first=first, second=second,
                   origin_site=member)
    return frame(encode_envelope(Envelope(source=member, dest=0, payload=op)))


def test_a_frame_the_notifier_refuses_is_counted_and_costs_nobody_else(
    capfd, caplog,
) -> None:
    """Behind the hub, a real notifier: member 1 sends a well-formed op
    message that acknowledges five operations the notifier never sent.
    The notifier refuses it (``ConsistencyError``); the hub hangs the
    member up, counts it in ``garbled`` and traces ``peer_lost`` with
    ``via="garbled"`` -- nothing reaches the ``asyncio`` logger -- and
    member 2's operations arrive whole and execute."""
    refused_costs_nobody_else(op_frame(1, 5, 1, "x"), capfd, caplog)


def test_an_edit_that_does_not_apply_is_counted_and_costs_nobody_else(
    capfd, caplog,
) -> None:
    """The same for an op message in sequence whose position is past
    the end of any document: the sequence rule checks ``T``, not the
    edit, so the notifier gets as far as executing it and fails
    (``OperationError``).  The hub treats that like a refusal."""
    refused_costs_nobody_else(op_frame(1, 0, 1, "x", pos=999), capfd, caplog)


def refused_costs_nobody_else(refused: bytes, capfd, caplog) -> None:
    async def body(lo: Loopback) -> None:
        notifier = lo.hub.endpoint
        r1, w1 = await lo.member(1)
        _r2, w2 = await lo.member(2)
        w2.write(op_frame(2, 0, 1, "a"))
        await until(lambda: notifier.executed_op_ids == ["c2_1'"])
        w1.write(refused)
        await until(lambda: lo.hub.hung_up == {1})
        assert await asyncio.wait_for(r1.read(), 5.0) != b""  # c2_1', then EOF
        w2.write(op_frame(2, 0, 2, "b") + frame(encode_drained(2)))
        await until(lambda: lo.hub.drained == {2})
        assert notifier.executed_op_ids == ["c2_1'", "c2_2'"]
        assert notifier.document == "ba"
        assert (lo.hub.garbled, lo.hub.rejected) == (1, 0)
        assert lost(notifier) == [(0, 1, "garbled")]

    run({1, 2}, body, endpoint=lambda: StarNotifier(
        AsyncioScheduler(), 2, tracer=Tracer()))
    assert capfd.readouterr().err == ""
    assert [r for r in caplog.records if r.name == "asyncio"] == []
