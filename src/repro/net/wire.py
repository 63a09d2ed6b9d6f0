"""Real-socket wire transport: the simulated envelopes over asyncio TCP.

The simulator moves :class:`~repro.net.transport.Envelope` objects
through in-memory FIFO channels; this module moves the *same* envelopes
through length-prefixed frames on a TCP stream, so the entire protocol
stack above the channel -- reliability, holdback, causality, tracing --
runs unmodified over a real wire.  TCP itself provides the FIFO
property the paper's formulas (5) and (7) assume, exactly as in the
original Web-deployment.

Framing
-------
Every frame is ``u32 body-length (big-endian) + body``.  The body is a
1-byte frame tag followed by tag-specific fields:

* ``HELLO`` -- the first frame on every client connection: the sender's
  pid plus the port its own failover listener is bound to (0 when the
  sender accepts no inbound dials), so the accepting side knows which
  spoke of the star just dialed in and where survivors can reach it if
  the centre dies.
* ``DATA`` -- one envelope: source, dest, optional message id, then a
  tagged payload.  The message is its payload: the bytes of its clock
  are the payload type's to declare, so nothing else travels beside it.
* ``ROSTER`` -- the centre's membership table (site -> listen port),
  broadcast once all expected clients are connected.  This is what lets
  a survivor dial its peers after the centre's socket goes dark.
* ``DRAINED`` -- a client telling the centre its scripted workload is
  fully generated (and its degraded-mode queue empty); TCP FIFO order
  means the centre has already ingested every op the sender will ever
  send when this frame arrives.
* ``GOODBYE`` -- the centre's orderly end-of-session marker, sent after
  the final broadcast on each connection.  A receiver that sees EOF
  *after* a GOODBYE knows the teardown was clean, not a crash.

Tag ``0x03`` is unassigned: a body that starts with it is an unknown
frame.

Payloads reuse the byte-exact codec of :mod:`repro.net.codec` wherever
one exists: an :class:`~repro.editor.messages.OpMessage` is embedded as
the *exact* bytes of :func:`~repro.net.codec.encode_op_message`, so the
overhead accounting measured in the simulator is the same accounting
that crosses the socket.  It needs no length: an op is always the
frame's last field, read to the end (trailing bytes are refused).
A frame is built and read in one pass, as :mod:`repro.net.codec` does
an op: a run of fixed-width fields is one ``Struct`` call and ends in
the tag of the payload after it.
Reliability packets carry their payload inline, one level deep; the
failover vocabulary (snapshot / resync / elect / promote /
contribution) has its own tags so a cluster can exercise crash
recovery over TCP.

:class:`WireChannel` is the seam: a :class:`~repro.net.channel.Channel`
like :class:`~repro.net.channel.FIFOChannel` (the same message-id
assignment and byte accounting, ``fifo_respected``), it writes frames to
an :class:`asyncio.StreamWriter` instead of scheduling a simulated
delivery.  Editor processes attach it via the ordinary
``attach_channel`` call and never learn the difference.
"""

from __future__ import annotations

import asyncio
import random
import struct
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Optional, Union

from repro.editor.messages import (
    ElectMessage,
    OpMessage,
    PromoteMessage,
    ResyncRequest,
    SnapshotMessage,
    StateContribution,
)
from repro.net.channel import Channel
from repro.net.codec import (
    MALFORMED,
    UNFIT,
    CodecError,
    encode_op_message,
    malformed,
    read_op_message,
    trailing,
    truncated_text,
    unfit,
)
from repro.net.reliability import ReliablePacket
from repro.net.scheduler import Scheduler
from repro.net.transport import Envelope

FRAME_HELLO = 0x01
FRAME_DATA = 0x02
FRAME_ROSTER = 0x04
FRAME_GOODBYE = 0x05
FRAME_DRAINED = 0x06

PAYLOAD_NONE = 0x00
PAYLOAD_OP = 0x01
PAYLOAD_RELIABLE = 0x02
PAYLOAD_SNAPSHOT = 0x03
PAYLOAD_RESYNC = 0x04
PAYLOAD_ELECT = 0x05
PAYLOAD_PROMOTE = 0x06
PAYLOAD_CONTRIB = 0x07

# Flag bits of a reliability packet's one-byte flags field.
RELIABLE_PROBE = 0x01
RELIABLE_GAP = 0x02

# A frame larger than this is a protocol error, not a big message: the
# workloads move edits, not bulk state.  Guards readexactly() against a
# corrupt or hostile length prefix.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LENGTH_PREFIX = struct.Struct(">I")
LENGTH_PREFIX_BYTES = _LENGTH_PREFIX.size

# The fixed-width runs, one layout each (the table is DESIGN 5.4).  A
# run ends in the tag of the payload that follows it, or in the length
# of the string whose bytes follow it.
_DATA_HEAD = struct.Struct(">BIIIB")  # tag, source, dest, message id + 1, payload tag
_RELIABLE_HEAD = struct.Struct(">IIIBB")  # seq + 1, epoch, ack + 1, flags, payload tag
_U32 = struct.Struct(">I")
_PAIR = struct.Struct(">II")
_TAG_U32 = struct.Struct(">BI")
_TAG_PAIR = struct.Struct(">BII")


class WireError(CodecError):
    """Raised on malformed frames or unencodable payloads."""


# -- control frames ------------------------------------------------------------


@dataclass(frozen=True)
class Hello:
    """The connection-opening handshake: who dialed in, and where the
    dialer itself accepts connections (0 = nowhere -- failover off)."""

    pid: int
    listen_port: int = 0


@dataclass(frozen=True)
class Roster:
    """The centre's membership table: client site -> failover listen port."""

    ports: dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Goodbye:
    """Orderly end-of-session marker: EOF after this is clean teardown."""


@dataclass(frozen=True)
class Drained:
    """A client's workload-complete signal (FIFO-ordered after its last op)."""

    site: int


# -- payload encoding ----------------------------------------------------------
# A DATA frame or a reliable packet carries an op nearly always, so each
# reads and writes its op itself; these two hold every other payload.


def _encode_payload(payload: Any) -> tuple[int, bytes]:
    """A payload other than an op: its tag, which closes the run before
    it, and its bytes."""
    if isinstance(payload, ReliablePacket):
        inner = payload.payload
        tag, body = ((PAYLOAD_OP, encode_op_message(inner))
                     if isinstance(inner, OpMessage) else _encode_payload(inner))
        flags = ((RELIABLE_PROBE if payload.probe else 0)
                 | (RELIABLE_GAP if payload.gap else 0))
        return PAYLOAD_RELIABLE, _RELIABLE_HEAD.pack(
            payload.seq + 1, payload.epoch, payload.ack + 1,  # seq/ack are >= -1
            flags, tag) + body
    if payload is None:
        return PAYLOAD_NONE, b""
    if isinstance(payload, SnapshotMessage):
        if not isinstance(payload.document, str):
            raise WireError(
                f"only text documents cross the wire, got "
                f"{type(payload.document).__name__}"
            )
        document = payload.document.encode("utf-8")
        counts = payload.counts
        return PAYLOAD_SNAPSHOT, (
            _U32.pack(len(document)) + document
            + struct.pack(f">II{len(counts)}I", payload.notifier_epoch,
                          len(counts), *counts))
    if isinstance(payload, ResyncRequest):
        return PAYLOAD_RESYNC, _U32.pack(payload.epoch)
    if isinstance(payload, ElectMessage):
        return PAYLOAD_ELECT, _U32.pack(payload.notifier_epoch)
    if isinstance(payload, PromoteMessage):
        return PAYLOAD_PROMOTE, _PAIR.pack(payload.successor, payload.notifier_epoch)
    if isinstance(payload, StateContribution):
        return PAYLOAD_CONTRIB, _U32.pack(payload.acknowledged)
    raise WireError(f"cannot encode payload type {type(payload).__name__}")


def _decode_payload(tag: int, data: bytes, pos: int,
                    nested: bool = False) -> tuple[Any, int]:
    """Read the payload ``tag`` names at ``pos`` (any but an op);
    returns it and the offset after it."""
    if tag == PAYLOAD_RELIABLE:
        if nested:
            # No sender wraps a packet in a packet; following a chain
            # of heads would hand a hostile frame the recursion limit.
            raise WireError("reliable packet nested in a reliable packet")
        seq, epoch, ack, flags, inner = _RELIABLE_HEAD.unpack_from(data, pos)
        if flags & ~(RELIABLE_PROBE | RELIABLE_GAP):
            raise WireError(f"unknown reliable-packet flags 0x{flags:02x}")
        if flags & RELIABLE_PROBE and seq != 0:
            # ReliablePacket would refuse it with a bare ValueError, which
            # no reader of this wire catches.
            raise WireError(f"a probe is unsequenced, got seq {seq - 1}")
        pos += 14
        payload, end = (read_op_message(data, pos) if inner == PAYLOAD_OP
                        else _decode_payload(inner, data, pos, nested=True))
        return ReliablePacket(seq - 1, epoch, ack - 1, payload,
                              bool(flags & RELIABLE_PROBE),
                              bool(flags & RELIABLE_GAP)), end
    if tag == PAYLOAD_NONE:
        return None, pos
    if tag == PAYLOAD_SNAPSHOT:
        (length,) = _U32.unpack_from(data, pos)
        pos += 4
        end = pos + length
        if end > len(data):
            raise truncated_text(length, pos, data)
        document = str(data[pos:end], "utf-8")
        notifier_epoch, n = _PAIR.unpack_from(data, end)
        counts = struct.unpack_from(f">{n}I", data, end + 8)
        return SnapshotMessage(document=document, counts=counts,
                               notifier_epoch=notifier_epoch), end + 8 + 4 * n
    if tag == PAYLOAD_RESYNC:
        return ResyncRequest(epoch=_U32.unpack_from(data, pos)[0]), pos + 4
    if tag == PAYLOAD_ELECT:
        return ElectMessage(notifier_epoch=_U32.unpack_from(data, pos)[0]), pos + 4
    if tag == PAYLOAD_PROMOTE:
        successor, notifier_epoch = _PAIR.unpack_from(data, pos)
        return PromoteMessage(successor=successor,
                              notifier_epoch=notifier_epoch), pos + 8
    if tag == PAYLOAD_CONTRIB:
        return StateContribution(acknowledged=_U32.unpack_from(data, pos)[0]), pos + 4
    raise WireError(f"unknown payload tag 0x{tag:02x}")


# -- frame encoding ------------------------------------------------------------


def encode_hello(pid: int, listen_port: int = 0) -> bytes:
    """The connection-opening frame body: who is dialing in, and the
    port the dialer's own failover listener is bound to (0 = none)."""
    try:
        return _TAG_PAIR.pack(FRAME_HELLO, pid, listen_port)
    except UNFIT as exc:
        raise unfit((pid, listen_port), exc) from exc


def encode_roster(ports: dict[int, int]) -> bytes:
    """The membership table as a ROSTER frame body (no length prefix)."""
    try:
        return _TAG_U32.pack(FRAME_ROSTER, len(ports)) + b"".join(
            [_PAIR.pack(site, ports[site]) for site in sorted(ports)])
    except UNFIT as exc:
        raise unfit(ports, exc) from exc


def encode_goodbye() -> bytes:
    """The orderly end-of-session marker as a GOODBYE frame body."""
    return bytes((FRAME_GOODBYE,))


def encode_drained(site: int) -> bytes:
    """A client's workload-complete signal as a DRAINED frame body."""
    try:
        return _TAG_U32.pack(FRAME_DRAINED, site)
    except UNFIT as exc:
        raise unfit(site, exc) from exc


def encode_envelope(envelope: Envelope) -> bytes:
    """One envelope as a DATA frame body (no length prefix)."""
    payload = envelope.payload
    mid = envelope.message_id
    try:
        tag, body = ((PAYLOAD_OP, encode_op_message(payload))
                     if isinstance(payload, OpMessage) else _encode_payload(payload))
        return _DATA_HEAD.pack(FRAME_DATA, envelope.source, envelope.dest,
                               0 if mid is None else mid + 1, tag) + body
    except UNFIT as exc:
        raise unfit(envelope, exc) from exc


FrameValue = Union[Hello, Envelope, Roster, Goodbye, Drained]


def decode_frame(body: bytes) -> FrameValue:
    """Decode a frame body: HELLO -> Hello, DATA -> Envelope,
    ROSTER/GOODBYE/DRAINED -> their control dataclasses."""
    value: FrameValue
    try:
        tag = body[0]
        if tag == FRAME_DATA:
            _, source, dest, raw_mid, kind = _DATA_HEAD.unpack_from(body, 0)
            payload, end = (read_op_message(body, 14) if kind == PAYLOAD_OP
                            else _decode_payload(kind, body, 14))
            value = Envelope(source, dest, payload, None if raw_mid == 0 else raw_mid - 1)
        elif tag == FRAME_HELLO:
            _, pid, listen_port = _TAG_PAIR.unpack_from(body, 0)
            value, end = Hello(pid=pid, listen_port=listen_port), 9
        elif tag == FRAME_ROSTER:
            _, count = _TAG_U32.unpack_from(body, 0)
            end = 5
            ports = {}
            for _ in range(count):
                site, port = _PAIR.unpack_from(body, end)
                ports[site] = port
                end += 8
            value = Roster(ports=ports)
        elif tag == FRAME_GOODBYE:
            value, end = Goodbye(), 1
        elif tag == FRAME_DRAINED:
            _, site = _TAG_U32.unpack_from(body, 0)
            value, end = Drained(site=site), 5
        else:
            raise WireError(f"unknown frame tag 0x{tag:02x}")
    except MALFORMED as exc:
        raise malformed(exc) from exc
    if end != len(body):
        raise trailing(body, end)
    return value


def frame(body: bytes) -> bytes:
    """Prefix a frame body with its u32 length."""
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LENGTH_PREFIX.pack(len(body)) + body


async def read_frame(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Read one length-prefixed frame body; ``None`` on clean EOF."""
    try:
        prefix = await reader.readexactly(LENGTH_PREFIX_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # EOF on a frame boundary: the peer closed cleanly
        raise WireError(
            f"connection closed mid-prefix ({len(exc.partial)} of "
            f"{LENGTH_PREFIX_BYTES} bytes)"
        ) from exc
    (length,) = _LENGTH_PREFIX.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise WireError(
            f"connection closed mid-frame ({len(exc.partial)} of "
            f"{length} bytes)"
        ) from exc


# -- the channel seam ----------------------------------------------------------


class WireChannel(Channel):
    """A unidirectional TCP-backed channel with the FIFOChannel surface.

    Owns the *sending* half only: deliveries on the reverse path are the
    peer process's :func:`pump` over its own reader.  Byte accounting is
    :class:`~repro.net.channel.Channel`'s (model bytes, not frame bytes,
    so simulator and wire runs report comparable numbers).
    """

    def __init__(self, sim: Scheduler, source: int, dest: int,
                 writer: asyncio.StreamWriter) -> None:
        super().__init__(sim, source, dest)
        self.writer = writer

    def send(self, envelope: Envelope) -> float:
        """Frame ``envelope`` onto the stream; returns the send time.

        A send against a closing or torn-down stream is *dropped*, not
        raised (the peer's loss is traced as ``peer_lost`` where its
        connection ends): during a failover window the reliability
        layer's retransmit timers keep firing at the dead centre's
        socket, and the protocol above recovers those ops via the
        failover snapshot -- the wire must not turn that race into an
        unhandled exception on the event loop.  A dropped send is neither
        numbered nor counted: the stats are what the stream carried.
        """
        if self.writer.is_closing():
            return self.sim.now
        # Framed under the id it is about to be given, and only then
        # admitted: a frame the codec refuses draws no id and no count.
        fresh = envelope.message_id is None
        if fresh:
            envelope.message_id = self.sim.peek_message_id()
        try:
            data = frame(encode_envelope(envelope))
        finally:
            if fresh:
                envelope.message_id = None
        self._admit(envelope)
        try:
            self.writer.write(data)
        except (ConnectionError, RuntimeError):
            pass  # torn down between the check and the write: dropped too
        return self.sim.now

    def fifo_respected(self) -> bool:
        """Vacuously true: a TCP stream cannot reorder its own bytes."""
        return True


async def pump(reader: asyncio.StreamReader,
               on_envelope: Callable[[Envelope], None],
               *, on_roster: Optional[Callable[[Roster], None]] = None,
               on_goodbye: Optional[Callable[[], None]] = None,
               on_drained: Optional[Callable[[Drained], None]] = None,
               ) -> None:
    """Feed every DATA frame on ``reader`` to ``on_envelope`` until EOF.

    The counterpart of :class:`WireChannel`: where the simulator's
    channel *schedules* a delivery callback, the wire's pump *awaits*
    frames and invokes the process's ``on_message`` inline on the event
    loop -- same callback, different clock.  A HELLO frame after the
    handshake is a protocol error; ROSTER / GOODBYE / DRAINED frames go
    to their optional callbacks and are otherwise
    ignored (control traffic is advisory -- a pump that does not
    subscribe must not choke on it).
    """
    while True:
        body = await read_frame(reader)
        if body is None:
            break
        decoded = decode_frame(body)
        if isinstance(decoded, Envelope):
            on_envelope(decoded)
        elif isinstance(decoded, Roster):
            if on_roster is not None:
                on_roster(decoded)
        elif isinstance(decoded, Goodbye):
            if on_goodbye is not None:
                on_goodbye()
        elif isinstance(decoded, Drained):
            if on_drained is not None:
                on_drained(decoded)
        else:
            raise WireError("unexpected HELLO frame after handshake")


# -- dialing with backoff ------------------------------------------------------

DIAL_ATTEMPTS = 8  # connection attempts before giving up
DIAL_BASE_DELAY = 0.05  # seconds before the first retry
DIAL_MAX_DELAY = 2.0  # cap on one un-jittered delay
DIAL_BACKOFF = 2.0  # delay multiplier per attempt
DIAL_JITTER = 0.5  # each delay is scaled by a factor in [1, 1 + jitter]


def backoff_delays(seed: int = 0) -> list[float]:
    """The deterministic retry schedule ``connect_with_backoff`` sleeps on.

    Delay ``n`` (before retry ``n+1``) is ``min(base * backoff**n, cap)``
    scaled by a seeded jitter factor in ``[1, 1 + jitter]`` -- capped
    exponential backoff that desynchronises survivors re-dialing the
    same successor without losing reproducibility.
    """
    rng = random.Random(seed)
    return [
        min(DIAL_BASE_DELAY * DIAL_BACKOFF ** n, DIAL_MAX_DELAY)
        * (1.0 + DIAL_JITTER * rng.random())
        for n in range(DIAL_ATTEMPTS - 1)
    ]


async def connect_with_backoff(
    host: str, port: int, *, seed: int = 0,
    connect: Callable[
        [str, int],
        Awaitable[tuple[asyncio.StreamReader, asyncio.StreamWriter]],
    ] | None = None,
    sleep: Callable[[float], Awaitable[None]] | None = None,
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Dial ``host:port``, retrying on refusal with capped backoff.

    Used for both the initial cluster connect (the listener may not be
    up yet) and the failover re-dial (the successor promotes while the
    survivors are already dialing).  ``connect``/``sleep`` are
    injectable so the schedule is unit-testable without sockets.
    """
    do_connect = connect if connect is not None else _open_connection
    do_sleep = sleep if sleep is not None else asyncio.sleep
    delays = backoff_delays(seed)
    last_error: OSError | None = None
    for attempt in range(DIAL_ATTEMPTS):
        try:
            return await do_connect(host, port)
        except OSError as exc:
            last_error = exc
            if attempt < len(delays):
                await do_sleep(delays[attempt])
    raise WireError(
        f"could not connect to {host}:{port} after {DIAL_ATTEMPTS} attempts"
    ) from last_error


async def _open_connection(
    host: str, port: int,
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    return await asyncio.open_connection(host, port)
