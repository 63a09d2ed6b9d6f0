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
* ``DATA`` -- one envelope: source, dest, timestamp-byte accounting,
  optional message id, kind string, then a tagged payload.
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
the *exact* bytes of :func:`~repro.net.codec.encode_op_message`
(length-prefixed), so the overhead accounting measured in the simulator
is the same accounting that crosses the socket.  Reliability packets
carry their payload inline, one level deep; the failover vocabulary
(snapshot / resync / elect / promote / contribution) has its own tags
so a cluster can exercise crash recovery over TCP.

:class:`WireChannel` is the seam: it exposes the same ``send(envelope)``
surface as :class:`~repro.net.channel.FIFOChannel` (message-id
assignment, byte accounting, ``fifo_respected``), but writes frames to
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
from repro.net.channel import ChannelStats
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

# The fixed-width runs of the hot frames, one layout each (the table is
# DESIGN 5.4); a string's bytes follow the run that ends in its length.
_DATA_HEAD = struct.Struct(">BIIIII")  # tag, source, dest, ts bytes, id + 1, len(kind)
_OP_PAYLOAD_HEAD = struct.Struct(">BI")  # tag, length of the embedded op message
_RELIABLE_HEAD = struct.Struct(">BIIIB")  # tag, seq + 1, epoch, ack + 1, flags


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


def _encode_payload(payload: Any, writer: Writer) -> None:
    if payload is None:
        writer.u8(PAYLOAD_NONE)
    elif isinstance(payload, OpMessage):
        # Embed the codec's exact bytes: the wire carries the same
        # serialisation the simulator's accounting charges.
        body = encode_op_message(payload)
        writer.pack(_OP_PAYLOAD_HEAD, PAYLOAD_OP, len(body)).raw(body)
    elif isinstance(payload, ReliablePacket):
        writer.pack(
            _RELIABLE_HEAD, PAYLOAD_RELIABLE,
            payload.seq + 1, payload.epoch, payload.ack + 1,  # seq/ack are >= -1
            (RELIABLE_PROBE if payload.probe else 0)
            | (RELIABLE_GAP if payload.gap else 0))
        _encode_payload(payload.payload, writer)
    elif isinstance(payload, SnapshotMessage):
        if not isinstance(payload.document, str):
            raise WireError(
                f"only text documents cross the wire, got "
                f"{type(payload.document).__name__}"
            )
        if payload.origin_clock is not None:
            # The oracle clock is in-process diagnostic state; cluster
            # processes have no shared event log to interpret it in.
            raise WireError("origin_clock does not cross the wire")
        writer.u8(PAYLOAD_SNAPSHOT)
        writer.string(payload.document)
        writer.u32(payload.base_count)
        writer.u32(payload.own_count)
        writer.u32(payload.notifier_epoch)
        writer.u32(len(payload.incorporated))
        for op_id in sorted(payload.incorporated):
            writer.string(op_id)
    elif isinstance(payload, ResyncRequest):
        writer.u8(PAYLOAD_RESYNC).u32(payload.epoch)
    elif isinstance(payload, ElectMessage):
        writer.u8(PAYLOAD_ELECT).u32(payload.notifier_epoch)
    elif isinstance(payload, PromoteMessage):
        writer.u8(PAYLOAD_PROMOTE).u32(payload.successor).u32(payload.notifier_epoch)
    elif isinstance(payload, StateContribution):
        writer.u8(PAYLOAD_CONTRIB)
        writer.u32(payload.site)
        writer.u32(payload.received_from_center)
        writer.u32(payload.generated_locally)
        writer.u32(len(payload.received_per_origin))
        for origin in sorted(payload.received_per_origin):
            writer.u32(origin).u32(payload.received_per_origin[origin])
        writer.u32(len(payload.pending))
        for op_id, op in payload.pending:
            writer.string(op_id)
            encode_operation(op, writer)
        if payload.document is None:
            writer.u8(0)
        elif isinstance(payload.document, str):
            writer.u8(1).string(payload.document)
        else:
            raise WireError(
                f"only text documents cross the wire, got "
                f"{type(payload.document).__name__}"
            )
    else:
        raise WireError(f"cannot encode payload type {type(payload).__name__}")


def _presence(reader: Reader) -> bool:
    """A presence byte is 0 or 1: anything else would decode to a value
    that does not encode back to the bytes it came from."""
    flag = reader.u8()
    if flag > 1:
        raise WireError(f"presence byte is 0 or 1, got 0x{flag:02x}")
    return flag == 1


def _decode_payload(reader: Reader, nested: bool = False) -> Any:
    tag = reader.peek()
    if tag == PAYLOAD_OP:
        _, length = reader.unpack(_OP_PAYLOAD_HEAD)
        return decode_op_message(reader.raw(length))
    if tag == PAYLOAD_RELIABLE:
        if nested:
            # No sender wraps a packet in a packet; following a chain
            # of heads would hand a hostile frame the recursion limit.
            raise WireError("reliable packet nested in a reliable packet")
        _, seq, epoch, ack, flags = reader.unpack(_RELIABLE_HEAD)
        if flags & ~(RELIABLE_PROBE | RELIABLE_GAP):
            raise WireError(f"unknown reliable-packet flags 0x{flags:02x}")
        if flags & RELIABLE_PROBE and seq != 0:
            # ReliablePacket would refuse it with a bare ValueError, which
            # no reader of this wire catches.
            raise WireError(f"a probe is unsequenced, got seq {seq - 1}")
        payload = _decode_payload(reader, nested=True)
        return ReliablePacket(seq=seq - 1, epoch=epoch, ack=ack - 1, payload=payload,
                              probe=bool(flags & RELIABLE_PROBE),
                              gap=bool(flags & RELIABLE_GAP))
    reader.u8()  # the cold payloads: the tag, then field by field
    if tag == PAYLOAD_NONE:
        return None
    if tag == PAYLOAD_SNAPSHOT:
        document = reader.string()
        base_count = reader.u32()
        own_count = reader.u32()
        notifier_epoch = reader.u32()
        incorporated = frozenset(reader.string() for _ in range(reader.u32()))
        return SnapshotMessage(document=document, base_count=base_count,
                               own_count=own_count,
                               notifier_epoch=notifier_epoch,
                               incorporated=incorporated)
    if tag == PAYLOAD_RESYNC:
        return ResyncRequest(epoch=reader.u32())
    if tag == PAYLOAD_ELECT:
        return ElectMessage(notifier_epoch=reader.u32())
    if tag == PAYLOAD_PROMOTE:
        successor = reader.u32()
        return PromoteMessage(successor=successor, notifier_epoch=reader.u32())
    if tag == PAYLOAD_CONTRIB:
        site = reader.u32()
        received_from_center = reader.u32()
        generated_locally = reader.u32()
        received_per_origin = {}
        for _ in range(reader.u32()):
            origin = reader.u32()
            received_per_origin[origin] = reader.u32()
        pending = tuple(
            (reader.string(), decode_operation(reader))
            for _ in range(reader.u32())
        )
        document = reader.string() if _presence(reader) else None
        return StateContribution(site=site,
                                 received_from_center=received_from_center,
                                 generated_locally=generated_locally,
                                 received_per_origin=received_per_origin,
                                 pending=pending, document=document)
    raise WireError(f"unknown payload tag 0x{tag:02x}")


# -- frame encoding ------------------------------------------------------------


def encode_hello(pid: int, listen_port: int = 0) -> bytes:
    """The connection-opening frame body: who is dialing in, and the
    port the dialer's own failover listener is bound to (0 = none)."""
    return Writer().u8(FRAME_HELLO).u32(pid).u32(listen_port).getvalue()


def encode_roster(ports: dict[int, int]) -> bytes:
    """The membership table as a ROSTER frame body (no length prefix)."""
    writer = Writer().u8(FRAME_ROSTER).u32(len(ports))
    for site in sorted(ports):
        writer.u32(site).u32(ports[site])
    return writer.getvalue()


def encode_goodbye() -> bytes:
    """The orderly end-of-session marker as a GOODBYE frame body."""
    return Writer().u8(FRAME_GOODBYE).getvalue()


def encode_drained(site: int) -> bytes:
    """A client's workload-complete signal as a DRAINED frame body."""
    return Writer().u8(FRAME_DRAINED).u32(site).getvalue()


def encode_envelope(envelope: Envelope) -> bytes:
    """One envelope as a DATA frame body (no length prefix)."""
    mid = envelope.message_id
    kind = envelope.kind.encode("utf-8")
    writer = Writer().pack(
        _DATA_HEAD, FRAME_DATA, envelope.source, envelope.dest,
        envelope.timestamp_bytes, 0 if mid is None else mid + 1, len(kind)).raw(kind)
    _encode_payload(envelope.payload, writer)
    return writer.getvalue()


FrameValue = Union[Hello, Envelope, Roster, Goodbye, Drained]


def decode_frame(body: bytes) -> FrameValue:
    """Decode a frame body: HELLO -> Hello, DATA -> Envelope,
    ROSTER/GOODBYE/DRAINED -> their control dataclasses."""
    reader = Reader(body)
    if reader.peek() == FRAME_DATA:
        _, source, dest, timestamp_bytes, raw_mid, length = reader.unpack(_DATA_HEAD)
        kind = reader.text(length)
        payload = _decode_payload(reader)
        reader.expect_done()
        return Envelope(source, dest, payload, timestamp_bytes, kind,
                        None if raw_mid == 0 else raw_mid - 1)
    tag = reader.u8()
    if tag == FRAME_HELLO:
        pid = reader.u32()
        listen_port = reader.u32()
        reader.expect_done()
        return Hello(pid=pid, listen_port=listen_port)
    if tag == FRAME_ROSTER:
        ports = {}
        for _ in range(reader.u32()):
            site = reader.u32()
            ports[site] = reader.u32()
        reader.expect_done()
        return Roster(ports=ports)
    if tag == FRAME_GOODBYE:
        reader.expect_done()
        return Goodbye()
    if tag == FRAME_DRAINED:
        site = reader.u32()
        reader.expect_done()
        return Drained(site=site)
    raise WireError(f"unknown frame tag 0x{tag:02x}")


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


class WireChannel:
    """A unidirectional TCP-backed channel with the FIFOChannel surface.

    Owns the *sending* half only: deliveries on the reverse path are the
    peer process's :func:`pump` over its own reader.  Byte accounting
    mirrors :class:`~repro.net.channel.FIFOChannel` (model bytes, from
    the accounting functions -- not frame bytes -- so simulator and wire
    runs report comparable numbers).
    """

    def __init__(self, sched: Scheduler, source: int, dest: int,
                 writer: asyncio.StreamWriter) -> None:
        self.sched = sched
        self.source = source
        self.dest = dest
        self.writer = writer
        # Test doubles that only collect bytes have no is_closing().
        self._is_closing: Callable[[], bool] = getattr(
            writer, "is_closing", lambda: False)
        self.stats = ChannelStats()
        self.dropped_on_dead_wire = 0

    def send(self, envelope: Envelope) -> float:
        """Frame ``envelope`` onto the stream; returns the send time.

        A send against a closing or torn-down stream is *dropped* (and
        counted), not raised: during a failover window the reliability
        layer's retransmit timers keep firing at the dead centre's
        socket, and the protocol above recovers those ops via the
        failover snapshot -- the wire must not turn that race into an
        unhandled exception on the event loop.
        """
        if envelope.source != self.source or envelope.dest != self.dest:
            raise ValueError(
                f"envelope addressed {envelope.source}->{envelope.dest} sent "
                f"on channel {self.source}->{self.dest}"
            )
        if envelope.message_id is None:
            envelope.message_id = self.sched.next_message_id()
        if self._is_closing():
            self.dropped_on_dead_wire += 1
            return self.sched.now
        self.stats.messages += 1
        total_bytes = envelope.total_bytes()
        self.stats.total_bytes += total_bytes
        self.stats.timestamp_bytes += envelope.timestamp_bytes
        self.stats.payload_bytes += total_bytes - envelope.timestamp_bytes - 8
        try:
            self.writer.write(frame(encode_envelope(envelope)))
        except (ConnectionError, RuntimeError):
            self.dropped_on_dead_wire += 1
        return self.sched.now

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


def backoff_delays(attempts: int, *, base_delay: float = 0.05,
                   max_delay: float = 2.0, backoff: float = 2.0,
                   jitter: float = 0.5, seed: int = 0) -> list[float]:
    """The deterministic retry schedule ``connect_with_backoff`` sleeps on.

    Delay ``n`` (before retry ``n+1``) is ``min(base * backoff**n, cap)``
    scaled by a seeded jitter factor in ``[1, 1 + jitter]`` -- capped
    exponential backoff that desynchronises survivors re-dialing the
    same successor without losing reproducibility.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    rng = random.Random(seed)
    delays = []
    for n in range(attempts - 1):
        delay = min(base_delay * backoff ** n, max_delay)
        delays.append(delay * (1.0 + jitter * rng.random()))
    return delays


async def connect_with_backoff(
    host: str, port: int, *, attempts: int = 8, base_delay: float = 0.05,
    max_delay: float = 2.0, backoff: float = 2.0, jitter: float = 0.5,
    seed: int = 0,
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
    delays = backoff_delays(attempts, base_delay=base_delay,
                            max_delay=max_delay, backoff=backoff,
                            jitter=jitter, seed=seed)
    last_error: OSError | None = None
    for attempt in range(attempts):
        try:
            return await do_connect(host, port)
        except OSError as exc:
            last_error = exc
            if attempt < len(delays):
                await do_sleep(delays[attempt])
    raise WireError(
        f"could not connect to {host}:{port} after {attempts} attempts"
    ) from last_error


async def _open_connection(
    host: str, port: int,
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    return await asyncio.open_connection(host, port)
