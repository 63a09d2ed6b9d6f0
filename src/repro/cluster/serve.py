"""The notifier process: site 0 of the star, behind a TCP accept loop.

``python -m repro serve --clients N --out DIR`` binds an ephemeral port
(port 0 -- the kernel picks, so parallel CI runs cannot collide),
prints ``LISTENING <port>`` on stdout for the driver to parse, and
serves the paper's notifier role to ``N`` dialing clients.  The editor
object is the stock :class:`~repro.editor.star_notifier.StarNotifier`;
the only cluster-specific code is the socket plumbing around it: a
:class:`Hub` (the centre's side of the session protocol, the same one a
promoted client runs) inside a
:class:`~repro.cluster.harness.ProcessRig` (what every process is).

Membership: each client's HELLO frame carries the port of its *own*
listening socket (0 when failover is disabled).  Once every client is
connected, the notifier broadcasts the full table as a ROSTER frame --
the directory survivors use to elect and dial a successor if this
process dies (see :mod:`repro.cluster.failover`).

Termination: each client announces the end of its *generation* workload
with a DRAINED frame; TCP FIFO ordering means every operation a client
will ever send has been ingested (and its transforms broadcast) by the
time its DRAINED arrives.  When all clients have drained, the notifier
broadcasts GOODBYE -- again by FIFO, each client has executed every
broadcast by the time it reads the GOODBYE -- and waits for the clients
to hang up.  An EOF *after* GOODBYE is therefore a clean teardown, not
a peer death.  A connection whose first frame is not the HELLO of an
expected, not-yet-connected member is counted and closed, and so is an
admitted member's once it sends a frame that does not decode, that
speaks for another site or that the editor refuses; the last line on
stdout, ``SERVED rejected=R garbled=G``, carries both counts.  A hard
timeout bounds the wait; on expiry the trace is closed with
``timed_out`` set so the driver fails the run instead of diagnosing a
hang.

Observability: the trace streams to ``trace_0.jsonl`` as events are
emitted, and it is the one file the process writes: its post-mortem,
with the ``sampled`` event the notifier traces every
:data:`~repro.cluster.harness.SAMPLE_INTERVAL_S` (as every client does
in its own) what ``repro monitor`` reads, and with its closing
``finished`` event what the driver reads.  A member hung up on for a
garbled frame is traced as ``peer_lost`` (``via="garbled"``).  The
injected ``--crash-notifier-after`` fault traces a ``crashed`` event
and hard-exits without a closing record, like a real crash, and the
file still holds the generation events the driver's merged-trace
cross-check needs to stay EXACT across a failover.
"""

from __future__ import annotations

import asyncio
import os
from pathlib import Path
from typing import Callable, Optional

from repro.cluster.harness import DEFAULT_DOCUMENT, ClusterConfig, ProcessRig
from repro.editor.star_client import StarClient
from repro.editor.star_notifier import StarNotifier
from repro.net.codec import CodecError
from repro.net.transport import Envelope
from repro.session import ConsistencyError
from repro.net.wire import (
    Drained,
    Hello,
    WireChannel,
    WireError,
    decode_frame,
    encode_goodbye,
    encode_roster,
    frame,
    pump,
    read_frame,
)
from repro.obs.tracer import TraceEventKind


class Hub:
    """The centre's side of the session protocol over sockets.

    One body for the original notifier and for a promoted successor:
    accept, HELLO, attach a :class:`~repro.net.wire.WireChannel`, pump
    DATA / DRAINED, GOODBYE, wait for the hang-ups.  What
    differs between the two centres arrives as callables: ``on_hello``
    (a member was admitted) and ``may_finish`` (the centre's own work is
    done).

    One rule ends a session: GOODBYE is broadcast once every expected
    member has drained and ``may_finish()``; ``finished`` is set once
    they have all hung up.  The first frame of a connection is outside
    input: unless it is the HELLO of an expected member that is not yet
    connected, the connection is counted in ``rejected`` and closed; a
    later frame that does not decode, a DATA frame whose source is not
    the member or whose destination is not this centre, or one the
    endpoint refuses (``ConsistencyError``) closes it too,
    counted in ``garbled`` and traced on the endpoint's tracer as
    ``peer_lost`` with ``via="garbled"``.
    """

    def __init__(
        self,
        endpoint: "StarNotifier | StarClient",
        expected: set[int],
        finished: asyncio.Event,
        *,
        on_hello: Callable[[int], None],
        may_finish: Callable[[], bool],
    ) -> None:
        self.endpoint = endpoint
        self.expected = expected
        self.finished = finished
        self.on_hello = on_hello
        self.may_finish = may_finish
        self.writers: dict[int, asyncio.StreamWriter] = {}
        self.listen_ports: dict[int, int] = {}
        self.drained: set[int] = set()
        self.hung_up: set[int] = set()
        self.rejected = 0  # connections turned away at their first frame
        self.garbled = 0  # admitted members hung up on for a bad frame
        self.goodbye_sent = False
        #: Pumps wait on this: the original centre opens it once every
        #: member has a channel, a successor listens with it open.
        self.pumps_open = asyncio.Event()
        self._server: Optional[asyncio.base_events.Server] = None
        # Every live connection's handler task and the writer that ends
        # it: close() must see both off before the loop goes away.
        self._inbound: dict["asyncio.Task[None]", asyncio.StreamWriter] = {}

    async def listen(self, host: str) -> int:
        """Bind an ephemeral port and start accepting; returns the port."""
        self._server = await asyncio.start_server(self._handle, host, 0)
        return int(self._server.sockets[0].getsockname()[1])

    def broadcast(self, body: bytes) -> None:
        for writer in self.writers.values():
            try:
                writer.write(frame(body))
            except (ConnectionError, RuntimeError):
                pass  # its hang-up is the pump's to report

    async def _admit(self, reader: asyncio.StreamReader) -> Optional[Hello]:
        """The HELLO that opens a connection, or ``None`` to turn it away."""
        try:
            body = await read_frame(reader)
            if body is None:
                return None  # hung up (or was hung up on) before saying anything
            hello = decode_frame(body)
        except (CodecError, ConnectionError):
            hello = None
        if (isinstance(hello, Hello) and hello.pid in self.expected
                and hello.pid not in self.writers):
            return hello
        self.rejected += 1
        return None

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        handler = asyncio.current_task()
        assert handler is not None  # start_server runs this as a task
        self._inbound[handler] = writer
        # Over is gone: the table holds live connections only, so
        # strangers that are turned away cannot grow it.
        handler.add_done_callback(self._inbound.pop)
        hello = await self._admit(reader)
        if hello is None:
            writer.close()
            return
        member = hello.pid
        self.writers[member] = writer
        self.listen_ports[member] = hello.listen_port
        self.endpoint.attach_channel(member, WireChannel(
            self.endpoint.sim, self.endpoint.pid, member, writer))
        self.on_hello(member)
        # Hold this connection's pump until the centre says go: executing
        # an early op would broadcast into a not-yet-attached spoke.  TCP
        # buffers whatever the eager member already sent.
        await self.pumps_open.wait()

        def on_envelope(envelope: Envelope) -> None:
            # A connection speaks for its member to this centre only: a
            # frame naming any other site would let it forge operations.
            if envelope.source != member or envelope.dest != self.endpoint.pid:
                raise WireError(
                    f"DATA frame {envelope.source}->{envelope.dest} on the "
                    f"connection of member {member}")
            self.endpoint.on_message(envelope)
            self.note_progress()

        def on_drained(_frame: Drained) -> None:
            # The promise is per connection, so the connection's own
            # identity counts, not the site the frame names.
            self.drained.add(member)
            self.note_progress()

        try:
            await pump(reader, on_envelope, on_drained=on_drained)
        except (CodecError, ConsistencyError):
            # Hung up on like a killed member, but counted and traced: the
            # frame passed the HELLO and still was not one of ours (it
            # does not decode, or the endpoint refuses it).
            self.garbled += 1
            tracer = self.endpoint.tracer
            if tracer is not None:
                tracer.emit(TraceEventKind.PEER_LOST, self.endpoint.pid,
                            peer=member, via="garbled")
        except ConnectionError:
            pass  # a killed member is hung up, not a crash here
        finally:
            writer.close()  # close() will not find this connection any more
            self.hung_up.add(member)
            self.note_progress()

    def note_progress(self) -> None:
        """End the session when it is over; callable from any point that
        advances the run, idempotent.

        Completion rides on the DRAINED protocol: a member's DRAINED
        frame (TCP FIFO) proves every op it will ever generate has been
        ingested and its transforms broadcast.  All members drained and
        the centre's own work done => every broadcast is on the wire =>
        GOODBYE (FIFO again: each member has executed every broadcast by
        the time it reads it), then wait for the clean EOFs.
        """
        if not self.goodbye_sent:
            if not (self.expected <= self.drained and self.may_finish()):
                return
            self.goodbye_sent = True
            self.broadcast(encode_goodbye())
        if self.expected <= self.hung_up:
            self.finished.set()

    async def close(self) -> None:
        """Stop accepting, hang up on every connection, see the handlers
        return.

        A handler still awaiting a frame when ``asyncio.run`` tears the
        loop down is cancelled, and asyncio reports a cancelled stream
        handler as an unhandled error -- so a clean run must end them
        itself: closing a connection feeds its reader EOF, which is how
        a pump (or a silent stranger's first read) returns.
        """
        assert self._server is not None
        self._server.close()
        inbound = dict(self._inbound)  # a handler leaves the table as it returns
        for writer in inbound.values():
            writer.close()
        for writer in inbound.values():
            try:
                await writer.wait_closed()
            except ConnectionError:  # the member hung up first, uncleanly
                pass
        if inbound:
            await asyncio.wait(inbound)
        await self._server.wait_closed()


async def serve(config: ClusterConfig, out_dir: Path,
                *, on_port: Optional["asyncio.Future[int]"] = None) -> bool:
    """Run the notifier process; returns True iff the run completed."""
    rig = ProcessRig(config, out_dir, 0, "notifier")
    sched = rig.sched
    notifier = StarNotifier(
        sched,
        config.clients,
        initial_state=DEFAULT_DOCUMENT,
        reliability=config.reliability,
        tracer=rig.tracer,
    )

    def on_hello(member: int) -> None:
        if len(hub.writers) == config.clients:
            # Everyone is here: publish the membership directory before
            # any operation is pumped, so every client holds the roster
            # it would need to elect a successor -- broadcast first,
            # then release the pumps (TCP FIFO puts ROSTER ahead of any
            # DATA broadcast on each spoke).
            hub.broadcast(encode_roster(hub.listen_ports))
            hub.pumps_open.set()

    hub = Hub(notifier, set(range(1, config.clients + 1)), rig.done,
              on_hello=on_hello, may_finish=lambda: True)
    rig.sample(lambda: notifier)

    crash_task: Optional["asyncio.Task[None]"] = None
    if config.crash_notifier_after_s is not None:

        async def crash() -> None:
            assert config.crash_notifier_after_s is not None
            # The timer counts from full connection, not process start:
            # subprocess interpreter startup is hundreds of milliseconds
            # of noise, and a crash before the roster broadcast would
            # test "client can't connect", not "cluster loses its
            # centre mid-run".
            await hub.pumps_open.wait()
            await asyncio.sleep(config.crash_notifier_after_s)
            # The event StarNotifier.crash traces in the simulator, so
            # the trace ends with why it ends.
            rig.tracer.emit(TraceEventKind.CRASHED, rig.site,
                            epoch=notifier.notifier_epoch)
            # A real crash closes no trace: exit without passing go.
            # The streamed trace is all that survives -- which is the
            # point of having it.
            os._exit(70)

        crash_task = asyncio.ensure_future(crash())

    port = await hub.listen(config.host)
    if on_port is not None:
        on_port.set_result(port)
    print(f"LISTENING {port}", flush=True)
    await rig.wait()
    if crash_task is not None:
        crash_task.cancel()
    await hub.close()
    print(f"SERVED rejected={hub.rejected} garbled={hub.garbled}", flush=True)
    return rig.finish(notifier)
