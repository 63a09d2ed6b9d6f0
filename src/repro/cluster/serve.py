"""The notifier process: site 0 of the star, behind a TCP accept loop.

``python -m repro serve --clients N --out DIR`` binds an ephemeral port
(port 0 -- the kernel picks, so parallel CI runs cannot collide),
prints ``LISTENING <port>`` on stdout for the driver to parse, and
serves the paper's notifier role to ``N`` dialing clients.  The editor
object is the stock :class:`~repro.editor.star_notifier.StarNotifier`;
the only cluster-specific code is the socket plumbing around it.

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
a peer death.  A hard timeout bounds the wait; on expiry the artifacts
are written with ``timed_out`` set so the driver fails the run instead
of diagnosing a hang.

Observability: with ``--telemetry-interval`` the notifier runs a
:class:`~repro.obs.telemetry.TelemetrySampler` on its scheduler,
appending frames to a crash-safe ``telemetry_0.jsonl`` stream, and
ingests the TELEMETRY frames its clients gossip over the wire -- which
makes it the cluster's live watchdog host: retransmit-storm, causal
stall, peer silence, and the digest divergence sentinel all run here,
emitting structured ``health`` records into the same stream.  A
:class:`~repro.obs.telemetry.FlightRecorder` dumps the recent trace
tail to ``flight_0.jsonl`` on the driver's kill-switch (SIGTERM), on
timeout, and on the injected ``--crash-notifier-after`` fault (which
then hard-exits without writing artifacts, like a real crash).  The
trace itself streams to ``trace_0.jsonl`` as events are emitted, so
the injected crash still leaves the generation events the driver's
merged-trace cross-check needs to stay EXACT across a failover.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time
from pathlib import Path
from typing import Optional

from repro.cluster.harness import (
    DEFAULT_DOCUMENT,
    ClusterConfig,
    endpoint_result,
    flight_path,
    streaming_trace_writer,
    telemetry_writer,
    wall_clock_tracer,
    write_artifacts,
)
from repro.editor.star_notifier import StarNotifier
from repro.net.beacon import BeaconSender
from repro.net.scheduler import AsyncioScheduler
from repro.net.transport import Envelope
from repro.net.wire import (
    Drained,
    Hello,
    WireChannel,
    WireError,
    decode_frame,
    encode_goodbye,
    encode_roster,
    encode_telemetry_frame,
    frame,
    pump,
    read_frame,
)
from repro.obs.telemetry import (
    FlightRecorder,
    HealthEvent,
    SilenceWatchdog,
    TelemetryFrame,
    TelemetrySampler,
    default_watchdogs,
    snapshot_endpoint,
)
from repro.obs.tracer import JsonlWriter


async def serve(config: ClusterConfig, out_dir: Path,
                *, on_port: Optional["asyncio.Future[int]"] = None) -> bool:
    """Run the notifier process; returns True iff the run completed."""
    sched = AsyncioScheduler()
    tracer = wall_clock_tracer()
    notifier = StarNotifier(
        sched,
        config.clients,
        initial_state=DEFAULT_DOCUMENT,
        record_checks=True,
        reliability=config.reliability_config(),
        tracer=tracer,
    )
    # Arm the latency observatory: cluster traces are wall-clock already
    # (the tracer's clock is time.time), so every generated op is
    # stamped with its origin time and span events mark each stage.
    notifier.span_clock = time.time
    recorder = FlightRecorder(tracer)
    trace_stream = streaming_trace_writer(out_dir, 0, "notifier", tracer)
    done = asyncio.Event()
    all_connected = asyncio.Event()
    writers: dict[int, asyncio.StreamWriter] = {}
    listen_ports: dict[int, int] = {}
    drained: set[int] = set()
    disconnected: set[int] = set()
    goodbye_sent = False
    killed = False

    telem: Optional[JsonlWriter] = None
    sampler: Optional[TelemetrySampler] = None
    beacon: Optional[BeaconSender] = None
    if config.telemetry_enabled:
        stream = telemetry_writer(out_dir, 0, "notifier")
        telem = stream
        if config.beacon_port is not None:
            beacon = BeaconSender(config.host, config.beacon_port)
        interval = config.telemetry_interval_s
        watchdogs = default_watchdogs(
            expected_ops=config.total_ops,
            stall_after=max(4 * interval, 1.0),
            storm_threshold=10,
        )
        # Silence is judged by *arrival* time on this process's clock:
        # frame times come from each client's own scheduler epoch, so
        # comparing them across processes would fold clock-domain skew
        # into the verdict.
        watchdogs.append(SilenceWatchdog(
            max_silence=max(6 * interval, 2.0), clock=lambda: sched.now,
        ))

        def probe(seq: int) -> list[TelemetryFrame]:
            return [snapshot_endpoint(notifier, sched=sched, seq=seq,
                                      role="notifier")]

        def emit_frame(tframe: TelemetryFrame) -> None:
            stream.write_line(tframe.to_json())
            if beacon is not None:
                # The UDP sideband carries the same frame bytes as the
                # TCP gossip; the monitor dedupes by (site, seq).
                beacon.send(encode_telemetry_frame(tframe))

        sampler = TelemetrySampler(
            sched, probe, interval=interval,
            on_frame=emit_frame,
            on_health=lambda e: stream.write_line(e.to_json()),
            watchdogs=watchdogs, keep=False,
        )
        sampler.start()

    def maybe_done() -> None:
        # Completion rides on the DRAINED protocol: a client's DRAINED
        # frame (TCP FIFO) proves every op it will ever generate has
        # been ingested and its transforms broadcast.  All clients
        # drained => every broadcast is on the wire => GOODBYE, then
        # wait for the clean EOFs before closing up shop.
        nonlocal goodbye_sent
        if len(drained) >= config.clients and not goodbye_sent:
            goodbye_sent = True
            for w in writers.values():
                try:
                    w.write(frame(encode_goodbye()))
                except (ConnectionError, RuntimeError):
                    pass
        if goodbye_sent and len(disconnected) >= config.clients:
            done.set()

    async def handle(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        hello = await read_frame(reader)
        if hello is None:
            writer.close()
            return
        decoded = decode_frame(hello)
        if not isinstance(decoded, Hello):
            raise WireError("expected a HELLO frame to open the connection")
        pid = decoded.pid
        writers[pid] = writer
        listen_ports[pid] = decoded.listen_port
        notifier.attach_channel(pid, WireChannel(sched, 0, pid, writer))
        if len(notifier.out_channels) >= config.clients:
            # Everyone is here: publish the membership directory before
            # any operation is pumped, so every client holds the roster
            # it would need to elect a successor -- broadcast first,
            # then release the pumps (TCP FIFO puts ROSTER ahead of any
            # DATA broadcast on each spoke).
            for w in writers.values():
                w.write(frame(encode_roster(listen_ports)))
            all_connected.set()
        # Hold this connection's pump until every client has a channel:
        # executing an early op would broadcast into a not-yet-attached
        # spoke.  TCP buffers whatever the eager client already sent.
        await all_connected.wait()

        def on_envelope(envelope: Envelope) -> None:
            notifier.on_message(envelope)

        def on_telemetry(frame: TelemetryFrame) -> None:
            if sampler is not None:
                sampler.feed(frame)

        def on_drained(d: Drained) -> None:
            drained.add(d.site)
            maybe_done()

        try:
            await pump(reader, on_envelope, on_telemetry=on_telemetry,
                       on_drained=on_drained)
        except (WireError, ConnectionError):
            pass  # a killed client counts as disconnected, not as a crash here
        finally:
            disconnected.add(pid)
            maybe_done()

    def dump_flight(reason: str) -> None:
        recorder.dump(flight_path(out_dir, 0), reason=reason, site=0,
                      role="notifier")

    def on_sigterm() -> None:
        # The driver's kill-switch: record the evidence, then let the
        # normal shutdown path write whatever artifacts it still can.
        nonlocal killed
        killed = True
        dump_flight("kill-switch")
        done.set()

    loop = asyncio.get_running_loop()
    sigterm_installed = False
    try:
        loop.add_signal_handler(signal.SIGTERM, on_sigterm)
        sigterm_installed = True
    except (NotImplementedError, ValueError):  # pragma: no cover - non-Unix
        pass

    crash_task: Optional["asyncio.Task[None]"] = None
    if config.crash_notifier_after_s is not None:

        async def crash() -> None:
            assert config.crash_notifier_after_s is not None
            # The timer counts from full connection, not process start:
            # subprocess interpreter startup is hundreds of milliseconds
            # of noise, and a crash before the roster broadcast would
            # test "client can't connect", not "cluster loses its
            # centre mid-run".
            await all_connected.wait()
            await asyncio.sleep(config.crash_notifier_after_s)
            dump_flight("injected-crash")
            if telem is not None:
                # With failover armed this death is survivable -- the
                # monitor should show a warning and then the epoch
                # transition, not a terminal verdict.
                verdict = "warn" if config.failover else "fail"
                detail = ("injected notifier crash (failover armed)"
                          if config.failover else "injected notifier crash")
                telem.write_line(HealthEvent(
                    time=sched.now, site=0, kind="crash", verdict=verdict,
                    detail=detail,
                ).to_json())
                telem.close()
            # A real crash writes no result artifacts: exit without
            # passing go.  The flight recorder, the flushed telemetry
            # stream, and the streamed trace are all that survives --
            # which is the point of having them.
            os._exit(70)

        crash_task = asyncio.ensure_future(crash())

    server = await asyncio.start_server(handle, config.host, 0)
    port = server.sockets[0].getsockname()[1]
    if on_port is not None:
        on_port.set_result(port)
    print(f"LISTENING {port}", flush=True)
    timed_out = False
    try:
        await asyncio.wait_for(done.wait(), config.timeout_s)
    except asyncio.TimeoutError:
        timed_out = True
        dump_flight("timeout")
    if killed:
        timed_out = True
    if crash_task is not None:
        crash_task.cancel()
    if sigterm_installed:
        loop.remove_signal_handler(signal.SIGTERM)
    server.close()
    await server.wait_closed()
    if sampler is not None:
        # One final sample so the stream's last frame carries the final
        # local stats (the monitor's per-site aggregate is exact, not
        # one interval stale).
        sampler.stop()
        sampler.sample()
    if telem is not None:
        telem.close()
    if beacon is not None:
        beacon.close()
    messages = sum(ch.stats.messages for ch in notifier.out_channels.values())
    wire_bytes = sum(ch.stats.total_bytes for ch in notifier.out_channels.values())
    write_artifacts(
        out_dir,
        endpoint_result("notifier", notifier, timed_out=timed_out,
                        messages_sent=messages, wire_bytes=wire_bytes),
        tracer,
        trace_streamed=True,
    )
    trace_stream.close()
    return not timed_out
