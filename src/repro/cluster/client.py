"""One collaborating client process: a real user at a real socket.

``python -m repro client --site I --port P --out DIR`` dials the
notifier, introduces itself with a HELLO frame, and replays site ``I``'s
slice of the seeded workload -- the *same*
:func:`~repro.workloads.random_session.generate_random_edits` schedule
the simulator benchmarks use, with think times mapped onto wall seconds
by ``time_scale``.  Each edit is drawn at fire time against the live
replica (exactly like the simulated driver), so edits stay valid no
matter how broadcasts interleave.

The editor object is the stock
:class:`~repro.editor.star_client.StarClient` on the wall-clock
scheduler; edits fire from scheduler timers, remote operations arrive
through the frame pump.  Completion is protocol-driven: the client
announces the end of its generation workload with a DRAINED frame and
waits for the notifier's GOODBYE, whose arrival (TCP FIFO) proves every
broadcast has already been executed.  An EOF *after* GOODBYE -- or
after our own SIGTERM -- is a clean teardown, never a peer death.

Failover: unless ``--no-failover``, the client opens its own listening
socket before dialing and advertises the port in its HELLO; the ROSTER
frame the notifier broadcasts back is the membership directory.  An EOF
*before* GOODBYE then triggers live failover instead of giving up: the
lowest-numbered roster site waits for the survivors to dial in and
promotes itself to the epoch-1 notifier (stock editor-layer election /
promotion / state-contribution machinery, carried as DATA frames);
every other survivor re-dials the successor with capped exponential
backoff, resynchronises from a failover snapshot, re-announces DRAINED
and finishes the workload under the new centre.  Local edits typed
while the star is leaderless queue in the client's bounded
degraded-mode buffer (``--degraded-limit``) and replay after the
baseline lands.

Observability: with ``--telemetry-interval`` the client samples its own
gauges into ``telemetry_<site>.jsonl`` and *gossips* every frame to the
current centre as a TELEMETRY wire frame (piggybacked on the existing
connection; older readers ignore the tag).  Failover progress --
``peer_dead`` (warn), re-homing, election, promotion -- lands in the
same stream as ``warn``-verdict health events, so the monitor shows an
epoch transition rather than a terminal crash.  ``fail`` verdicts and
flight-recorder dumps are reserved for genuinely terminal deaths: no
roster, no failover, or the successor dying too.
"""

from __future__ import annotations

import asyncio
import random
import signal
import time
from pathlib import Path
from typing import Optional

from repro.cluster.failover import WireFailover
from repro.cluster.harness import (
    DEFAULT_DOCUMENT,
    ClusterConfig,
    endpoint_result,
    flight_path,
    telemetry_writer,
    wall_clock_tracer,
    write_artifacts,
)
from repro.editor.star_client import StarClient
from repro.net.beacon import BeaconSender
from repro.net.scheduler import AsyncioScheduler
from repro.net.transport import Envelope
from repro.net.wire import (
    WireChannel,
    WireError,
    connect_with_backoff,
    encode_drained,
    encode_hello,
    encode_telemetry_frame,
    frame,
    pump,
)
from repro.obs.telemetry import (
    FlightRecorder,
    HealthEvent,
    TelemetryFrame,
    TelemetrySampler,
    snapshot_endpoint,
)
from repro.obs.tracer import JsonlWriter
from repro.workloads.random_session import generate_random_edits, random_positional_op


async def run_client(config: ClusterConfig, site: int, port: int,
                     out_dir: Path) -> bool:
    """Run one client process; returns True iff the run completed."""
    if not 1 <= site <= config.clients:
        raise ValueError(f"site must be 1..{config.clients}, got {site}")
    sched = AsyncioScheduler()
    tracer = wall_clock_tracer()
    client = StarClient(
        sched,
        site,
        initial_state=DEFAULT_DOCUMENT,
        record_checks=True,
        reliability=config.reliability_config(),
        tracer=tracer,
    )
    # Arm the latency observatory (see serve.py): outgoing ops carry
    # their origin wall-clock stamp; executions feed the e2e window.
    client.span_clock = time.time
    recorder = FlightRecorder(tracer)

    def dump_flight(reason: str) -> None:
        recorder.dump(flight_path(out_dir, site), reason=reason, site=site,
                      role="client")

    telem: Optional[JsonlWriter] = None

    def health(kind: str, detail: str, *, verdict: str = "warn",
               peer: Optional[int] = None) -> None:
        if telem is not None:
            telem.write_line(HealthEvent(
                time=sched.now, site=site, kind=kind, verdict=verdict,
                peer=peer, detail=detail,
            ).to_json())

    coordinator: Optional[WireFailover] = None
    if config.failover:
        coordinator = WireFailover(config, sched, client, log=health)
        # The coordinator *is* the client's failover manager: the stock
        # editor-layer election/promotion machinery drives it, over
        # sockets instead of an in-process topology.
        client.failover = coordinator
        client._track_failover = True
        client.degraded_limit = config.degraded_limit
        await coordinator.start_listener()

    listen_port = coordinator.listen_port if coordinator is not None else 0
    reader, writer = await connect_with_backoff(config.host, port, seed=site)
    writer.write(frame(encode_hello(site, listen_port)))
    await writer.drain()
    client.attach_channel(0, WireChannel(sched, site, 0, writer))
    # The *current* centre connection (writer + the centre pid it leads
    # to): gossip and DRAINED frames follow it as failover re-homes the
    # spoke.
    center_writer: dict[str, object] = {"w": writer, "pid": 0}

    session_config = config.session_config()
    intents = [i for i in generate_random_edits(session_config) if i.site == site]
    done = asyncio.Event()
    goodbye = asyncio.Event()
    remaining = len(intents)
    drained_sent: set[int] = set()
    peer_dead = False
    killed = False

    if coordinator is not None:
        coordinator.workload_remaining = lambda: remaining

    sampler: Optional[TelemetrySampler] = None
    beacon: Optional[BeaconSender] = None
    if config.telemetry_enabled:
        stream = telemetry_writer(out_dir, site, "client")
        telem = stream
        if config.beacon_port is not None:
            beacon = BeaconSender(config.host, config.beacon_port)

        def on_frame(tframe: TelemetryFrame) -> None:
            stream.write_line(tframe.to_json())
            body = encode_telemetry_frame(tframe)
            if beacon is not None:
                # The UDP sideband: same frame bytes, no connection to
                # lose -- the monitor keeps seeing this site even while
                # the TCP centre is dead (dedupe is by (site, seq)).
                beacon.send(body)
            # Gossip the frame to the current centre over the data
            # connection; a readerless/dying socket must never take
            # sampling down.
            w = center_writer["w"]
            if not isinstance(w, asyncio.StreamWriter) or w.is_closing():
                return
            try:
                w.write(frame(body))
            except (ConnectionError, RuntimeError):
                pass

        def probe(seq: int) -> list[TelemetryFrame]:
            # After promotion the live state (document, SV_0, epoch)
            # belongs to the promoted notifier; sampling the stale
            # client shell would freeze the digest at the crash point.
            target = (client._promoted_to
                      if client.promoted and client._promoted_to is not None
                      else client)
            return [snapshot_endpoint(target, sched=sched, seq=seq,
                                      role="client")]

        sampler = TelemetrySampler(
            sched, probe, interval=config.telemetry_interval_s,
            on_frame=on_frame, keep=False,
        )
        sampler.start()
        if coordinator is not None:
            # On the successor, surviving members gossip their frames to
            # us: fold them into our own stream so the monitor keeps
            # seeing every site across the epoch boundary.
            coordinator.on_member_telemetry = sampler.feed

    def maybe_send_drained() -> None:
        """Announce workload completion to the *current* centre, once.

        DRAINED promises "every operation I will ever send is already on
        this stream" -- so it must wait out the degraded queue and any
        failover replay, and must be re-announced to a new centre after
        re-homing (the promise is per-connection, not global).
        """
        if remaining > 0 or not client.active or client.promoted:
            return
        if (client._promoting or client._failover_pending
                or client._degraded_queue or client._failover_stash):
            return
        center = client.center
        if center != center_writer["pid"]:
            # Mid-failover skew: the spoke already points at the
            # successor's socket but the editor has not re-homed (or
            # vice versa).  A DRAINED now would precede the stash
            # replay on the same stream -- a false promise.
            return
        if center in drained_sent:
            return
        w = center_writer["w"]
        assert isinstance(w, asyncio.StreamWriter)
        if w.is_closing():
            return
        try:
            w.write(frame(encode_drained(site)))
        except (ConnectionError, RuntimeError):
            return
        drained_sent.add(center)

    def fire(seed: int) -> None:
        nonlocal remaining
        rng = random.Random(seed)
        doc = (client._promoted_to.document
               if client.promoted and client._promoted_to is not None
               else client.document)
        client.generate(random_positional_op(rng, doc, session_config))
        remaining -= 1
        maybe_send_drained()
        if coordinator is not None:
            coordinator.note_progress()

    for intent in intents:
        sched.schedule(intent.time * config.time_scale,
                       lambda seed=intent.seed: fire(seed))

    def on_envelope(envelope: Envelope) -> None:
        client.on_message(envelope)
        maybe_send_drained()

    def on_goodbye() -> None:
        goodbye.set()
        done.set()

    def on_sigterm() -> None:
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

    def terminal_peer_death(detail: str, peer: int) -> None:
        nonlocal peer_dead
        peer_dead = True
        health("peer_dead", detail, verdict="fail", peer=peer)
        dump_flight("peer-death")
        done.set()

    async def handle_center_loss() -> None:
        """The centre connection died before GOODBYE: fail over or fail."""
        dead = client.center
        if coordinator is None or not coordinator.eligible():
            terminal_peer_death(
                "connection to notifier closed mid-run (failover "
                "unavailable)", dead,
            )
            return
        health("peer_dead",
               f"connection to notifier {dead} closed mid-run; re-electing",
               peer=dead)
        if coordinator.is_successor():
            # We are the new centre: collect the survivors, promote, and
            # stay up until the coordinator has said GOODBYE to all.
            await coordinator.takeover()
            done.set()
            return
        try:
            new_reader, new_writer, successor = await coordinator.rejoin()
        except (WireError, ConnectionError):
            terminal_peer_death(
                "could not reach the elected successor", dead,
            )
            return
        center_writer["w"] = new_writer
        center_writer["pid"] = successor
        try:
            await pump(new_reader, on_envelope, on_goodbye=on_goodbye)
        except (WireError, ConnectionError):
            pass
        if done.is_set() or goodbye.is_set() or killed:
            return
        # The successor died too: one live takeover is the contract.
        terminal_peer_death("successor connection closed mid-run",
                            client.center)

    async def pump_loop() -> None:
        try:
            await pump(
                reader, on_envelope,
                on_roster=(coordinator.observe_roster
                           if coordinator is not None else None),
                on_goodbye=on_goodbye,
            )
        except (WireError, ConnectionError):
            pass
        if done.is_set() or goodbye.is_set() or killed:
            return  # clean teardown: GOODBYE (or our own shutdown) came first
        await handle_center_loss()

    pump_task = asyncio.ensure_future(pump_loop())
    timed_out = False
    try:
        await asyncio.wait_for(done.wait(), config.timeout_s)
        if peer_dead or killed:
            timed_out = True
        else:
            await asyncio.sleep(config.settle_s)
    except asyncio.TimeoutError:
        timed_out = True
        dump_flight("timeout")
    if sigterm_installed:
        loop.remove_signal_handler(signal.SIGTERM)
    pump_task.cancel()
    try:
        await pump_task
    except (asyncio.CancelledError, WireError, ConnectionError):
        pass
    if sampler is not None:
        # Final sample: the stream's last frame carries the final local
        # stats, which is what the monitor aggregates per site.
        sampler.stop()
        sampler.sample()
    if telem is not None:
        telem.close()
    if beacon is not None:
        beacon.close()
    if coordinator is not None:
        await coordinator.close()
    open_writers = [writer]
    if isinstance(center_writer["w"], asyncio.StreamWriter):
        open_writers.append(center_writer["w"])
    for w in {id(w): w for w in open_writers}.values():
        w.close()
        try:
            await w.wait_closed()
        except ConnectionError:
            pass
    messages = sum(ch.stats.messages for ch in client.out_channels.values())
    wire_bytes = sum(ch.stats.total_bytes for ch in client.out_channels.values())
    result = endpoint_result("client", client, timed_out=timed_out,
                             messages_sent=messages, wire_bytes=wire_bytes)
    if (client.promoted and coordinator is not None
            and coordinator.notifier is not None):
        # The promoted shell's replica froze at the takeover; the live
        # run continued inside the epoch-1 notifier.  Report the merged
        # view: its document, both execution logs, both check sets.
        notifier = coordinator.notifier
        result.document = str(notifier.document)
        result.executed_ops = (len(client.executed_op_ids)
                               + len(notifier.executed_op_ids))
        result.checks = list(client.checks) + list(notifier.checks)
    write_artifacts(out_dir, result, tracer)
    return not timed_out
