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
gauges into ``telemetry_<site>.jsonl``, the one carriage its frames
have: no connection carries them, so a dead centre costs the monitor no
site's frames.  Failover progress --
``peer_dead`` (warn), re-homing, election, promotion -- lands in the
same stream as ``warn``-verdict health events, so the monitor shows an
epoch transition rather than a terminal crash.  ``fail`` verdicts and
flight-recorder dumps are reserved for genuinely terminal deaths: no
roster, no failover, or the successor dying too.
"""

from __future__ import annotations

import asyncio
import random
import time
from pathlib import Path
from typing import Optional

from repro.cluster.failover import WireFailover
from repro.cluster.harness import DEFAULT_DOCUMENT, ClusterConfig, ProcessRig, dial
from repro.editor.star_client import StarClient
from repro.net.codec import CodecError
from repro.net.transport import Envelope
from repro.net.wire import WireError, encode_drained, frame, pump
from repro.workloads.random_session import generate_random_edits, random_positional_op


async def run_client(config: ClusterConfig, site: int, port: int,
                     out_dir: Path) -> bool:
    """Run one client process; returns True iff the run completed."""
    if not 1 <= site <= config.clients:
        raise ValueError(f"site must be 1..{config.clients}, got {site}")
    rig = ProcessRig(config, out_dir, site, "client")
    sched = rig.sched
    client = StarClient(
        sched,
        site,
        initial_state=DEFAULT_DOCUMENT,
        record_checks=True,
        reliability=config.reliability_config(),
        tracer=rig.tracer,
    )
    # As in serve.py: outgoing ops carry their origin wall-clock stamp,
    # and executions feed the e2e window.
    client.span_clock = time.time
    session_config = config.session_config()
    intents = [i for i in generate_random_edits(session_config) if i.site == site]
    remaining = len(intents)
    drained_sent: set[int] = set()

    coordinator: Optional[WireFailover] = None
    if config.failover:
        coordinator = WireFailover(
            config, client, rig.done, log=rig.health,
            workload_done=lambda: remaining == 0,
        )
        await coordinator.start()
    listen_port = coordinator.listen_port if coordinator is not None else 0
    reader, writer = await dial(config, client, port, 0, listen_port)
    # The *current* centre connection (writer + the centre pid it leads
    # to): DRAINED frames follow it as failover re-homes the spoke.
    center_writer, center_pid = writer, 0

    def to_center(body: bytes) -> bool:
        """Frame ``body`` onto the current centre connection, if it is
        still there; a readerless/dying socket must never take a workload
        timer down."""
        if center_writer.is_closing():
            return False
        try:
            center_writer.write(frame(body))
        except (ConnectionError, RuntimeError):
            return False
        return True

    # After promotion the live state (document, SV_0, epoch) belongs to
    # the promoted notifier; sampling the stale client shell would
    # freeze the digest at the crash point.
    rig.start_telemetry(lambda: client.live)

    def maybe_send_drained() -> None:
        """Announce workload completion to the *current* centre, once.

        DRAINED promises "every operation I will ever send is already on
        this stream" -- so it must wait out the degraded queue and any
        failover replay, and must be re-announced to a new centre after
        re-homing (the promise is per-connection, not global).
        """
        if (remaining > 0 or not client.active or client.promoted
                or not client.settled):
            return
        center = client.center
        if center != center_pid:
            # Mid-failover skew: the spoke already points at the
            # successor's socket but the editor has not re-homed (or
            # vice versa).  A DRAINED now would precede the stash
            # replay on the same stream -- a false promise.
            return
        if center not in drained_sent and to_center(encode_drained(site)):
            drained_sent.add(center)

    def fire(seed: int) -> None:
        nonlocal remaining
        rng = random.Random(seed)
        client.generate(
            random_positional_op(rng, client.live.document, session_config))
        remaining -= 1
        maybe_send_drained()
        if coordinator is not None:
            coordinator.hub.note_progress()

    for intent in intents:
        sched.schedule(intent.time * config.time_scale,
                       lambda seed=intent.seed: fire(seed))

    def on_envelope(envelope: Envelope) -> None:
        client.on_message(envelope)
        maybe_send_drained()

    async def follow(reader: asyncio.StreamReader) -> bool:
        """Pump one centre connection to its end; True iff that end was
        clean: GOODBYE (or our own shutdown) came before the EOF."""
        try:
            await pump(
                reader, on_envelope,
                on_roster=(coordinator.observe_roster
                           if coordinator is not None else None),
                on_goodbye=rig.done.set,
            )
        except (CodecError, ConnectionError):
            pass
        return rig.done.is_set()

    def terminal_peer_death(detail: str, peer: int) -> None:
        rig.timed_out = True
        rig.health("peer_dead", detail, verdict="fail", peer=peer)
        rig.dump_flight("peer-death")
        rig.done.set()

    async def session() -> None:
        nonlocal center_writer, center_pid
        if await follow(reader):
            return
        # The centre connection died before GOODBYE: fail over or fail.
        dead = client.center
        if coordinator is None or not coordinator.eligible():
            terminal_peer_death(
                "connection to notifier closed mid-run (failover "
                "unavailable)", dead,
            )
            return
        rig.health("peer_dead",
                   f"connection to notifier {dead} closed mid-run; re-electing",
                   peer=dead)
        if coordinator.is_successor():
            # We are the new centre: collect the survivors and promote;
            # our hub sets rig.done once it has seen every member off.
            await coordinator.takeover()
            return
        try:
            new_reader, center_writer, center_pid = await coordinator.rejoin()
        except (WireError, ConnectionError):
            terminal_peer_death("could not reach the elected successor", dead)
            return
        if not await follow(new_reader):
            # The successor died too: one live takeover is the contract.
            terminal_peer_death("successor connection closed mid-run",
                                client.center)

    session_task = asyncio.ensure_future(session())
    await rig.wait()
    if not rig.timed_out:
        await asyncio.sleep(config.settle_s)
    session_task.cancel()
    try:
        await session_task
    except (asyncio.CancelledError, WireError, ConnectionError):
        pass
    rig.close_streams()
    if coordinator is not None:
        await coordinator.hub.close()
    for w in {writer, center_writer}:
        w.close()
        try:
            await w.wait_closed()
        except ConnectionError:
            pass
    result = rig.result(client)
    if client.live is not client:
        # The promoted shell's replica froze at the takeover; the live
        # run continued inside the epoch-1 notifier.  Report the merged
        # view: its document, both execution logs, both check sets.
        notifier = client.live
        result.document = str(notifier.document)
        result.executed_ops += len(notifier.executed_op_ids)
        result.checks += notifier.checks
    return rig.finish(result)
