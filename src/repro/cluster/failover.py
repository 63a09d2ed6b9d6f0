"""Live notifier failover over real sockets.

The in-process simulator already survives a notifier crash: the
:class:`~repro.editor.failover.FailoverManager` routes election,
promotion and re-admission between endpoints that share one event loop
and one topology object.  This module is the same coordination role for
the multi-process TCP cluster, where there is no shared object to route
through -- only sockets:

* **Advertise** -- every client process opens its own listening socket
  before dialing the notifier and advertises the port in its HELLO
  frame; the centre broadcasts the full membership table as a ROSTER
  frame once every client is connected.  The roster is the cluster's
  out-of-band membership directory, delivered in-band while the centre
  is still alive.
* **Detect** -- a TCP EOF on the centre connection *before* a GOODBYE
  frame is definitive evidence of a crash (the kernel observed the
  socket close), so no liveness probe is needed.
* **Elect** -- the successor is the lowest-numbered site in the roster
  (every survivor computes the same answer from the same table, so no
  votes need collecting).  Survivors dial the successor's listener with
  capped exponential backoff, introduce themselves with HELLO, and send
  an :class:`~repro.editor.messages.ElectMessage` for the next notifier
  epoch; the successor also opens the election itself once the expected
  members have dialed in (or a grace deadline passes), so a one-client
  cluster or a slow member cannot stall the takeover.
* **Promote** -- the election runs the *stock*
  :class:`~repro.editor.star_client.StarClient` failover machinery:
  this coordinator duck-types the ``FailoverManager`` surface
  (:meth:`begin_promotion` / :meth:`complete_promotion`), so
  ``PromoteMessage`` / ``StateContribution`` / failover
  ``SnapshotMessage`` all travel as ordinary DATA frames and
  :meth:`~repro.editor.star_notifier.StarNotifier.promoted_from`
  rebuilds ``SV_0`` exactly as in the simulator.  A member that dials
  in after promotion completed is healed through the late-member path
  (a direct ``PromoteMessage``; its contribution is answered with a
  failover snapshot).
* **Finish** -- members re-announce DRAINED to the new centre; once
  every roster member has drained and the successor's own workload (and
  degraded-mode queue) is empty, the coordinator broadcasts GOODBYE and
  the run ends exactly like an uncrashed one.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional

from repro.cluster.harness import ClusterConfig
from repro.editor.messages import ElectMessage, PromoteMessage, StateContribution
from repro.editor.star_client import StarClient
from repro.editor.star_notifier import StarNotifier
from repro.net.scheduler import Scheduler
from repro.net.transport import Envelope
from repro.net.wire import (
    Drained,
    Hello,
    Roster,
    WireChannel,
    WireError,
    connect_with_backoff,
    decode_frame,
    encode_goodbye,
    encode_hello,
    frame,
    pump,
    read_frame,
)
from repro.obs.telemetry import TelemetryFrame

#: How long the successor waits for the expected members to dial in
#: before opening the election anyway.  Generous relative to the
#: members' re-dial backoff schedule, small relative to run timeouts.
TAKEOVER_GRACE_S = 5.0

LogHook = Callable[[str, str], None]


class WireFailover:
    """Per-process failover coordinator for one cluster client.

    Owns the process's listening socket, the roster learned from the
    centre, and -- on the successor -- the inbound member connections.
    Duck-types the :class:`~repro.editor.failover.FailoverManager`
    surface the :class:`~repro.editor.star_client.StarClient` failover
    machinery calls into, so the editor-layer election/promotion code
    runs unmodified over sockets.
    """

    def __init__(self, config: ClusterConfig, sched: Scheduler,
                 client: StarClient, *, log: Optional[LogHook] = None,
                 grace_s: float = TAKEOVER_GRACE_S) -> None:
        self.config = config
        self.sched = sched
        self.client = client
        self.site = client.pid
        self.log: LogHook = log if log is not None else (lambda kind, detail: None)
        self.grace_s = grace_s
        self.listen_port = 0
        self.roster: dict[int, int] = {}
        self.epoch = 0
        self.notifier: Optional[StarNotifier] = None
        #: Set once the successor has broadcast GOODBYE to every member.
        self.session_complete = asyncio.Event()
        #: The client process's workload gauge, installed by run_client.
        self.workload_remaining: Callable[[], int] = lambda: 0
        #: Gossiped member telemetry lands here on the successor.
        self.on_member_telemetry: Optional[Callable[[TelemetryFrame], None]] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._member_writers: dict[int, asyncio.StreamWriter] = {}
        # Every accepted connection's handler task and the writer that
        # ends it: close() must see both off before the loop goes away.
        self._inbound: dict["asyncio.Task[None]", asyncio.StreamWriter] = {}
        self._drained: set[int] = set()
        self._goodbye_sent = False

    # -- the listener (every client, armed before the first HELLO) -----------

    async def start_listener(self) -> int:
        """Bind the process's own accept socket; returns its port."""
        self._server = await asyncio.start_server(
            self._handle_inbound, self.config.host, 0,
        )
        self.listen_port = int(self._server.sockets[0].getsockname()[1])
        return self.listen_port

    async def close(self) -> None:
        """Stop accepting, hang up on every member, see the pumps return.

        A handler still awaiting a frame when ``asyncio.run`` tears the
        loop down is cancelled, and asyncio reports a cancelled stream
        handler as an unhandled error -- so a clean run must end them
        itself: closing a connection feeds its reader EOF, which is how
        a pump returns.
        """
        if self._server is not None:
            self._server.close()
        for writer in self._inbound.values():
            writer.close()
        for writer in self._inbound.values():
            try:
                await writer.wait_closed()
            except ConnectionError:  # the member hung up first, uncleanly
                pass
        if self._inbound:
            await asyncio.wait(self._inbound)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    # -- roster bookkeeping ---------------------------------------------------

    def observe_roster(self, roster: Roster) -> None:
        self.roster = dict(roster.ports)

    def eligible(self) -> bool:
        """Can this cluster fail over at all?  Needs a roster with at
        least one listening survivor."""
        return any(port > 0 for site, port in self.roster.items())

    def successor_site(self) -> int:
        """Deterministic election: the lowest listening site wins.

        Every survivor computes this from the same broadcast roster, so
        all of them agree without exchanging votes.
        """
        listening = [site for site, port in self.roster.items() if port > 0]
        if not listening:
            raise WireError("no eligible successor in the roster")
        return min(listening)

    def is_successor(self) -> bool:
        return self.successor_site() == self.site

    # -- the member path ------------------------------------------------------

    async def rejoin(
        self,
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter, int]:
        """Dial the successor (with backoff), attach the spoke, raise the
        alarm.  Returns the new connection and the successor's site."""
        successor = self.successor_site()
        port = self.roster[successor]
        reader, writer = await connect_with_backoff(
            self.config.host, port, seed=self.site,
        )
        writer.write(frame(encode_hello(self.site, self.listen_port)))
        await writer.drain()
        if successor not in self.client.out_channels:
            self.client.attach_channel(
                successor, WireChannel(self.sched, self.site, successor, writer),
            )
        self.log(
            "failover_rehomed",
            f"dialed successor {successor} on port {port}",
        )
        # The alarm: tell the successor its centre is dead.  Sent through
        # the transport so it arrives as an ordinary DATA frame and the
        # stock _on_elect dedup-by-epoch applies.
        self.client.send(
            successor,
            ElectMessage(notifier_epoch=self.client.notifier_epoch + 1),
            timestamp_bytes=0,
            kind="elect",
        )
        return reader, writer, successor

    # -- the successor path ---------------------------------------------------

    async def takeover(self) -> None:
        """Wait for the expected members (bounded), then open the election.

        The election may already be open -- a member's ElectMessage can
        arrive before our own EOF fires -- in which case ``_on_elect``'s
        epoch dedup makes this a no-op.  The EOF we observed is
        definitive, so the election is ``confirmed``: no liveness probe
        even over the reliability transport.
        """
        expected = {site for site in self.roster if site != self.site}
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.grace_s
        while (not expected <= set(self._member_writers)
               and loop.time() < deadline
               and not self.client.promoted):
            await asyncio.sleep(0.02)
        if not self.client.promoted and not self.client._promoting:
            self.client._on_elect(self.client.notifier_epoch + 1, confirmed=True)
        await self.session_complete.wait()

    async def _handle_inbound(self, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
        """Accept one surviving member dialing in after the crash."""
        handler = asyncio.current_task()
        assert handler is not None  # start_server runs this as a task
        self._inbound[handler] = writer
        try:
            hello = await read_frame(reader)
        except (WireError, ConnectionError):
            writer.close()
            return
        if hello is None:
            writer.close()
            return
        decoded = decode_frame(hello)
        if not isinstance(decoded, Hello):
            raise WireError("expected a HELLO frame to open the connection")
        member = decoded.pid
        self._member_writers[member] = writer
        if member not in self.client.out_channels:
            self.client.attach_channel(
                member, WireChannel(self.sched, self.site, member, writer),
            )
        if self.notifier is not None:
            # Late member: promotion already completed without its
            # contribution.  Announce the new centre directly; its
            # StateContribution reply is answered with a failover
            # snapshot by the promoted notifier's late-member path.
            self.notifier.send(
                member,
                PromoteMessage(successor=self.site, notifier_epoch=self.epoch),
                timestamp_bytes=0,
                kind="promote",
            )

        def on_envelope(envelope: Envelope) -> None:
            self.client.on_message(envelope)
            self.note_progress()

        def on_drained(drained: Drained) -> None:
            self._drained.add(drained.site)
            self.log(
                "failover_member_drained",
                f"member {drained.site} drained under epoch {self.epoch}",
            )
            self.note_progress()

        def on_telemetry(tframe: TelemetryFrame) -> None:
            if self.on_member_telemetry is not None:
                self.on_member_telemetry(tframe)

        try:
            await pump(reader, on_envelope, on_telemetry=on_telemetry,
                       on_drained=on_drained)
        except (WireError, ConnectionError):
            pass

    def note_progress(self) -> None:
        """Finish the session once everyone (including us) is drained.

        Callable from any point that advances the run: member frames,
        local workload firings, promotion completion.  Idempotent; a
        no-op until this process actually promoted.
        """
        if self.notifier is None or self._goodbye_sent:
            return
        if self.workload_remaining() > 0:
            return
        client = self.client
        if client._degraded_queue or client._failover_stash or client._promoting:
            return
        expected = {site for site in self.roster if site != self.site}
        if not expected <= self._drained:
            return
        self._goodbye_sent = True
        for writer in self._member_writers.values():
            try:
                writer.write(frame(encode_goodbye()))
            except (ConnectionError, RuntimeError):
                pass
        self.log(
            "failover_goodbye",
            f"epoch {self.epoch} complete: goodbye broadcast to "
            f"{sorted(self._member_writers)}",
        )
        self.session_complete.set()

    # -- the FailoverManager duck-type surface --------------------------------

    def election_aborted(self, successor: StarClient) -> None:
        """Unreachable over sockets (EOF is definitive), kept for the
        duck-type surface the editor layer calls on a probe answer."""

    def begin_promotion(self, successor: StarClient, epoch: int) -> list[int]:
        """Record the new centre; members are whoever has dialed in."""
        self.epoch = epoch
        members = sorted(site for site in self._member_writers
                         if site != self.site)
        # Logged here, not in takeover(): a member's ElectMessage can
        # open the election before our own EOF handler does, and this
        # is the single point both paths funnel through.
        self.log(
            "failover_elected",
            f"site {self.site} elected for epoch {epoch} with members "
            f"{members}",
        )
        return members

    def complete_promotion(
        self, successor: StarClient,
        contributions: dict[int, StateContribution | None],
    ) -> StarNotifier:
        """All contributions in: build the wire-backed epoch-N notifier."""
        notifier = StarNotifier.promoted_from(
            successor, self.epoch, contributions, n_sites=self.config.clients,
        )
        self.notifier = notifier
        # Heal members that dialed in *during* the promotion window:
        # they were not in the election's member list (begin_promotion
        # had already run) and the inbound handler's late-member path
        # saw no notifier yet.  The event loop cannot interleave here,
        # so this snapshot plus the inbound path covers every arrival.
        for member in sorted(self._member_writers):
            if member == self.site or member in contributions:
                continue
            notifier.send(
                member,
                PromoteMessage(successor=self.site, notifier_epoch=self.epoch),
                timestamp_bytes=0,
                kind="promote",
            )
        self.log(
            "failover_promoted",
            f"site {self.site} promoted to notifier at epoch {self.epoch} "
            f"({len([c for c in contributions.values() if c is not None])} "
            f"contribution(s))",
        )
        # The degraded-mode queue drains (and buffered resyncs replay)
        # after complete_promotion returns; check for session completion
        # on the next loop turn, once that synchronous tail has run.
        asyncio.get_running_loop().call_soon(self.note_progress)
        return notifier

    def route_restart(self, client: StarClient) -> int:
        """Crash-restart routing is an in-process concern; over the wire
        a restarted process re-dials whatever the driver tells it to."""
        return self.client.center
