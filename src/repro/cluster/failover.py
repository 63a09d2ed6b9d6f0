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
  this coordinator is its :class:`~repro.editor.failover.Directory`
  (as ``FailoverManager`` is the simulator's), so ``PromoteMessage`` /
  ``StateContribution`` / failover ``SnapshotMessage`` all travel as
  ordinary DATA frames and
  :meth:`~repro.editor.star_notifier.StarNotifier.promoted_from`
  rebuilds ``SV_0`` exactly as in the simulator.  A member that dials
  in after promotion completed is healed through the late-member path
  (a direct ``PromoteMessage``; its contribution is answered with a
  failover snapshot).
* **Finish** -- members re-announce DRAINED to the new centre, whose
  :class:`~repro.cluster.serve.Hub` is the one the original centre ran:
  once every member has drained and the successor's own workload (and
  degraded-mode queue) is empty it broadcasts GOODBYE, and the run ends
  exactly like an uncrashed one.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional

from repro.cluster.harness import ClusterConfig, dial
from repro.cluster.serve import Hub
from repro.editor.failover import Directory
from repro.editor.messages import ElectMessage, PromoteMessage, StateContribution
from repro.editor.star_client import StarClient
from repro.editor.star_notifier import StarNotifier
from repro.net.wire import Roster, WireError

#: How long the successor waits for the expected members to dial in
#: before opening the election anyway.  Generous relative to the
#: members' re-dial backoff schedule, small relative to run timeouts.
TAKEOVER_GRACE_S = 5.0

LogHook = Callable[[str, str], None]


class WireFailover(Directory):
    """Per-process failover coordinator for one cluster client.

    Owns the roster learned from the centre and the process's
    :class:`~repro.cluster.serve.Hub` -- listening before the first
    HELLO, so whichever client is elected already has its members'
    connections.  It *is* the client's failover
    :class:`~repro.editor.failover.Directory`: the stock editor-layer
    election/promotion machinery drives it, over sockets instead of an
    in-process topology.
    """

    def __init__(self, config: ClusterConfig, client: StarClient,
                 finished: asyncio.Event, *, log: LogHook,
                 workload_done: Callable[[], bool],
                 grace_s: float = TAKEOVER_GRACE_S) -> None:
        self.config = config
        self.client = client
        self.site = client.pid
        self.n_sites = config.clients
        self.log = log
        self.grace_s = grace_s
        self.listen_port = 0
        self.roster: dict[int, int] = {}
        self.notifier: Optional[StarNotifier] = None
        # The session ends under this centre once it is one (promoted),
        # its own workload has fired, and nothing is queued or replaying.
        self.hub = Hub(
            client, set(range(1, config.clients + 1)) - {self.site}, finished,
            on_hello=self._on_hello,
            may_finish=lambda: (self.notifier is not None and workload_done()
                                and client.settled),
            log=lambda kind, detail: log(
                f"failover_{kind}", f"{detail} under epoch {self.notifier_epoch}"),
        )
        self.hub.pumps_open.set()
        client.arm_failover(self, config.degraded_limit)

    async def start(self) -> None:
        """Bind the process's own accept socket (advertised in HELLO)."""
        self.listen_port = await self.hub.listen(self.config.host)

    # -- roster bookkeeping ---------------------------------------------------

    def observe_roster(self, roster: Roster) -> None:
        self.roster = dict(roster.ports)

    def eligible(self) -> bool:
        """Can this cluster fail over at all?  Needs a roster with at
        least one listening survivor."""
        return any(port > 0 for port in self.roster.values())

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
        reader, writer = await dial(self.config, self.client, port, successor,
                                    self.listen_port)
        self.log(
            "failover_rehomed",
            f"dialed successor {successor} on port {port}",
        )
        # The alarm: tell the successor its centre is dead.  Sent through
        # the transport so it arrives as an ordinary DATA frame and the
        # stock elect() dedup-by-epoch applies.
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
        arrive before our own EOF fires -- in which case ``elect``'s
        epoch dedup makes this a no-op.  The EOF we observed is
        definitive, so the election is ``confirmed``: no liveness probe
        even over the reliability transport.  From here the hub ends
        the session like any centre's.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.grace_s
        while (not self.hub.expected <= set(self.hub.writers)
               and loop.time() < deadline
               and not self.client.promoted):
            await asyncio.sleep(0.02)
        self.client.elect(self.client.notifier_epoch + 1, confirmed=True)

    def _announce(self, member: int) -> None:
        assert self.notifier is not None
        self.notifier.send(
            member,
            PromoteMessage(successor=self.site,
                           notifier_epoch=self.notifier_epoch),
            timestamp_bytes=0,
            kind="promote",
        )

    def _on_hello(self, member: int) -> None:
        if self.notifier is not None:
            # Late member: promotion already completed without its
            # contribution.  Announce the new centre directly; its
            # StateContribution reply is answered with a failover
            # snapshot by the promoted notifier's late-member path.
            self._announce(member)

    # -- the election's directory ---------------------------------------------

    def begin_promotion(self, successor: StarClient, epoch: int) -> list[int]:
        """Record the new centre; members are whoever has dialed in."""
        self.notifier_epoch = epoch
        members = sorted(self.hub.writers)
        # Logged here, not in takeover(): a member's ElectMessage can
        # open the election before our own EOF handler does, and this
        # is the single point both paths funnel through.
        self.log(
            "failover_elected",
            f"site {self.site} elected for epoch {epoch} with members "
            f"{members}",
        )
        return members

    def installed(
        self, notifier: StarNotifier,
        contributions: dict[int, StateContribution | None],
    ) -> None:
        self.notifier = notifier
        # Heal members that dialed in *during* the promotion window:
        # they were not in the election's member list (begin_promotion
        # had already run) and the hub's late-member hook saw no
        # notifier yet.  The event loop cannot interleave here, so this
        # snapshot plus the hook covers every arrival.
        for member in sorted(self.hub.writers):
            if member not in contributions:
                self._announce(member)
        self.log(
            "failover_promoted",
            f"site {self.site} promoted to notifier at epoch "
            f"{self.notifier_epoch} "
            f"({len([c for c in contributions.values() if c is not None])} "
            f"contribution(s))",
        )
        # The degraded-mode queue drains (and buffered resyncs replay)
        # after complete_promotion returns; check for session completion
        # on the next loop turn, once that synchronous tail has run.
        asyncio.get_running_loop().call_soon(self.hub.note_progress)
