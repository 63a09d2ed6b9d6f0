"""Notifier failover: election, promotion and rewiring for the star.

The star topology's centre (the notifier, site 0) is a single point of
failure: the paper's compressed-vector-clock scheme routes *every*
operation through it.  This module removes that weakness for the
simulated deployment:

1. **Detection** -- every endpoint runs the reliability protocol with a
   bounded retransmit budget; a client whose traffic toward the centre
   exhausts the budget reports the peer dead
   (:attr:`repro.net.reliability.ReliableEndpoint.on_peer_dead`).
2. **Election** -- the :class:`FailoverManager` (a session-level
   coordination service standing in for an out-of-band membership
   directory) picks the successor: the lowest-id live client, the rule
   the cluster's roster applies too.  The detector sends the successor
   an :class:`~repro.editor.messages.ElectMessage`; the successor
   confirms the suspicion with a bounded liveness probe before anything
   irreversible happens.  A probe the centre answers aborts the
   election and un-parks the detector's link to the centre.
3. **Promotion** -- the successor freezes its client role, announces
   itself with :class:`~repro.editor.messages.PromoteMessage`, collects
   one :class:`~repro.editor.messages.StateContribution` per survivor,
   and :meth:`repro.editor.star_notifier.StarNotifier.promoted_from`
   rebuilds ``SV_0`` from the successor's replica (the *baseline*) and
   its per-origin execution counts.
4. **Re-admission** -- each survivor is served a failover snapshot (the
   crash-resync path under a new *notifier epoch*) and replays its
   stashed unacknowledged operations against the baseline, deduplicated
   by count: the snapshot's ``SV_0`` says how many of the survivor's own
   operations the baseline embodies.  In-flight pre-crash
   envelopes are fenced by the abandoned-peer guard and the
   ``(notifier_epoch, seq)`` link state.

Scope: one failover per session.  Operations the dead centre
acknowledged but never relayed are rolled back with the baseline
(counted in :attr:`StarNotifier.failover_losses`); every surviving
replica converges on the baseline plus post-failover operations, and
the trace-vs-oracle happens-before cross-check stays exact across the
epoch boundary (see :mod:`repro.obs.analysis`).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.editor.messages import ElectMessage, StateContribution
from repro.editor.star_client import StarClient
from repro.editor.star_notifier import StarNotifier

if TYPE_CHECKING:
    from repro.editor.star import StarSession


class Directory(abc.ABC):
    """What the election machine in :class:`StarClient` asks of its
    surroundings: who the members are, and where the new centre goes.

    The machine itself (dedup by epoch, probe, contribution collection,
    handoff, replay) is deployment-blind; a directory is the one place
    that knows whether "members" are endpoints of one simulated topology
    (:class:`FailoverManager`) or sockets that dialed in
    (:class:`repro.cluster.failover.WireFailover`).
    """

    #: Sites of the star, for sizing the rebuilt ``SV_0``.
    n_sites: int
    #: The epoch of the promotion in progress or completed.
    notifier_epoch = 0

    @abc.abstractmethod
    def begin_promotion(self, successor: StarClient, epoch: int) -> list[int]:
        """The successor confirmed the crash: record ``epoch`` in
        ``notifier_epoch``, make every surviving member reachable from
        it and return their site ids."""

    def complete_promotion(
        self, successor: StarClient,
        contributions: dict[int, StateContribution | None],
    ) -> StarNotifier:
        """All contributions are in: build and install the new notifier."""
        notifier = StarNotifier.promoted_from(
            successor, self.notifier_epoch, contributions, n_sites=self.n_sites,
        )
        self.installed(notifier, contributions)
        return notifier

    @abc.abstractmethod
    def installed(self, notifier: StarNotifier,
                  contributions: dict[int, StateContribution | None]) -> None:
        """Record ``notifier`` as the centre wherever the deployment
        looks for it."""

    def election_aborted(self, successor: StarClient) -> None:
        """The suspected centre answered the liveness probe.  Nothing to
        undo where suspicion is never wrong (a socket EOF is definitive)."""

    def route_restart(self, client: StarClient) -> int:
        """Where a restarting client should resync: where it already
        points, unless the directory knows the centre moved."""
        return client.center


class FailoverManager(Directory):
    """Session-level failover coordination for one star session.

    Holds the pieces an out-of-band membership service would: who the
    current centre is, whether an election is already in flight, and
    which client raised it.  All message traffic (election, promotion,
    contributions, snapshots) still travels over the simulated -- faulty
    -- network; the manager only routes local decisions and wires
    channels.
    """

    def __init__(self, session: "StarSession") -> None:
        self.session = session
        self.center_pid = 0
        self.promoted = False
        self._election_open = False
        self._detector: StarClient | None = None
        self._promoting_client: StarClient | None = None

    # -- crash detection -----------------------------------------------------

    def peer_dead(self, reporter: object, peer: int) -> None:
        """A transport exhausted its retransmit budget toward ``peer``.

        Routing: the promoting successor giving up on a member ends that
        member's contribution wait; a client giving up on the current
        centre opens an election; everything else (the old notifier
        giving up on a crashed client, post-promotion stragglers) is
        left to the park-and-resurrect machinery.
        """
        if self._promoting_client is not None and reporter is self._promoting_client:
            self._promoting_client._member_dead(peer)
            return
        if (
            peer == self.center_pid
            and not self.promoted
            and isinstance(reporter, StarClient)
            and not reporter.promoted
        ):
            self._suspect_center(reporter)

    def _suspect_center(self, detector: "StarClient") -> None:
        if self._election_open or self.promoted:
            return
        successor = self._pick_successor()
        if successor is None:
            return  # no live client left; the session is simply over
        self._election_open = True
        self._detector = detector
        epoch = self.notifier_epoch + 1
        if detector is successor:
            successor.elect(epoch)
            return
        self.session.topology.connect_pair(detector, successor)
        detector.send(successor.pid, ElectMessage(notifier_epoch=epoch))

    def _pick_successor(self) -> "StarClient | None":
        """The lowest live active client (``clients`` is in pid order)."""
        return next((
            client for client in self.session.clients
            if not client.transport.crashed and client.active and not client.promoted
        ), None)

    def election_aborted(self, successor: "StarClient") -> None:
        """The suspected centre answered the liveness probe: the
        detector's link to it, parked on give-up, retries again."""
        self._election_open = False
        if self._detector is not None:
            self._detector._reliable_transport().resume(self.center_pid)

    # -- promotion -----------------------------------------------------------

    def begin_promotion(self, successor: "StarClient", epoch: int) -> list[int]:
        """The successor confirmed the crash: record the new centre and
        wire it to every surviving member; returns their site ids."""
        self._promoting_client = successor
        self.center_pid = successor.pid
        self.notifier_epoch = epoch
        members = [
            client
            for client in self.session.clients
            if client is not successor and not client.transport.crashed
        ]
        for member in members:
            self.session.topology.connect_pair(successor, member)
        return [member.pid for member in members]

    @property
    def n_sites(self) -> int:
        return len(self.session.clients)  # late joiners count

    def installed(self, notifier: StarNotifier, contributions: dict) -> None:
        self._promoting_client = None
        self.promoted = True
        self.session.promoted_notifier = notifier

    # -- routing for restarts --------------------------------------------------

    def route_restart(self, client: "StarClient") -> int:
        """Where a restarting client should resync; wires the channel if
        the centre moved while the client was down."""
        if self.center_pid != 0:
            successor = self.session.client(self.center_pid)
            self.session.topology.connect_pair(successor, client)
        return self.center_pid
