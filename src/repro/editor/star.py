"""The star-topology group editor (Web-based REDUCE, paper Sections 2-4).

This module is the session layer of the star stack: it wires the two
roles over :class:`repro.net.topology.StarTopology` and exposes the
experiment surface (run, convergence check, wire statistics, event log).
The stack it assembles, bottom to top:

* transport -- :mod:`repro.net.reliability`: raw FIFO pass-through on a
  perfect network, or the sequence-numbered / retransmitting /
  epoch-fenced reliability protocol when faults are injected.  Editors
  *own* a transport; none inherits one.
* causality -- the compressed state vectors and concurrency formulas
  (:mod:`repro.core`), plus the wire formats
  (:mod:`repro.editor.messages`).
* integration -- :class:`repro.editor.star_client.StarClient` (sites
  ``1..N``: execute locally, timestamp with ``SV_i``, formula (5)) and
  :class:`repro.editor.star_notifier.StarNotifier` (site 0: full
  ``SV_0``, formula (7), transform and re-broadcast with
  per-destination compressed timestamps).
* session -- :class:`StarSession` below, a
  :class:`repro.session.SessionBase`.

Transformation discipline
-------------------------
The paper defers the transformation path to its references [14, 15]; we
use the standard symmetric treatment for star topologies: when an
incoming operation is transformed against a concurrent history
operation, the history operation is simultaneously inclusion-transformed
against the incoming one, so the buffer always reflects the current
document context.  Insert-position ties are broken by originating site
identifier (lower site wins), evaluated identically at both ends, which
makes the outcome site-independent -- the convergence property the
property-based tests exercise.

Ground truth
------------
Every generation/execution is recorded in a shared
:class:`repro.clocks.events.EventLog`.  With ``verify_with_oracle=True``
each compressed-timestamp concurrency verdict is asserted against full
vector clocks (paper formula 3) at check time; the integration tests run
entire random sessions this way.

Retention
---------
A *diagnostic* session -- ``record_checks=True`` or
``verify_with_oracle=True`` -- runs the formula-(5)/(7) sweep on every
arrival over a history buffer pruned at the acknowledgement horizon,
and keeps the notifier's per-destination ``broadcast_log``;
``record_checks`` also keeps one ``CheckRecord`` per verdict, the oracle
the whole history.  Every other session (the default) keeps only the
acknowledgement window its transforms need (``pending``, ``sent_to``):
no sweep, no check records, ``broadcast_log is None``, no history.

Reliability under faults
------------------------
The formulas require FIFO channels; a faulty network (see
:mod:`repro.net.faults`) may lose or duplicate messages and clients may
crash.  When a session runs with a fault plan, every endpoint owns a
:class:`repro.net.reliability.ReliableEndpoint` transport: messages
travel in sequence-numbered
:class:`~repro.net.reliability.ReliablePacket` envelopes, the sender
retransmits unacknowledged packets with exponential backoff, and the
receiver deduplicates by ``(source, seq)`` and releases packets to the
editor strictly in sequence order -- reconstructing exactly the FIFO
stream formulas (5) and (7) assume.  A crashed client loses all volatile
state; on restart it opens a new *epoch* (stale in-flight traffic from
the previous incarnation is discarded by epoch) and resynchronises
through the existing :class:`~repro.editor.messages.SnapshotMessage`
path.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.clocks.events import EventLog
from repro.editor.failover import FailoverManager
from repro.editor.star_client import StarClient
from repro.editor.star_notifier import StarNotifier
from repro.net.channel import LatencyModel
from repro.net.faults import FaultPlan
from repro.net.reliability import ReliableEndpoint
from repro.net.simulator import Simulator
from repro.net.topology import StarTopology
from repro.obs.tracer import Tracer
from repro.session import SessionBase

__all__ = ["StarSession"]


class StarSession(SessionBase):
    """A complete editing session: one notifier plus N clients."""

    def __init__(
        self,
        n_sites: int,
        ot_type_name: str = "text-positional",
        initial_state: Any = None,
        latency_factory: Callable[[int, int], LatencyModel] | None = None,
        verify_with_oracle: bool = False,
        transform_enabled: bool = True,
        record_events: bool = True,
        record_checks: bool = False,
        fault_plan: FaultPlan | None = None,
        reliability: bool = False,
        tracer: Tracer | None = None,
    ) -> None:
        self.sim = Simulator()
        self._ot_type_name = ot_type_name
        self._transform_enabled = transform_enabled
        self._record_checks = record_checks
        self.fault_plan = fault_plan
        self.tracer = tracer
        if tracer is not None:
            tracer.bind_clock(lambda: self.sim.now)
        # Faults demand the reliability protocol; without faults it is
        # opt-in (and off by default, keeping the perfect-network wire
        # accounting byte-for-byte identical to the paper's).
        self.reliability = reliability = reliability or fault_plan is not None
        self.event_log = EventLog(n_sites + 1) if record_events else None
        self.notifier = StarNotifier(
            self.sim,
            n_sites,
            ot_type_name,
            initial_state,
            self.event_log,
            verify_with_oracle,
            transform_enabled,
            record_checks,
            reliability=reliability,
            tracer=tracer,
        )
        self.clients = [
            StarClient(
                self.sim,
                i,
                ot_type_name,
                initial_state,
                self.event_log,
                verify_with_oracle,
                transform_enabled,
                record_checks,
                reliability=reliability,
                tracer=tracer,
            )
            for i in range(1, n_sites + 1)
        ]
        self.topology = StarTopology(
            self.sim,
            [self.notifier, *self.clients],
            latency_factory,
            channel_factory=fault_plan.channel_factory() if fault_plan else None,
        )
        # Failover machinery: present whenever the reliability protocol
        # runs (its retransmit-budget give-up is the crash detector).
        self.promoted_notifier: StarNotifier | None = None
        self.failover: FailoverManager | None = None
        if reliability:
            manager = FailoverManager(self)
            self.failover = manager
            for client in self.clients:
                client.arm_failover(manager)
            for endpoint in [self.notifier, *self.clients]:
                transport = endpoint.transport
                assert isinstance(transport, ReliableEndpoint)
                transport.on_peer_dead = (
                    lambda peer, reporter=endpoint: manager.peer_dead(reporter, peer)
                )
        if fault_plan is not None:
            for crash in fault_plan.crashes:
                client = self.client(crash.site)
                self.sim.schedule(crash.at, client.crash)
                self.sim.schedule(crash.restart_at, client.restart)
            if fault_plan.notifier_crash is not None:
                self.sim.schedule(fault_plan.notifier_crash.at, self.notifier.crash)

    def endpoints(self) -> Sequence[Any]:
        """Canonical site order: ``[notifier, client 1, ..., client N]``.

        After a failover, the centre is the promoted notifier and the
        dead original (plus the successor's frozen client role, whose
        replica the promoted notifier carries forward) drops out.
        """
        if self.promoted_notifier is not None:
            survivors = [client for client in self.clients if not client.promoted]
            return [self.promoted_notifier, *survivors]
        return [self.notifier, *self.clients]

    def participants(self) -> Sequence[Any]:
        """Every role ever played, for whole-run diagnostics."""
        out: list[Any] = [self.notifier, *self.clients]
        if self.promoted_notifier is not None:
            out.append(self.promoted_notifier)
        return out

    def add_client(self, at: float) -> int:
        """Schedule a late join at virtual time ``at``; returns the site id.

        At ``at`` the new client is wired to the notifier, admitted (the
        notifier grows ``SV_0`` by one entry) and sent a state snapshot;
        it may generate operations once the snapshot has arrived.

        Dynamic membership is incompatible with the fixed-size
        ground-truth event log, so it requires ``record_events=False``.
        """
        if self.event_log is not None:
            raise ValueError(
                "dynamic membership needs record_events=False (the event "
                "log's vector clocks have a fixed site count)"
            )
        site_id = len(self.clients) + 1
        client = StarClient(
            self.sim,
            site_id,
            self._ot_type_name,
            None,
            None,
            False,
            self._transform_enabled,
            self._record_checks,
            joining=True,
            reliability=self.reliability,
            tracer=self.tracer,
        )
        if self.failover is not None:
            client.arm_failover(self.failover)
        self.clients.append(client)

        def join() -> None:
            self.topology.add_client(client)
            self.notifier.admit_client(client)

        self.sim.schedule(at, join)
        return site_id

    def client(self, site_id: int) -> StarClient:
        """The client for 1-based ``site_id``."""
        if not 1 <= site_id <= len(self.clients):
            raise IndexError(f"site ids are 1..{len(self.clients)}, got {site_id}")
        return self.clients[site_id - 1]

    def generate_at(self, site_id: int, op: Any, at: float) -> None:
        """Schedule generation of ``op`` at ``site_id`` at virtual time ``at``."""
        client = self.client(site_id)
        self.sim.schedule(at, lambda: client.generate(op))

    def fault_report(self):
        """Aggregate what the network did and what the protocol absorbed."""
        from repro.metrics.accounting import build_fault_report

        # One stats object per *transport*: the promoted notifier shares
        # the successor client's transport, so iterating the original
        # roles counts every transport exactly once across a failover.
        return build_fault_report(
            self.topology.total_fault_stats(),
            [endpoint.transport.stats for endpoint in [self.notifier, *self.clients]],
        )
