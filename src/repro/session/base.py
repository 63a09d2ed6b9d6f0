"""The shared session layer: orchestration common to star and mesh.

A *session* wires a set of simulated editor processes to a topology and
exposes the experiment surface every workload, benchmark, and test
drives: run the event loop, compare replica documents, aggregate wire
statistics, and collect concurrency-check diagnostics.  Star
(:class:`repro.editor.star.StarSession`) and mesh
(:class:`repro.editor.mesh.MeshSession`) used to duplicate all of this;
:class:`SessionBase` is the single implementation, parameterised only
by :meth:`SessionBase.endpoints`.

:class:`CheckRecord` and :class:`ConsistencyError` also live here: a
concurrency-check diagnostic and the compressed-verdict-vs-oracle
failure are session-layer concepts, not star-specific ones (the paper's
Fig. 3 assertions read them, and any future integration layer emits
them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.net.scheduler import Scheduler
from repro.obs.tracer import TraceEvent, Tracer


class ConsistencyError(AssertionError):
    """Raised when a compressed verdict disagrees with the oracle."""


@dataclass(slots=True)
class CheckRecord:
    """One concurrency check, for diagnostics and Fig. 3 assertions.

    A cluster process keeps one per (arrival, retained entry) for its
    whole run, so it holds four references and no container.
    """

    site: int
    new_op_id: str
    buffered_op_id: str
    verdict: bool


class SessionBase:
    """Common orchestration over a scheduler + topology + endpoints.

    Subclasses construct ``self.sim`` and ``self.topology`` and
    implement :meth:`endpoints`; everything else -- running, convergence
    and quiescence checks, wire statistics, check aggregation -- is
    shared.  ``sim`` is any :class:`~repro.net.scheduler.Scheduler`:
    the in-repo sessions build a deterministic
    :class:`~repro.net.simulator.Simulator`, while the cluster harness
    runs the same endpoints under the wall-clock scheduler.
    """

    sim: Scheduler
    topology: Any
    tracer: Optional[Tracer] = None

    def endpoints(self) -> Sequence[Any]:
        """The document-bearing processes, in canonical site order.

        After a role transfer (notifier failover) this reflects the
        *current* replica set: dead roles drop out, promoted ones join.
        """
        raise NotImplementedError

    def participants(self) -> Sequence[Any]:
        """Every process that ever played a role, dead ones included.

        Diagnostics (check records, delivery audits) must cover the
        whole run -- a crashed notifier's pre-crash checks are still
        evidence.  Defaults to :meth:`endpoints`; sessions with role
        transfer override it.
        """
        return self.endpoints()

    # -- running ---------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> int:
        """Run the simulation; returns the number of events executed."""
        executed = self.sim.run(until=until)
        if self.tracer is not None:
            self.tracer.metrics.inc("session.runs")
            self.tracer.metrics.inc("session.sim_events", executed)
        return int(executed)

    def trace_events(self) -> Sequence[TraceEvent]:
        """Events recorded so far (empty without an attached tracer)."""
        return () if self.tracer is None else list(self.tracer.events)

    # -- replica state -----------------------------------------------------------

    def documents(self) -> list[Any]:
        """Document states, one per endpoint in canonical order."""
        return [endpoint.document for endpoint in self.endpoints()]

    def converged(self) -> bool:
        """True iff all endpoints hold equal document state."""
        docs = self.documents()
        return all(doc == docs[0] for doc in docs[1:])

    def quiescent(self) -> bool:
        """True iff no message is in flight and nothing is held back."""
        if self.sim.pending_events != 0:
            return False
        return not any(endpoint.holdback_pending() for endpoint in self.endpoints())

    # -- diagnostics -------------------------------------------------------------

    def all_checks(self) -> list[CheckRecord]:
        """Every concurrency check recorded by any endpoint."""
        records: list[CheckRecord] = []
        for endpoint in self.participants():
            records.extend(getattr(endpoint, "checks", ()))
        return records

    def wire_stats(self) -> Any:
        """Aggregate wire statistics over every channel."""
        return self.topology.total_stats()

    def reliable_delivery_in_order(self) -> bool:
        """True iff every endpoint's transport released a gap-free FIFO
        stream to the editor (trivially true without reliability)."""
        return all(
            endpoint.transport.delivered_in_order() for endpoint in self.participants()
        )
