"""The editor-process seam: a SimProcess that *owns* its transport.

:class:`EditorEndpoint` is the glue between the transport layer
(:mod:`repro.net.reliability`) and the integration layer (the star and
mesh editor classes).  It is a plain
:class:`~repro.net.process.SimProcess` -- so topologies wire it like any
other process -- that routes all traffic through a composed transport
object instead of implementing (or inheriting) delivery machinery:

* outgoing: ``self.send(...)`` -> ``self.transport.send(...)`` -> (raw
  pass-through, or sequencing + retransmission) -> the FIFO channel;
* incoming: channel -> ``self.on_message`` -> ``self.transport.on_wire``
  -> (immediately, or after in-order release) ->
  ``self._handle_app_message`` in the editor subclass.  ``on_message``
  is the one entry from the wire, so it is where an arrival the process
  cannot take becomes its one refusal type, ``ConsistencyError``.

No editor class inherits from a transport class; swapping transports is
a constructor argument.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.net.holdback import HoldbackOverflow
from repro.net.process import SimProcess
from repro.net.reliability import AnyTransport, build_transport
from repro.net.scheduler import Scheduler
from repro.net.transport import Envelope
from repro.obs.tracer import Tracer
from repro.ot.operations import OperationError
from repro.session.base import ConsistencyError


class EditorEndpoint(SimProcess):
    """A simulated process whose editor logic talks through a transport."""

    transport: AnyTransport

    def __init__(self, sim: Scheduler, pid: int,
                 reliability: bool = False,
                 tracer: Optional[Tracer] = None,
                 *, adopt_transport: Optional[AnyTransport] = None) -> None:
        super().__init__(sim, pid)
        self.tracer = tracer
        if adopt_transport is not None:
            # Role transfer (notifier failover): the new endpoint takes
            # over an existing transport -- live links, sequence numbers,
            # stats and all -- and re-points its I/O hooks at itself.
            # The previous owner's incoming wire traffic now lands here.
            if adopt_transport.pid != pid:
                raise ValueError(
                    f"cannot adopt transport of pid {adopt_transport.pid} "
                    f"into endpoint {pid}"
                )
            self.transport = adopt_transport
            adopt_transport.wire_send = self._wire_send
            adopt_transport.deliver = self._handle_app_message
        else:
            self.transport = build_transport(
                sim,
                pid,
                reliability,
                wire_send=self._wire_send,
                deliver=self._handle_app_message,
                tracer=tracer,
            )

    # -- wiring ------------------------------------------------------------------

    # Raw channel access, handed to the transport at construction.
    _wire_send = SimProcess.send

    def send(self, dest: int, payload: Any) -> None:
        """Application-level send: goes through the owned transport."""
        self.transport.send(dest, payload)

    def on_message(self, envelope: Envelope) -> None:
        """Network arrival: goes through the owned transport.

        An arrival that overflows the reorder buffer, or an edit that
        does not apply to the document, is refused as a chained
        ``ConsistencyError``, like every other arrival the editor rejects.
        """
        try:
            self.transport.on_wire(envelope)
        except (HoldbackOverflow, OperationError) as exc:
            raise ConsistencyError(
                f"site {self.pid}: refused a message from site "
                f"{envelope.source}: {exc}") from exc

    # -- editor hook -------------------------------------------------------------

    def _handle_app_message(self, envelope: Envelope) -> None:
        """Editor-level message handling; override in subclasses."""
        raise NotImplementedError

    # -- transport surface mirrored for the session layer ------------------------

    def delivered_in_order(self) -> bool:
        """The transport's in-order release audit."""
        return self.transport.delivered_in_order()

    def holdback_pending(self) -> bool:
        """True iff editor-level delivery is still waiting on something.

        Transport-level holdback (the reliable endpoint's reorder
        buffer) is *not* included: a held packet always implies an
        unacknowledged sender with a retransmit timer armed, so the
        simulator's pending-event count already covers it.  Subclasses
        with an editor-level hold-back (the mesh's causal buffer)
        override this.
        """
        return False
