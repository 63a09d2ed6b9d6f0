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
  ``self._handle_app_message`` in the editor subclass.

No editor class inherits from a transport class; swapping transports is
a constructor argument.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.net.process import SimProcess
from repro.net.reliability import AnyTransport, ReliabilityConfig, build_transport
from repro.net.scheduler import Scheduler
from repro.net.transport import Envelope
from repro.obs.tracer import Tracer


class EditorEndpoint(SimProcess):
    """A simulated process whose editor logic talks through a transport."""

    transport: AnyTransport

    def __init__(self, sim: Scheduler, pid: int,
                 reliability: Optional[ReliabilityConfig] = None,
                 tracer: Optional[Tracer] = None,
                 *, adopt_transport: Optional[AnyTransport] = None) -> None:
        super().__init__(sim, pid)
        self.tracer = tracer
        #: Wall-clock source for causal latency spans.  ``None`` (the
        #: default, and the only value simulator sessions ever see)
        #: disables span instrumentation entirely: no ``origin_wall``
        #: is stamped on outgoing messages and no ``span`` events are
        #: emitted, so deterministic traces and the paper's byte
        #: accounting are untouched.  Cluster processes arm it with
        #: ``time.time`` after construction.
        self.span_clock: Optional[Callable[[], float]] = None
        #: Rolling window of recent *uncorrected* end-to-end latencies
        #: (seconds; this site's clock minus the op's origin stamp),
        #: fed on every execution of a span-stamped arrival and
        #: published live through the telemetry sampler.  Empty unless
        #: ``span_clock`` is armed.
        self.e2e_window: deque[float] = deque(maxlen=64)
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

    def _wire_send(self, dest: int, payload: Any, timestamp_bytes: int = 0,
                   kind: str = "op") -> None:
        """Raw channel access, handed to the transport at construction."""
        SimProcess.send(self, dest, payload, timestamp_bytes, kind)

    def send(self, dest: int, payload: Any, timestamp_bytes: int = 0,
             kind: str = "op") -> None:
        """Application-level send: goes through the owned transport."""
        self.transport.send(dest, payload, timestamp_bytes, kind)

    def on_message(self, envelope: Envelope) -> None:
        """Network arrival: goes through the owned transport."""
        self.transport.on_wire(envelope)

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
