"""What perfbench attaches to the endpoints it builds.

Two things, both from outside the program:

* :class:`OpTracker` follows every generated op to its execution at the
  notifier and at every other client.  It runs in *every* pass (timed
  and traced) because the end-to-end latency comes from it.
* :func:`instrument` additionally puts a span around each layer
  boundary of one endpoint.  Only the traced pass calls it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Optional

from spans import (
    ChannelProxy,
    OtProxy,
    SpanRecorder,
    StampingReader,
    payload_op_id,
)


class OpTracker:
    """Generation -> execution at every remote replica, per op.

    ``wall=True`` (the TCP rig): latency is one ``perf_counter`` interval
    from ``generate()`` entry to the return of the ``on_message`` that
    executed the op at the last remote client -- what a user waits.

    ``wall=False`` (the simulator): the network delay is virtual and
    costs no wall time, while the wall clock between two events of one
    op is filled with *other* ops' events.  So latency is the time the
    stack itself spends on the op's path: ``generate()`` + the notifier
    delivery that executed it + the delivery that executed it at the
    slowest client, i.e. the latency at zero network delay and no
    queueing.  The virtual-time latency (generation -> last remote
    execution on the simulator clock) is recorded beside it.
    """

    def __init__(self, remote_clients: int, now: Callable[[], float],
                 wall: bool) -> None:
        self._remote = remote_clients
        self._now = now
        self._wall = wall
        # op id -> [generate entry, generate duration, scheduler time,
        #           notifier duration, clients still to execute, worst latency]
        self._ops: dict[str, list[float]] = {}
        self.e2e_s: list[float] = []
        self.sched_e2e: list[float] = []
        self.on_complete: Optional[Callable[[str], None]] = None

    def generated_at(self, op_id: str) -> float:
        """``perf_counter`` at the entry of the ``generate()`` that made ``op_id``."""
        return self._ops[op_id][0]

    def generated(self, op_id: str, entry: float, exit_: float) -> None:
        self._ops[op_id] = [entry, exit_ - entry, self._now(), 0.0,
                            self._remote, 0.0]

    def watch(self, endpoint: Any, deliver: Callable[[Any], None],
              is_notifier: bool) -> Callable[[Any], None]:
        """``deliver`` with execution tracking around it."""
        executed = endpoint.executed_op_ids
        record = self._at_notifier if is_notifier else self._at_client

        def watched(envelope: Any) -> None:
            before = len(executed)
            start = perf_counter()
            deliver(envelope)
            end = perf_counter()
            if len(executed) != before:
                record(executed, before, start, end)

        return watched

    def _at_notifier(self, executed: list[str], before: int,
                     start: float, end: float) -> None:
        for op_id in executed[before:]:
            self._ops[op_id[:-1]][3] = end - start  # "c1_7'" executes "c1_7"

    def _at_client(self, executed: list[str], before: int,
                   start: float, end: float) -> None:
        for op_id in executed[before:]:
            source = op_id[:-1]
            state = self._ops[source]
            if self._wall:
                latency = end - state[0]
            else:
                latency = state[1] + state[3] + (end - start)
            if latency > state[5]:
                state[5] = latency
            state[4] -= 1
            if state[4] == 0:
                self.e2e_s.append(state[5])
                self.sched_e2e.append(self._now() - state[2])
                if self.on_complete is not None:
                    self.on_complete(source)

    def incomplete(self) -> int:
        """Ops that did not reach every remote client."""
        return sum(1 for state in self._ops.values() if state[4] != 0)


def tracked_generate(client: Any, op: Any, tracker: OpTracker,
                     recorder: Optional[SpanRecorder]) -> Optional[str]:
    """``client.generate(op)``, timed for ``tracker`` and, in the traced
    pass, inside an ``editor.generate`` span that carries the new op id."""
    span = recorder.enter("editor.generate") if recorder is not None else -1
    entry = perf_counter()
    op_id = client.generate(op)
    exit_ = perf_counter()
    if recorder is not None:
        recorder.exit(span)
        recorder.op_ids[span] = op_id
    if op_id is not None:
        tracker.generated(op_id, entry, exit_)
    return op_id


@dataclass
class Corpus:
    """Real traffic captured by the traced pass for the layer stands."""

    envelopes: list[Any] = field(default_factory=list)
    pairs: list[tuple[Any, Any, bool]] = field(default_factory=list)
    frames: list[bytes] = field(default_factory=list)


@dataclass
class TraceState:
    """Everything the traced pass accumulates."""

    recorder: SpanRecorder = field(default_factory=SpanRecorder)
    corpus: Corpus = field(default_factory=Corpus)
    checks_swept: int = 0  # HB entries visited by formula-5/7 sweeps
    sent_at: dict[tuple[int, int, int], float] = field(default_factory=dict)
    transit_s: list[float] = field(default_factory=list)


def instrument(endpoint: Any, trace: TraceState, handle_name: str,
               send_name: str, track_transit: bool = False) -> None:
    """Span every layer boundary of ``endpoint`` reachable from outside."""
    recorder = trace.recorder
    transport = endpoint.transport
    handler = transport.deliver
    sweeps = endpoint.record_checks or endpoint.verify_with_oracle

    def handled(envelope: Any) -> None:
        if sweeps:
            trace.checks_swept += len(endpoint.hb)
        index = recorder.enter(handle_name, payload_op_id(envelope.payload))
        try:
            handler(envelope)
        finally:
            recorder.exit(index)

    transport.deliver = handled
    transport.send = recorder.wrap("rel.send", transport.send)
    transport.wire_send = recorder.wrap("proc.send", transport.wire_send)
    endpoint.ot = OtProxy(endpoint.ot, recorder, trace.corpus.pairs)
    for dest, channel in list(endpoint.out_channels.items()):
        endpoint.out_channels[dest] = ChannelProxy(
            channel, recorder, send_name, trace.corpus.envelopes,
            trace.sent_at if track_transit else None,
        )


def spanned_arrival(endpoint: Any, trace: TraceState,
                    reader: Optional[StampingReader] = None
                    ) -> Callable[[Any], None]:
    """``endpoint.on_message`` as a root span (``rel.on_wire``).

    The simulator reaches it through ``channel.on_deliver``.  The TCP rig
    reaches it through the ``pump`` callback and passes the ``reader``
    that pump reads from: the frame's last byte was read at
    ``reader.returned_at``, and what ran between that and this callback
    is ``decode_frame``.
    """
    recorder = trace.recorder
    on_message = endpoint.on_message

    def arrived(envelope: Any) -> None:
        if reader is not None:
            recorder.add_root("wire.decode_frame", reader.returned_at, perf_counter())
        index = recorder.enter("rel.on_wire", payload_op_id(envelope.payload))
        if reader is not None:
            sent = trace.sent_at.pop(
                (envelope.source, envelope.dest, envelope.message_id), None)
            if sent is not None:
                trace.transit_s.append(reader.returned_at - sent)
        try:
            on_message(envelope)
        finally:
            recorder.exit(index)

    return arrived


def transport_counters(endpoints: Any) -> dict[str, int]:
    """The public reliability / hold-back counters, summed over endpoints."""
    stats = [endpoint.transport.stats for endpoint in endpoints]
    return {
        "retransmits": sum(s.retransmits for s in stats),
        "dup_discards": sum(s.duplicates_discarded for s in stats),
        "acks": sum(s.acks_sent for s in stats),
        "held": sum(s.out_of_order_held for s in stats),
        "holdback_high_water": max(
            endpoint.transport.holdback_high_water() for endpoint in endpoints),
    }
